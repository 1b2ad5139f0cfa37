#include "mbp/sbbt/mem_trace.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>
#include <vector>

#include "column_decoder.hpp"
#include "mbp/compress/streams.hpp"
#include "mbp/utils/column_buffer.hpp"

namespace mbp::sbbt
{

struct MemTrace::OwnedColumns
{
    // Per branch: written once, in place, by the column decoder.
    util::Column<std::uint64_t> targets;
    util::Column<std::uint64_t> instr_nums;
    util::Column<std::uint8_t> meta;
    util::Column<std::uint32_t> site_index;
    // Per 64 branches, then per site.
    std::vector<std::uint64_t> first_seen;
    std::vector<std::uint64_t> site_ips;
    std::vector<std::uint64_t> site_cond_occ;

    std::size_t capacity() const { return targets.capacity(); }

    /** Grows every per-branch column to @p rows, keeping @p keep. */
    void
    reserve(std::size_t rows, std::size_t keep)
    {
        targets.reserve(rows, keep);
        instr_nums.reserve(rows, keep);
        meta.reserve(rows, keep);
        site_index.reserve(rows, keep);
        first_seen.reserve((rows + 63) / 64);
    }

    /** @return The columns' writable rows from @p row on. */
    BlockColumns
    at(std::size_t row)
    {
        return {targets.data() + row, instr_nums.data() + row,
                meta.data() + row, site_index.data() + row};
    }

    std::uint64_t
    bytes() const
    {
        return targets.reservedBytes() +
               instr_nums.reservedBytes() + meta.reservedBytes() +
               site_index.reservedBytes() +
               first_seen.capacity() * sizeof(std::uint64_t) +
               site_ips.capacity() * sizeof(std::uint64_t) +
               site_cond_occ.capacity() * sizeof(std::uint64_t);
    }
};

std::shared_ptr<const MemTrace>
MemTrace::load(const std::string &path, const ReaderOptions &options,
               std::string *error)
{
    const auto start = std::chrono::steady_clock::now();
    ColumnDecoder decoder(path, options);
    if (!decoder.reader().ok()) {
        if (error != nullptr)
            *error = decoder.reader().error();
        return nullptr;
    }

    // make_shared is unavailable with the private constructor; the arena
    // is shared read-only so the separate control block costs nothing hot.
    std::shared_ptr<MemTrace> trace(new MemTrace());
    trace->header_ = decoder.reader().header();
    // Reserve for the header's branch count, but never more than the file
    // can hold: a crafted header must not drive the allocation. The one
    // spare row lets an exact header's last read find the end of the
    // trace without growing (and so copying) every column.
    const std::uint64_t bound = compress::decodedSizeBound(path);
    const std::uint64_t fits =
        bound > kHeaderSize ? (bound - kHeaderSize) / kPacketSize : 0;
    auto owned = std::make_shared<OwnedColumns>();
    OwnedColumns &c = *owned;
    c.reserve(static_cast<std::size_t>(
                  std::min(trace->header_.branch_count, fits) + 1),
              0);

    std::size_t rows = 0;
    std::uint32_t seen = 0; // site ids are dense in first-seen order
    for (;;) {
        if (rows == c.capacity()) // the header under-promised
            c.reserve(std::max(2 * rows, rows + kBlockBranches), rows);
        const std::size_t want =
            std::min(kBlockBranches, c.capacity() - rows);
        const BlockColumns block = c.at(rows);
        const std::size_t got =
            decoder.decode(block, want, BlockSource::kNoLimit);
        c.first_seen.resize((rows + got + 63) / 64, 0);
        c.site_cond_occ.resize(decoder.sites().size(), 0);
        for (std::size_t i = 0; i < got; ++i) {
            const std::uint32_t s = block.site[i];
            if (s == seen) {
                const std::size_t row = rows + i;
                c.first_seen[row / 64] |= std::uint64_t{1} << (row & 63);
                ++seen;
            }
            // Predictor-independent accounting, paid once at decode: the
            // per-site conditional-execution totals every full-trace
            // collect_most_failed run needs.
            c.site_cond_occ[s] += block.meta[i] & kMetaConditional;
        }
        rows += got;
        if (got < want)
            break;
    }
    if (!decoder.error().empty()) {
        if (error != nullptr)
            *error = decoder.error();
        return nullptr;
    }
    c.site_ips = decoder.sites().keys();
    trace->adoptOwnedColumns(std::move(owned), rows);
    trace->decompressed_bytes_ = decoder.reader().decompressedBytes();
    trace->load_seconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return trace;
}

void
MemTrace::adoptOwnedColumns(std::shared_ptr<const OwnedColumns> owned,
                            std::size_t rows)
{
    owned_ = std::move(owned);
    const OwnedColumns &c = *owned_;
    targets_p_ = c.targets.data();
    instr_nums_p_ = c.instr_nums.data();
    meta_p_ = c.meta.data();
    site_index_p_ = c.site_index.data();
    first_seen_p_ = c.first_seen.data();
    site_ips_p_ = c.site_ips.data();
    site_cond_occ_p_ = c.site_cond_occ.data();
    size_ = rows;
    num_sites_ = static_cast<std::uint32_t>(c.site_ips.size());
}

std::uint64_t
MemTrace::staticSitesInPrefix(std::size_t count) const
{
    count = std::min(count, size_);
    std::uint64_t sites = 0;
    const std::size_t full_words = count / 64;
    for (std::size_t w = 0; w < full_words; ++w)
        sites +=
            static_cast<std::uint64_t>(std::popcount(first_seen_p_[w]));
    const std::size_t rem = count % 64;
    if (rem != 0) {
        const std::uint64_t mask = (std::uint64_t{1} << rem) - 1;
        sites += static_cast<std::uint64_t>(
            std::popcount(first_seen_p_[full_words] & mask));
    }
    return sites;
}

std::uint64_t
MemTrace::estimateFileBytes(const std::string &path)
{
    // The SbbtReader constructor parses only the header, so this peek
    // costs one small read even on multi-gigabyte compressed traces (an
    // FLZ first block is validated whole but decoded only that far).
    SbbtReader reader(path, ReaderOptions{.block_packets = 1,
                                         .prefetch = false});
    if (!reader.ok())
        return 0;
    return estimateBytes(reader.header());
}

std::uint64_t
MemTrace::memoryBytes() const
{
    // A mapped arena's footprint is the mapped file: at most that many
    // bytes of page cache, shared with every other process mapping it.
    if (mapping_ != nullptr)
        return sizeof(MemTrace) + mapped_bytes_;
    return sizeof(MemTrace) + owned_->bytes();
}

} // namespace mbp::sbbt
