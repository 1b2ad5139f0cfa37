#include "mbp/sbbt/mem_trace.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>

#include "mbp/compress/streams.hpp"

namespace mbp::sbbt
{

namespace
{

template <typename T>
void
append(std::vector<T> &column, const T *values, std::size_t count)
{
    column.insert(column.end(), values, values + count);
}

} // namespace

std::shared_ptr<const MemTrace>
MemTrace::load(const std::string &path, const ReaderOptions &options,
               std::string *error)
{
    const auto start = std::chrono::steady_clock::now();
    BlockSource source(path, options);
    if (!source.ok()) {
        if (error != nullptr)
            *error = source.error();
        return nullptr;
    }

    // make_shared is unavailable with the private constructor; the arena
    // is shared read-only so the separate control block costs nothing hot.
    std::shared_ptr<MemTrace> trace(new MemTrace());
    trace->header_ = source.header();
    // Reserve for the header's branch count, but never more than the file
    // can hold: a crafted header must not drive the allocation.
    const std::uint64_t bound = compress::decodedSizeBound(path);
    const std::uint64_t fits =
        bound > kHeaderSize ? (bound - kHeaderSize) / kPacketSize : 0;
    const auto hint = static_cast<std::size_t>(
        std::min(trace->header_.branch_count, fits));
    trace->ips_.reserve(hint);
    trace->targets_.reserve(hint);
    trace->instr_nums_.reserve(hint);
    trace->meta_.reserve(hint);
    trace->site_index_.reserve(hint);
    trace->first_seen_.reserve((hint + 63) / 64);

    Block block;
    std::uint32_t seen = 0; // site ids are dense in first-seen order
    while (source.next(block)) {
        const std::size_t base = trace->ips_.size();
        append(trace->ips_, block.ip, block.size);
        append(trace->targets_, block.target, block.size);
        append(trace->instr_nums_, block.instr, block.size);
        append(trace->meta_, block.meta, block.size);
        append(trace->site_index_, block.site, block.size);
        trace->first_seen_.resize((base + block.size + 63) / 64, 0);
        trace->site_cond_occ_.resize(source.numSites(), 0);
        for (std::size_t i = 0; i < block.size; ++i) {
            const std::uint32_t s = block.site[i];
            if (s == seen) {
                const std::size_t row = base + i;
                trace->first_seen_[row / 64] |= std::uint64_t{1}
                                                << (row & 63);
                ++seen;
            }
            // Predictor-independent accounting, paid once at decode: the
            // per-site conditional-execution totals every full-trace
            // collect_most_failed run needs.
            trace->site_cond_occ_[s] += block.meta[i] & kMetaConditional;
        }
    }
    if (!source.error().empty()) {
        if (error != nullptr)
            *error = source.error();
        return nullptr;
    }
    trace->num_sites_ = source.numSites();
    trace->site_ips_.assign(source.siteIps(),
                            source.siteIps() + trace->num_sites_);
    trace->adoptOwnedColumns();
    trace->decompressed_bytes_ = source.decompressedBytes();
    trace->load_seconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return trace;
}

void
MemTrace::adoptOwnedColumns()
{
    ips_p_ = ips_.data();
    targets_p_ = targets_.data();
    instr_nums_p_ = instr_nums_.data();
    meta_p_ = meta_.data();
    site_index_p_ = site_index_.data();
    first_seen_p_ = first_seen_.data();
    site_ips_p_ = site_ips_.data();
    site_cond_occ_p_ = site_cond_occ_.data();
    size_ = ips_.size();
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
    // costs one small read even on multi-gigabyte compressed traces.
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
    return sizeof(MemTrace) +
           ips_.capacity() * sizeof(std::uint64_t) +
           targets_.capacity() * sizeof(std::uint64_t) +
           instr_nums_.capacity() * sizeof(std::uint64_t) +
           meta_.capacity() * sizeof(std::uint8_t) +
           site_index_.capacity() * sizeof(std::uint32_t) +
           first_seen_.capacity() * sizeof(std::uint64_t) +
           site_ips_.capacity() * sizeof(std::uint64_t) +
           site_cond_occ_.capacity() * sizeof(std::uint64_t);
}

} // namespace mbp::sbbt
