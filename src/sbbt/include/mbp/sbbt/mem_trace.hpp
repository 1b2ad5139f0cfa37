/**
 * @file
 * Decode-once in-memory trace arena.
 *
 * For cheap predictors (Bimodal/GShare class) the simulator's running
 * time is dominated by trace decode — decompression plus packet decode —
 * not by prediction (paper Table III). A MemTrace pays that cost exactly
 * once: one streaming pass decodes the whole trace into a compact
 * struct-of-arrays arena that is immutable afterwards and can be shared
 * across any number of predictors and threads via
 * `std::shared_ptr<const MemTrace>`. Consumers read it through the
 * column accessors, or as zero-copy blocks through an sbbt::BlockSource —
 * the same block shape the streaming decoder produces, so every
 * simulation loop runs unchanged over either.
 *
 * @code
 *   std::string error;
 *   auto trace = sbbt::MemTrace::load("trace.sbbt.flz", {}, &error);
 *   if (!trace) fail(error);
 *   for (std::size_t i = 0; i < trace->size(); ++i)
 *       use(trace->ip(i), trace->taken(i), trace->instrNumber(i));
 * @endcode
 */
#ifndef MBP_SBBT_MEM_TRACE_HPP
#define MBP_SBBT_MEM_TRACE_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "mbp/sbbt/blocks.hpp"
#include "mbp/sbbt/format.hpp"
#include "mbp/sbbt/reader.hpp"

namespace mbp::sbbt
{

/**
 * An immutable, fully decoded SBBT trace resident in memory.
 *
 * Layout is struct-of-arrays: per branch a target, a packed
 * opcode+outcome byte, the 1-based cumulative instruction number and a
 * dense site id; per site the branch address. A branch's address is
 * stored once, per site — ip(i) is the site table's entry for branch
 * i's site id — and instruction gaps are not stored at all (they are the
 * differences of consecutive instruction numbers), so the arena costs
 * kBytesPerBranch per branch regardless of the on-disk codec.
 *
 * The columns are exposed as raw pointers and owned in one of two ways:
 * load() decodes the trace into columns it owns, while mapFile() borrows
 * them zero-copy from a read-only mmap of an SBBT-A sidecar
 * (mbp/sbbt/arena_file.hpp) — same accessors, same blocks, same
 * simulation loops over either backing.
 *
 * Thread safety: a loaded MemTrace is never mutated, so any number of
 * threads may iterate it concurrently, each through its own
 * BlockSource.
 */
class MemTrace
{
  public:
    /**
     * Arena bytes consumed per branch (target + instr number + meta +
     * dense site index). The site-index column is what lets the fused
     * simulation kernels (mbp/sim/kernels.hpp) replace every per-branch
     * hash lookup with an array access: the hashing is paid once here, at
     * decode, instead of once per (branch x predictor x run). It also
     * names the branch's address in the per-site table, so no per-branch
     * address column is kept.
     */
    static constexpr std::uint64_t kBytesPerBranch = 8 + 8 + 1 + 4;

    /**
     * Decodes the whole trace at @p path in one streaming pass, with the
     * same column decoder a streaming simulation reads (BlockSource):
     * packet bytes land straight in the arena's columns, block by block,
     * and the per-site tables are filled while each block is in cache.
     * Columns of 2 MiB or more live on transparent huge pages where the
     * host allows (mbp/utils/column_buffer.hpp).
     *
     * Errors follow SbbtReader semantics: an unreadable file, corrupt
     * compressed stream, invalid packet or early-ending trace fails the
     * load (nothing partial is returned). The header's branch count is
     * untrusted: the columns reserve at most what the file's size can
     * hold (compress::decodedSizeBound) and grow geometrically past it,
     * so a header promising more branches than the file carries costs
     * nothing before it fails as an early-ending trace, and one that
     * promises exactly the branches present never grows the columns.
     *
     * @param path    Trace file (possibly compressed).
     * @param options Decode pipeline knobs (block size, prefetch thread).
     * @param error   Receives the failure description (optional).
     * @return The shared arena, or nullptr on error.
     */
    static std::shared_ptr<const MemTrace>
    load(const std::string &path, const ReaderOptions &options = {},
         std::string *error = nullptr);

    /** @return Estimated arena footprint for a trace with @p header. */
    static std::uint64_t
    estimateBytes(const Header &header)
    {
        return header.branch_count * kBytesPerBranch + sizeof(MemTrace);
    }

    /**
     * Estimated arena footprint of the trace at @p path, from its header
     * alone (no packet is decoded). Used by memory-budgeted callers to
     * decide streaming fallback *before* committing the memory.
     *
     * @return The estimate, or 0 when the header cannot be read — callers
     *         should then proceed to load()/stream and surface the real
     *         error.
     */
    static std::uint64_t estimateFileBytes(const std::string &path);

    /**
     * Maps the SBBT-A sidecar at @p path read-only and borrows its
     * columns with zero copies (mbp/sbbt/arena_file.hpp). The header is
     * validated (magic, version, checksums, column bounds) and the
     * payload checksum verified — with every site id checked against the
     * site table in the same pass — before any column is trusted;
     * corrupt, truncated or version-mismatched files fail the map —
     * callers fall back to load() on the source trace.
     *
     * @param path        SBBT-A file to map.
     * @param error       Receives the failure description (optional).
     * @param source_hash Receives the content hash of the source trace
     *                    recorded at write time (optional; 0 = unknown).
     * @return The shared arena, or nullptr on any validation failure.
     */
    static std::shared_ptr<const MemTrace>
    mapFile(const std::string &path, std::string *error = nullptr,
            std::uint64_t *source_hash = nullptr);

    /**
     * Serializes this arena as an SBBT-A file at @p path (overwriting),
     * 64-byte-aligned so mapFile() can borrow it. Works for decoded and
     * mapped arenas alike. The write is NOT atomic — materialize through
     * a temp name + rename (sbbt::ArenaStore does) when other processes
     * may be reading the path.
     *
     * @param path        Destination file.
     * @param source_hash Content hash of the source trace file, recorded
     *                    in the header so readers can pair sidecar and
     *                    source (0 = unknown).
     * @param error       Receives the failure description (optional).
     * @return Whether the file was completely written and closed.
     */
    bool writeArena(const std::string &path, std::uint64_t source_hash = 0,
                    std::string *error = nullptr) const;

    /** @return Whether the columns are borrowed from an mmap (mapFile())
     *          rather than owned by the arena (load()). */
    bool mapped() const { return mapping_ != nullptr; }

    /** @return The trace header. */
    const Header &header() const { return header_; }

    /** @return Branches in the arena. */
    std::size_t size() const { return size_; }

    /** @return Actual resident footprint of the arena in bytes. */
    std::uint64_t memoryBytes() const;

    /** @return Decompressed SBBT bytes consumed while decoding. */
    std::uint64_t decompressedBytes() const { return decompressed_bytes_; }

    /** @return Seconds the one decode pass took. */
    double loadSeconds() const { return load_seconds_; }

    // Per-branch row accessors (i < size()).
    std::uint64_t ip(std::size_t i) const
    {
        return site_ips_p_[site_index_p_[i]];
    }
    std::uint64_t target(std::size_t i) const { return targets_p_[i]; }
    OpCode opcode(std::size_t i) const { return OpCode(meta_p_[i] & 0xf); }
    bool taken(std::size_t i) const { return (meta_p_[i] & 0x10) != 0; }
    /** 1-based instruction number of branch @p i (SbbtReader convention). */
    std::uint64_t instrNumber(std::size_t i) const
    {
        return instr_nums_p_[i];
    }

    /** @return Distinct branch sites (unique ips, any opcode) in the arena. */
    std::uint32_t numSites() const { return num_sites_; }

    /**
     * @return Distinct branch sites among the first @p count branches —
     * the `num_branch_instructions` a simulation stopping after
     * @p count branches observes. O(count/64) via a first-seen bitmap.
     */
    std::uint64_t staticSitesInPrefix(std::size_t count) const;

    // Raw columns (BlockSource slices them): per branch, then per site —
    // the dense site id of every branch (first-seen order), each site's
    // address, and each site's conditional executions over the whole
    // trace, precomputed at decode so a full-trace collect_most_failed
    // run reads its occurrence totals instead of counting them.
    const std::uint64_t *targetData() const { return targets_p_; }
    const std::uint64_t *instrNumData() const { return instr_nums_p_; }
    const std::uint8_t *metaData() const { return meta_p_; }
    const std::uint32_t *siteIndexData() const { return site_index_p_; }
    const std::uint64_t *siteIpData() const { return site_ips_p_; }
    const std::uint64_t *siteCondOccData() const
    {
        return site_cond_occ_p_;
    }

  private:
    /** Read-only mmap of an SBBT-A file, unmapped on destruction; keeps
     *  the borrowed columns of a mapped arena alive. */
    class ArenaMapping;

    /** The columns a decoded arena owns (see mem_trace.cpp). */
    struct OwnedColumns;

    MemTrace() = default;

    /** Takes @p rows rows of @p owned and points the column views at
     *  them (decode path). */
    void adoptOwnedColumns(std::shared_ptr<const OwnedColumns> owned,
                           std::size_t rows);

    Header header_;

    // Column views — the only pointers the accessors and block sources
    // read. They alias either the owned columns below (load())
    // or an ArenaMapping (mapFile()).
    const std::uint64_t *targets_p_ = nullptr;
    const std::uint64_t *instr_nums_p_ = nullptr; // cumulative, 1-based
    const std::uint8_t *meta_p_ = nullptr; // bits 0-3 opcode, bit 4 outcome
    const std::uint32_t *site_index_p_ = nullptr; // dense first-seen ids
    const std::uint64_t *first_seen_p_ = nullptr; // new-site bitmap
    const std::uint64_t *site_ips_p_ = nullptr;   // site id -> address
    const std::uint64_t *site_cond_occ_p_ = nullptr; // cond. counts
    std::size_t size_ = 0;
    std::uint32_t num_sites_ = 0;

    // Decode-path ownership (null for a mapped arena).
    std::shared_ptr<const OwnedColumns> owned_;

    // Map-path ownership (null for a decoded arena).
    std::shared_ptr<const ArenaMapping> mapping_;
    std::uint64_t mapped_bytes_ = 0; //!< file size backing the mapping

    std::uint64_t decompressed_bytes_ = 0;
    double load_seconds_ = 0.0;
};

} // namespace mbp::sbbt

#endif // MBP_SBBT_MEM_TRACE_HPP
