/**
 * @file
 * Struct-of-arrays branch blocks: the one input every simulation loop
 * reads.
 *
 * A BlockSource hands out a trace as consecutive blocks of up to
 * kBlockBranches branches, each a set of column pointers (target,
 * instruction number, packed opcode+outcome, dense site id) plus the site
 * table that maps a site id to its branch address. A branch's address is
 * stored once, per site: ip(i) is site_ips[site[i]]. The blocks come from
 * one of two places:
 *
 *  - a resident arena (sbbt::MemTrace, decoded or SBBT-A-mapped): the
 *    blocks are zero-copy slices of its columns;
 *  - a trace file: one streaming decoder fills the columns and interns
 *    every branch address into a dense first-seen site id as it decodes.
 *
 * Either way the source stops at the first branch whose instruction
 * number exceeds the run's limit; that branch is read (so its instruction
 * number and any bytes behind it are accounted exactly as a
 * packet-at-a-time loop would) but never delivered, and nothing after it
 * is decoded, so a corrupt packet past the stop point stays invisible.
 *
 * @code
 *   sbbt::BlockSource source("trace.sbbt.flz");
 *   if (!source.ok()) fail(source.error());
 *   sbbt::Block block;
 *   while (source.next(block))
 *       for (std::size_t i = 0; i < block.size; ++i)
 *           use(block.branch(i), block.instr[i], block.site[i]);
 *   if (!source.error().empty()) fail(source.error());
 * @endcode
 */
#ifndef MBP_SBBT_BLOCKS_HPP
#define MBP_SBBT_BLOCKS_HPP

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "mbp/sbbt/branch.hpp"
#include "mbp/sbbt/format.hpp"
#include "mbp/sbbt/reader.hpp"

namespace mbp::sbbt
{

class MemTrace;

/** Branches per block. Small enough that a block's hot columns stay in
 *  L1d/L2 between a predictor pass and an accounting pass. */
inline constexpr std::size_t kBlockBranches = 4096;

/** Columns of @p size consecutive branches (views; never owning). */
struct Block
{
    /** Site id -> branch address; covers every id in site[]. */
    const std::uint64_t *site_ips = nullptr;
    const std::uint64_t *target = nullptr;
    /** 1-based cumulative instruction number (SbbtReader convention). */
    const std::uint64_t *instr = nullptr;
    const std::uint8_t *meta = nullptr;
    /** Dense site ids, assigned in first-seen order from 0. */
    const std::uint32_t *site = nullptr;
    std::size_t size = 0;

    /** @return Address of branch @p i. */
    std::uint64_t ip(std::size_t i) const { return site_ips[site[i]]; }

    /** @return Branch @p i rebuilt from the columns. */
    Branch
    branch(std::size_t i) const
    {
        return Branch{ip(i), target[i], OpCode(meta[i] & 0x0f),
                      (meta[i] & kMetaTaken) != 0};
    }
};

/**
 * A trace as a sequence of blocks, from an arena or a file (see the file
 * comment). One source serves one consumer; sources over a shared arena
 * are independent.
 */
class BlockSource
{
  public:
    static constexpr std::uint64_t kNoLimit =
        std::numeric_limits<std::uint64_t>::max();

    /** Slices @p arena up to the first branch past @p limit. */
    explicit BlockSource(std::shared_ptr<const MemTrace> arena,
                         std::uint64_t limit = kNoLimit);

    /** Decodes the trace at @p path up to the first branch past
     *  @p limit. Check ok() afterwards. */
    explicit BlockSource(const std::string &path,
                         const ReaderOptions &options = {},
                         std::uint64_t limit = kNoLimit);

    ~BlockSource();
    BlockSource(const BlockSource &) = delete;
    BlockSource &operator=(const BlockSource &) = delete;

    /** @return Whether the trace opened (header parsed, arena present). */
    bool ok() const { return opened_; }

    /** @return The first error ("" when none): open, decode or a
     *  mid-stream failure, which ends the block sequence. */
    const std::string &error() const { return error_; }

    /** @return The trace header. */
    const Header &header() const { return header_; }

    /**
     * Advances to the next block.
     *
     * @return False at the stop point, at end of trace or on error
     *         (check error()).
     */
    bool next(Block &out);

    /** @return Whether the stream ended at the end of the trace — not at
     *  the limit, not on an error. Meaningful once next() returned false. */
    bool exhausted() const { return exhausted_; }

    /** @return Instruction number of the last branch read: the one past
     *  the limit when the run stopped there, else the last delivered. */
    std::uint64_t lastInstr() const { return last_instr_; }

    /** @return Branches delivered so far. */
    std::uint64_t branches() const { return branches_; }

    /** @return Size of the site table. Covers every id delivered so far;
     *  an arena's table covers the whole arena up front. */
    std::uint32_t numSites() const { return num_sites_; }

    /** @return Site id -> branch address, numSites() entries. */
    const std::uint64_t *siteIps() const { return site_ips_; }

    /** @return Distinct branch addresses among the delivered branches. */
    std::uint64_t staticSites() const;

    /**
     * @return Conditional executions per site over every branch this
     *         source will deliver, when known up front without counting
     *         (an arena cut by no limit), else nullptr.
     */
    const std::uint64_t *siteCondOccurrences() const;

    /** @return Decompressed SBBT bytes consumed (an arena's: its one
     *  decode pass). */
    std::uint64_t decompressedBytes() const;

    /** @return Seconds blocked on the prefetch thread (0 for an arena). */
    double prefetchStallSeconds() const;

  private:
    struct Decoder;

    bool nextSlice(Block &out);
    bool nextDecoded(Block &out);

    Header header_;
    std::string error_;
    std::uint64_t limit_;
    std::uint64_t last_instr_ = 0;
    std::uint64_t branches_ = 0;
    const std::uint64_t *site_ips_ = nullptr;
    std::uint32_t num_sites_ = 0;
    bool opened_ = false;
    bool done_ = false;
    bool exhausted_ = false;

    // Arena mode: slices [pos_, stop_) of the arena's columns.
    std::shared_ptr<const MemTrace> arena_;
    std::size_t pos_ = 0;
    std::size_t stop_ = 0;

    // Stream mode.
    std::unique_ptr<Decoder> decoder_;
};

} // namespace mbp::sbbt

#endif // MBP_SBBT_BLOCKS_HPP
