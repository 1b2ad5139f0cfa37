/**
 * @file
 * The one decode routine behind every decoded trace (library-internal).
 *
 * A ColumnDecoder turns decompressed SBBT bytes straight into the four
 * block columns: SbbtReader::readColumns() writes target, instruction
 * number and meta, and the branch addresses into one reused scratch
 * block, where a util::Interner turns them into dense site ids while
 * they are still in cache. Only the site table keeps an address, once
 * per site (Block::ip). BlockSource streams the columns into one reused
 * block; MemTrace::load runs them straight into the arena's own columns,
 * so a branch is written once, where it will live.
 */
#ifndef MBP_SBBT_COLUMN_DECODER_HPP
#define MBP_SBBT_COLUMN_DECODER_HPP

#include <array>
#include <cassert>
#include <cstdint>
#include <string>

#include "mbp/sbbt/blocks.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/utils/interner.hpp"

namespace mbp::sbbt
{

/** Writable block columns, one entry per branch (sbbt::Block's mirror). */
struct BlockColumns
{
    std::uint64_t *target;
    std::uint64_t *instr;
    std::uint8_t *meta;
    std::uint32_t *site;
};

/** An SbbtReader plus the site table its branches are interned into. */
class ColumnDecoder
{
  public:
    ColumnDecoder(const std::string &path, const ReaderOptions &options)
        : reader_(path, options)
    {}

    /** @return The reader (header, counters, errors). */
    const SbbtReader &reader() const { return reader_; }

    /**
     * Decodes up to @p max (at most kBlockBranches) branches into @p out
     * and interns their sites (SbbtReader::readColumns semantics for
     * @p limit and errors).
     *
     * @return Rows filled; fewer than @p max means the run stopped — past
     *         the limit, at the end of the trace or on an error (error()).
     */
    std::size_t
    decode(const BlockColumns &out, std::size_t max, std::uint64_t limit)
    {
        assert(max <= kBlockBranches);
        const std::size_t n = reader_.readColumns(
            {ips_.data(), out.target, out.instr, out.meta}, max, limit);
        if (!sites_.intern(ips_.data(), out.site, n)) {
            error_ = "trace has 2^32-1 or more distinct branch sites; "
                     "site index would overflow";
            return 0;
        }
        return n;
    }

    /** @return The first error: the reader's, or a site-table overflow. */
    const std::string &
    error() const
    {
        return error_.empty() ? reader_.error() : error_;
    }

    /** @return The site table (site id -> branch address). */
    const util::Interner &sites() const { return sites_; }

  private:
    SbbtReader reader_;
    util::Interner sites_;
    std::array<std::uint64_t, kBlockBranches> ips_; // interned, not kept
    std::string error_;
};

} // namespace mbp::sbbt

#endif // MBP_SBBT_COLUMN_DECODER_HPP
