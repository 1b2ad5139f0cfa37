/**
 * @file
 * BlockSource: arena slicing and the streaming block decoder.
 */
#include "mbp/sbbt/blocks.hpp"

#include <algorithm>
#include <array>

#include "column_decoder.hpp"
#include "mbp/sbbt/mem_trace.hpp"

namespace mbp::sbbt
{

/** Stream-mode state: the column decoder and one reused block. */
struct BlockSource::Decoder
{
    Decoder(const std::string &path, const ReaderOptions &options)
        : columns(path, options)
    {
    }

    ColumnDecoder columns;
    std::array<std::uint64_t, kBlockBranches> target;
    std::array<std::uint64_t, kBlockBranches> instr;
    std::array<std::uint8_t, kBlockBranches> meta;
    std::array<std::uint32_t, kBlockBranches> site;
};

BlockSource::BlockSource(std::shared_ptr<const MemTrace> arena,
                         std::uint64_t limit)
    : limit_(limit), arena_(std::move(arena))
{
    if (arena_ == nullptr) {
        error_ = "null in-memory trace";
        done_ = true;
        return;
    }
    opened_ = true;
    header_ = arena_->header();
    site_ips_ = arena_->siteIpData();
    num_sites_ = arena_->numSites();
    const std::size_t total = arena_->size();
    const std::uint64_t *instr = arena_->instrNumData();
    stop_ = static_cast<std::size_t>(
        std::upper_bound(instr, instr + total, limit_) - instr);
    last_instr_ = stop_ < total ? instr[stop_]
                                : (total > 0 ? instr[total - 1] : 0);
}

BlockSource::BlockSource(const std::string &path,
                         const ReaderOptions &options, std::uint64_t limit)
    : limit_(limit), decoder_(std::make_unique<Decoder>(path, options))
{
    const SbbtReader &reader = decoder_->columns.reader();
    if (!reader.ok()) {
        error_ = reader.error();
        done_ = true;
        return;
    }
    opened_ = true;
    header_ = reader.header();
}

BlockSource::~BlockSource() = default;

bool
BlockSource::next(Block &out)
{
    if (done_)
        return false;
    return decoder_ != nullptr ? nextDecoded(out) : nextSlice(out);
}

bool
BlockSource::nextSlice(Block &out)
{
    if (pos_ == stop_) {
        done_ = true;
        exhausted_ = stop_ == arena_->size();
        return false;
    }
    const MemTrace &t = *arena_;
    const std::size_t end = std::min(pos_ + kBlockBranches, stop_);
    out = Block{site_ips_,               t.targetData() + pos_,
                t.instrNumData() + pos_, t.metaData() + pos_,
                t.siteIndexData() + pos_, end - pos_};
    branches_ += end - pos_;
    pos_ = end;
    return true;
}

bool
BlockSource::nextDecoded(Block &out)
{
    Decoder &d = *decoder_;
    const std::size_t n = d.columns.decode(
        {d.target.data(), d.instr.data(), d.meta.data(), d.site.data()},
        kBlockBranches, limit_);
    const SbbtReader &reader = d.columns.reader();
    last_instr_ = reader.instrNumber();
    if (n < kBlockBranches) { // past the limit, end of trace or error
        done_ = true;
        error_ = d.columns.error();
        exhausted_ = reader.exhausted();
    }
    branches_ += n;
    site_ips_ = d.columns.sites().keys().data();
    num_sites_ = static_cast<std::uint32_t>(d.columns.sites().size());
    out = Block{site_ips_,     d.target.data(), d.instr.data(),
                d.meta.data(), d.site.data(),   n};
    return n > 0;
}

std::uint64_t
BlockSource::staticSites() const
{
    // A decoder interns delivered branches only.
    return arena_ != nullptr ? arena_->staticSitesInPrefix(pos_)
                             : num_sites_;
}

const std::uint64_t *
BlockSource::siteCondOccurrences() const
{
    return arena_ != nullptr && stop_ == arena_->size()
               ? arena_->siteCondOccData()
               : nullptr;
}

std::uint64_t
BlockSource::decompressedBytes() const
{
    if (arena_ != nullptr)
        return arena_->decompressedBytes();
    return decoder_ != nullptr
               ? decoder_->columns.reader().decompressedBytes()
               : 0;
}

double
BlockSource::prefetchStallSeconds() const
{
    return decoder_ != nullptr
               ? decoder_->columns.reader().prefetchStallSeconds()
               : 0.0;
}

} // namespace mbp::sbbt
