/**
 * @file
 * BlockSource: arena slicing and the streaming block decoder.
 */
#include "mbp/sbbt/blocks.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/utils/flat_hash_map.hpp"

namespace mbp::sbbt
{

/** Stream-mode state: the reader, one block of columns, the site table. */
struct BlockSource::Decoder
{
    Decoder(const std::string &path, const ReaderOptions &options)
        : reader(path, options)
    {
    }

    SbbtReader reader;
    // Site ids are assigned in first-seen order; the map stores id + 1 so
    // FlatHashMap's default-constructed 0 means "not seen yet".
    util::FlatHashMap<std::uint32_t> site_of;
    std::vector<std::uint64_t> site_ips;
    std::array<std::uint64_t, kBlockBranches> ip;
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
    const SbbtReader &reader = decoder_->reader;
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
    out = Block{t.ipData() + pos_,        t.targetData() + pos_,
                t.instrNumData() + pos_,  t.metaData() + pos_,
                t.siteIndexData() + pos_, end - pos_};
    branches_ += end - pos_;
    pos_ = end;
    return true;
}

bool
BlockSource::nextDecoded(Block &out)
{
    constexpr std::size_t kMaxSites =
        std::numeric_limits<std::uint32_t>::max();
    Decoder &d = *decoder_;
    PacketData packet;
    std::size_t n = 0;
    while (n < kBlockBranches) {
        if (!d.reader.next(packet)) {
            done_ = true;
            error_ = d.reader.error();
            exhausted_ = d.reader.exhausted();
            break;
        }
        const std::uint64_t instr = d.reader.instrNumber();
        last_instr_ = instr;
        if (instr > limit_) {
            done_ = true; // read, never delivered
            break;
        }
        const std::uint64_t ip = packet.branch.ip();
        std::uint32_t &slot = d.site_of[ip];
        if (slot == 0) {
            if (d.site_ips.size() == kMaxSites) {
                error_ = "trace has 2^32-1 or more distinct branch sites; "
                         "site index would overflow";
                done_ = true;
                return false;
            }
            d.site_ips.push_back(ip);
            slot = static_cast<std::uint32_t>(d.site_ips.size());
        }
        d.ip[n] = ip;
        d.target[n] = packet.branch.target();
        d.instr[n] = instr;
        d.meta[n] = packMeta(packet.branch);
        d.site[n] = slot - 1;
        ++n;
    }
    branches_ += n;
    site_ips_ = d.site_ips.data();
    num_sites_ = static_cast<std::uint32_t>(d.site_ips.size());
    out = Block{d.ip.data(),   d.target.data(), d.instr.data(),
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
    return decoder_ != nullptr ? decoder_->reader.decompressedBytes() : 0;
}

double
BlockSource::prefetchStallSeconds() const
{
    return decoder_ != nullptr ? decoder_->reader.prefetchStallSeconds()
                               : 0.0;
}

} // namespace mbp::sbbt
