/**
 * @file
 * SbbtReader implementation.
 *
 * The reader pulls the trace in blocks: one InStream::read fills raw_
 * with block_packets * kPacketSize bytes, and next() or readColumns()
 * decode packets from it only as they are asked for, so nothing past the
 * point a consumer stops at is ever decoded. A ragged tail found while
 * refilling is parked in pending_error_ and an invalid packet fails when
 * it is reached, so every packet preceding an error is still delivered
 * first, matching the packet-at-a-time semantics bit for bit.
 */
#include "mbp/sbbt/reader.hpp"

#include <algorithm>

#include "mbp/compress/prefetch.hpp"

namespace mbp::sbbt
{

SbbtReader::SbbtReader(const std::string &path, const ReaderOptions &options)
{
    auto source = compress::openSource(path);
    if (!source) {
        error_ = "cannot open trace file: " + path;
        done_ = true;
        return;
    }
    if (options.prefetch) {
        auto prefetch = std::make_unique<compress::PrefetchSource>(
            std::move(source), options.prefetch_block_bytes);
        prefetch_ = prefetch.get();
        source = std::move(prefetch);
    }
    input_ = std::make_unique<compress::InStream>(std::move(source));
    initBlocks(options);
    readHeader();
}

SbbtReader::SbbtReader(std::unique_ptr<compress::InStream> input,
                       const ReaderOptions &options)
    : input_(std::move(input))
{
    if (!input_) {
        error_ = "null input stream";
        done_ = true;
        return;
    }
    initBlocks(options);
    readHeader();
}

void
SbbtReader::initBlocks(const ReaderOptions &options)
{
    std::size_t block_packets = std::max<std::size_t>(options.block_packets, 1);
    raw_.resize(block_packets * kPacketSize);
}

double
SbbtReader::prefetchStallSeconds() const
{
    return prefetch_ ? prefetch_->stallSeconds() : 0.0;
}

void
SbbtReader::readHeader()
{
    std::uint8_t bytes[kHeaderSize];
    if (!input_->readExact(bytes, kHeaderSize)) {
        error_ = "truncated SBBT header";
        done_ = true;
        return;
    }
    bytes_read_ += kHeaderSize;
    if (!decodeHeader(bytes, header_, &error_))
        done_ = true;
}

bool
SbbtReader::refill()
{
    if (done_)
        return false;
    if (!pending_error_.empty()) {
        error_ = std::move(pending_error_);
        pending_error_.clear();
        done_ = true;
        return false;
    }
    std::size_t n = input_->read(raw_.data(), raw_.size());
    bytes_read_ += n;
    if (n == 0) {
        done_ = true;
        if (input_->failed())
            error_ = "corrupt compressed stream";
        else if (branches_read_ != header_.branch_count)
            error_ = "trace ended early: header promises " +
                     std::to_string(header_.branch_count) + " branches, got " +
                     std::to_string(branches_read_);
        return false;
    }
    // A short read means the stream ended: InStream::read only returns less
    // than requested at end of input. A ragged tail is a truncated packet;
    // an invalid packet ahead of it fails first, when it is decoded.
    raw_pos_ = 0;
    raw_fill_ = n / kPacketSize;
    if (n % kPacketSize != 0)
        pending_error_ = "truncated SBBT packet";
    if (raw_fill_ == 0) {
        error_ = std::move(pending_error_);
        pending_error_.clear();
        done_ = true;
        return false;
    }
    return true;
}

std::size_t
SbbtReader::readColumns(const PacketColumns &out, std::size_t max,
                        std::uint64_t limit)
{
    std::size_t stored = 0;
    while (stored < max) {
        if (raw_pos_ == raw_fill_ && !refill())
            break;
        const std::size_t count = std::min(max - stored, raw_fill_ - raw_pos_);
        const std::uint8_t *bytes = raw_.data() + raw_pos_ * kPacketSize;
        // Local copies: a store through the u8 meta column may alias
        // anything, so members and `out` would be reloaded every packet.
        std::uint64_t *ip = out.ip + stored;
        std::uint64_t *target = out.target + stored;
        std::uint64_t *instrs = out.instr + stored;
        std::uint8_t *meta = out.meta + stored;
        std::uint64_t instr = instr_number_;
        std::size_t read = 0; // valid packets consumed, stored or not
        std::size_t kept = count;
        for (; read < count; ++read) {
            const PacketWords packet =
                PacketWords::load(bytes + read * kPacketSize);
            const PacketFault fault = packet.fault();
            if (fault != PacketFault::kNone) [[unlikely]] {
                error_ = packetFaultMessage(fault);
                done_ = true;
                kept = read;
                break;
            }
            instr += packet.gap() + 1;
            if (instr > limit) [[unlikely]] {
                kept = read;
                ++read; // read, never stored
                break;
            }
            ip[read] = packet.ip();
            target[read] = packet.target();
            instrs[read] = instr;
            meta[read] = packet.meta();
        }
        raw_pos_ += read;
        branches_read_ += read;
        instr_number_ = instr;
        stored += kept;
        if (kept < count)
            break;
    }
    return stored;
}

} // namespace mbp::sbbt
