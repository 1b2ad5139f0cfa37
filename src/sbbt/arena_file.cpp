/**
 * @file
 * SBBT-A header codec and content-hash implementation.
 */
#include "mbp/sbbt/arena_file.hpp"

#include <bit>
#include <cstdio>
#include <cstring>

#include "mbp/utils/hash.hpp"

namespace mbp::sbbt
{

namespace
{

void
encode64(std::uint8_t *p, std::uint64_t v)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, &v, sizeof v);
    } else {
        for (int i = 0; i < 8; ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

void
encode32(std::uint8_t *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
decode64(const std::uint8_t *p)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::uint64_t v;
        std::memcpy(&v, p, sizeof v);
        return v;
    } else {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t(p[i]) << (8 * i);
        return v;
    }
}

std::uint32_t
decode32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t(p[i]) << (8 * i);
    return v;
}

// Field offsets within the serialized header (see arena_file.hpp).
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffHeaderBytes = 12;
constexpr std::size_t kOffSbbtVersion = 16;
constexpr std::size_t kOffInstrCount = 24;
constexpr std::size_t kOffBranchCount = 32;
constexpr std::size_t kOffNumSites = 40;
constexpr std::size_t kOffDecompBytes = 48;
constexpr std::size_t kOffSourceHash = 56;
constexpr std::size_t kOffFileBytes = 64;
constexpr std::size_t kOffPayloadChecksum = 72;
constexpr std::size_t kOffHeaderChecksum = 80;
constexpr std::size_t kOffColumns = 88;

/** Element size of column @p c in bytes. */
constexpr std::uint64_t
columnElemBytes(std::size_t c)
{
    switch (c) {
    case kColMeta:
        return 1;
    case kColSiteIndex:
        return 4;
    default:
        return 8;
    }
}

bool
fail(std::string *error, const char *message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

} // namespace

void
ContentHasher::update(const void *data, std::size_t size)
{
    if (size == 0)
        return; // also keeps a null data pointer legal for empty columns
    const auto *p = static_cast<const std::uint8_t *>(data);
    total_ += size;
    if (buffered_ != 0) {
        const std::size_t take =
            size < sizeof buffer_ - buffered_ ? size
                                              : sizeof buffer_ - buffered_;
        std::memcpy(buffer_ + buffered_, p, take);
        buffered_ += take;
        p += take;
        size -= take;
        if (buffered_ < sizeof buffer_)
            return;
        for (int lane = 0; lane < 4; ++lane)
            lanes_[lane] =
                mix64(lanes_[lane] ^ decode64(buffer_ + 8 * lane));
        buffered_ = 0;
    }
    while (size >= sizeof buffer_) {
        // One mix64 per lane per 32-byte block: the four multiply chains
        // are independent, so the hash runs at copy-adjacent speed — this
        // is the pass every warm map pays over the whole payload.
        for (int lane = 0; lane < 4; ++lane)
            lanes_[lane] = mix64(lanes_[lane] ^ decode64(p + 8 * lane));
        p += sizeof buffer_;
        size -= sizeof buffer_;
    }
    if (size != 0) {
        std::memcpy(buffer_, p, size);
        buffered_ = size;
    }
}

std::uint64_t
ContentHasher::digest() const
{
    std::uint64_t lanes[4];
    std::memcpy(lanes, lanes_, sizeof lanes);
    if (buffered_ != 0) {
        // Zero-pad the tail block; the length armor below disambiguates
        // a short tail from explicit trailing zeros.
        std::uint8_t tail[32] = {};
        std::memcpy(tail, buffer_, buffered_);
        for (int lane = 0; lane < 4; ++lane)
            lanes[lane] = mix64(lanes[lane] ^ decode64(tail + 8 * lane));
    }
    std::uint64_t h = mix64(total_ ^ 0x9e3779b97f4a7c15ull);
    for (int lane = 0; lane < 4; ++lane)
        h = mix64(h ^ lanes[lane]);
    return h;
}

std::uint64_t
contentHash64(const void *data, std::size_t size)
{
    ContentHasher hasher;
    hasher.update(data, size);
    return hasher.digest();
}

bool
fileContentHash(const std::string &path, std::uint64_t &out,
                std::string *error)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        return fail(error, "cannot open file for hashing");
    ContentHasher hasher;
    std::uint8_t buffer[1 << 16];
    std::size_t got;
    while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0)
        hasher.update(buffer, got);
    const bool ok = std::ferror(file) == 0;
    std::fclose(file);
    if (!ok)
        return fail(error, "read error while hashing file");
    out = hasher.digest();
    return true;
}

std::array<std::uint8_t, kArenaHeaderSize>
encodeArenaHeader(const ArenaHeader &header)
{
    std::array<std::uint8_t, kArenaHeaderSize> out{};
    std::memcpy(out.data(), kArenaMagic, sizeof kArenaMagic);
    encode32(out.data() + kOffVersion, header.version);
    encode32(out.data() + kOffHeaderBytes,
             static_cast<std::uint32_t>(kArenaHeaderSize));
    out[kOffSbbtVersion + 0] = header.trace.major;
    out[kOffSbbtVersion + 1] = header.trace.minor;
    out[kOffSbbtVersion + 2] = header.trace.patch;
    encode64(out.data() + kOffInstrCount, header.trace.instruction_count);
    encode64(out.data() + kOffBranchCount, header.trace.branch_count);
    encode32(out.data() + kOffNumSites, header.num_sites);
    encode64(out.data() + kOffDecompBytes, header.decompressed_bytes);
    encode64(out.data() + kOffSourceHash, header.source_hash);
    encode64(out.data() + kOffFileBytes, header.file_bytes);
    encode64(out.data() + kOffPayloadChecksum, header.payload_checksum);
    for (std::size_t c = 0; c < kArenaColumnCount; ++c) {
        encode64(out.data() + kOffColumns + 16 * c,
                 header.columns[c].offset);
        encode64(out.data() + kOffColumns + 16 * c + 8,
                 header.columns[c].count);
    }
    // The header checksum covers every header byte with its own field
    // zeroed (which it is — out{} zero-initializes and we write it last).
    encode64(out.data() + kOffHeaderChecksum,
             contentHash64(out.data(), kArenaHeaderSize));
    return out;
}

bool
decodeArenaHeader(const std::uint8_t *bytes, std::size_t available,
                  std::uint64_t file_bytes, ArenaHeader &out,
                  std::string *error)
{
    if (available < kArenaHeaderSize)
        return fail(error, "SBBT-A file truncated inside the header");
    if (std::memcmp(bytes, kArenaMagic, sizeof kArenaMagic) != 0)
        return fail(error, "bad SBBT-A magic");
    out.version = decode32(bytes + kOffVersion);
    if (out.version != kArenaFormatVersion)
        return fail(error, "unsupported SBBT-A format version");
    if (decode32(bytes + kOffHeaderBytes) != kArenaHeaderSize)
        return fail(error, "unexpected SBBT-A header size");
    const std::uint64_t stored_checksum =
        decode64(bytes + kOffHeaderChecksum);
    {
        std::uint8_t scratch[kArenaHeaderSize];
        std::memcpy(scratch, bytes, kArenaHeaderSize);
        std::memset(scratch + kOffHeaderChecksum, 0, 8);
        if (contentHash64(scratch, kArenaHeaderSize) != stored_checksum)
            return fail(error, "SBBT-A header checksum mismatch");
    }
    out.trace.major = bytes[kOffSbbtVersion + 0];
    out.trace.minor = bytes[kOffSbbtVersion + 1];
    out.trace.patch = bytes[kOffSbbtVersion + 2];
    out.trace.instruction_count = decode64(bytes + kOffInstrCount);
    out.trace.branch_count = decode64(bytes + kOffBranchCount);
    out.num_sites = decode32(bytes + kOffNumSites);
    out.decompressed_bytes = decode64(bytes + kOffDecompBytes);
    out.source_hash = decode64(bytes + kOffSourceHash);
    out.file_bytes = decode64(bytes + kOffFileBytes);
    out.payload_checksum = decode64(bytes + kOffPayloadChecksum);
    if (out.file_bytes < kArenaHeaderSize)
        return fail(error, "SBBT-A header commits to an impossible size");
    if (file_bytes != 0 && out.file_bytes != file_bytes)
        return fail(error,
                    "SBBT-A file size does not match its header "
                    "(truncated or over-long file)");
    if (out.num_sites > out.trace.branch_count)
        return fail(error, "SBBT-A header has more sites than branches");

    const std::uint64_t n = out.trace.branch_count;
    const std::uint64_t expected_counts[kArenaColumnCount] = {
        n, n, n, n, (n + 63) / 64, out.num_sites, out.num_sites};
    for (std::size_t c = 0; c < kArenaColumnCount; ++c) {
        ArenaHeader::Column &col = out.columns[c];
        col.offset = decode64(bytes + kOffColumns + 16 * c);
        col.count = decode64(bytes + kOffColumns + 16 * c + 8);
        if (col.count != expected_counts[c])
            return fail(error,
                        "SBBT-A column count disagrees with the header");
        if (col.offset % kArenaAlign != 0)
            return fail(error, "SBBT-A column offset is misaligned");
        const std::uint64_t bytes_needed = col.count * columnElemBytes(c);
        // offset may legally equal file_bytes only for an empty column.
        if (col.offset < kArenaHeaderSize ||
            col.offset > out.file_bytes ||
            bytes_needed > out.file_bytes - col.offset)
            return fail(error, "SBBT-A column range out of bounds");
    }
    return true;
}

bool
readArenaHeader(const std::string &path, ArenaHeader &out,
                std::string *error)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        return fail(error, "cannot open SBBT-A file");
    std::uint8_t head[kArenaHeaderSize];
    const std::size_t got = std::fread(head, 1, sizeof head, file);
    std::fclose(file);
    return decodeArenaHeader(head, got, 0, out, error);
}

} // namespace mbp::sbbt
