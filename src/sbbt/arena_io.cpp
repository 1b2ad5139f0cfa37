/**
 * @file
 * MemTrace <-> SBBT-A file I/O: writeArena() serialization and the
 * zero-copy mapFile() loader (mbp/sbbt/arena_file.hpp has the layout).
 */
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "mbp/sbbt/arena_file.hpp"
#include "mbp/sbbt/mem_trace.hpp"

namespace mbp::sbbt
{

/** Read-only mmap of a whole file; unmapped on destruction. */
class MemTrace::ArenaMapping
{
  public:
    ArenaMapping(void *addr, std::size_t length)
        : addr_(addr), length_(length)
    {}

    ~ArenaMapping()
    {
        if (addr_ != nullptr)
            ::munmap(addr_, length_);
    }

    ArenaMapping(const ArenaMapping &) = delete;
    ArenaMapping &operator=(const ArenaMapping &) = delete;

    const std::uint8_t *
    bytes() const
    {
        return static_cast<const std::uint8_t *>(addr_);
    }

    std::size_t
    length() const
    {
        return length_;
    }

  private:
    void *addr_;
    std::size_t length_;
};

namespace
{

constexpr std::uint64_t
alignUp(std::uint64_t offset)
{
    return (offset + (kArenaAlign - 1)) & ~std::uint64_t(kArenaAlign - 1);
}

bool
fail(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

/**
 * The verify pass of a mapped sidecar: the payload checksum, and in the
 * same pass, chunk by chunk while the bytes are in cache, a check that
 * every site id is below num_sites — the one column whose values index
 * another, so a kernel reading site_ips[site[i]] stays in bounds.
 *
 * @return The payload checksum; @p sites_ok is cleared on a bad id.
 */
std::uint64_t
verifyPayload(const std::uint8_t *bytes, const ArenaHeader &header,
              bool &sites_ok)
{
    const ArenaHeader::Column &col = header.columns[kColSiteIndex];
    const std::uint8_t *sites = bytes + col.offset;
    const std::uint8_t *end = bytes + header.file_bytes;
    ContentHasher hasher;
    hasher.update(bytes + kArenaHeaderSize,
                  static_cast<std::size_t>(sites - bytes) - kArenaHeaderSize);
    constexpr std::size_t kChunk = 4096; // ids per chunk: 16 KiB, in L1d
    std::uint32_t max_id = 0;
    for (std::uint64_t done = 0; done < col.count; done += kChunk) {
        const std::size_t ids =
            static_cast<std::size_t>(std::min<std::uint64_t>(
                kChunk, col.count - done));
        const auto *chunk = reinterpret_cast<const std::uint32_t *>(
            sites + done * sizeof(std::uint32_t));
        hasher.update(chunk, ids * sizeof(std::uint32_t));
        for (std::size_t i = 0; i < ids; ++i)
            max_id = std::max(max_id, chunk[i]);
    }
    sites_ok = col.count == 0 || max_id < header.num_sites;
    const std::uint8_t *rest = sites + col.count * sizeof(std::uint32_t);
    hasher.update(rest, static_cast<std::size_t>(end - rest));
    return hasher.digest();
}

/** One column's source bytes during a writeArena() pass. */
struct ColumnBytes
{
    const void *data;
    std::uint64_t count;      //!< elements
    std::uint64_t elem_bytes; //!< bytes per element

    std::uint64_t
    bytes() const
    {
        return count * elem_bytes;
    }
};

} // namespace

bool
MemTrace::writeArena(const std::string &path, std::uint64_t source_hash,
                     std::string *error) const
{
    // Column payloads are raw little-endian element bytes; the writer
    // dumps native arrays, so a big-endian host must not produce (or
    // borrow) them. The header codec itself is endian-correct, so this
    // is the only guard the format needs.
    if constexpr (std::endian::native != std::endian::little)
        return fail(error, "SBBT-A requires a little-endian host");
    const std::uint64_t n = size_;
    const ColumnBytes columns[kArenaColumnCount] = {
        {targets_p_, n, 8},
        {instr_nums_p_, n, 8},
        {meta_p_, n, 1},
        {site_index_p_, n, 4},
        {first_seen_p_, (n + 63) / 64, 8},
        {site_ips_p_, num_sites_, 8},
        {site_cond_occ_p_, num_sites_, 8},
    };

    ArenaHeader header;
    header.trace = header_;
    // The arena is the authoritative branch count: a trace whose SBBT
    // header over- or under-promised still round-trips exactly.
    header.trace.branch_count = n;
    header.num_sites = num_sites_;
    header.decompressed_bytes = decompressed_bytes_;
    header.source_hash = source_hash;

    std::uint64_t offset = kArenaHeaderSize;
    for (std::size_t c = 0; c < kArenaColumnCount; ++c) {
        offset = alignUp(offset);
        header.columns[c].offset = offset;
        header.columns[c].count = columns[c].count;
        offset += columns[c].bytes();
    }
    header.file_bytes = offset;

    // Payload checksum over the exact on-disk byte stream: alignment
    // padding (zeros) plus each column's raw little-endian bytes.
    static const std::uint8_t zeros[kArenaAlign] = {};
    ContentHasher payload_hash;
    std::uint64_t hashed_to = kArenaHeaderSize;
    for (std::size_t c = 0; c < kArenaColumnCount; ++c) {
        payload_hash.update(zeros, header.columns[c].offset - hashed_to);
        payload_hash.update(columns[c].data, columns[c].bytes());
        hashed_to = header.columns[c].offset + columns[c].bytes();
    }
    header.payload_checksum = payload_hash.digest();

    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (file == nullptr)
        return fail(error, "cannot open '" + path + "' for writing");
    const auto head = encodeArenaHeader(header);
    bool ok = std::fwrite(head.data(), 1, head.size(), file) == head.size();
    std::uint64_t written_to = kArenaHeaderSize;
    for (std::size_t c = 0; ok && c < kArenaColumnCount; ++c) {
        const std::uint64_t pad = header.columns[c].offset - written_to;
        ok = std::fwrite(zeros, 1, pad, file) == pad;
        const std::uint64_t bytes = columns[c].bytes();
        if (ok && bytes != 0)
            ok = std::fwrite(columns[c].data, 1, bytes, file) == bytes;
        written_to = header.columns[c].offset + bytes;
    }
    if (std::fclose(file) != 0)
        ok = false;
    if (!ok) {
        std::remove(path.c_str());
        return fail(error, "short write while serializing '" + path + "'");
    }
    return true;
}

std::shared_ptr<const MemTrace>
MemTrace::mapFile(const std::string &path, std::string *error,
                  std::uint64_t *source_hash)
{
    const auto start = std::chrono::steady_clock::now();
    if (error != nullptr)
        error->clear();
    if constexpr (std::endian::native != std::endian::little) {
        fail(error, "SBBT-A requires a little-endian host");
        return nullptr;
    }

    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        fail(error, "cannot open '" + path + "': " +
                        std::string(std::strerror(errno)));
        return nullptr;
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        fail(error, "cannot stat '" + path + "'");
        return nullptr;
    }
    const auto length = static_cast<std::size_t>(st.st_size);
    if (length < kArenaHeaderSize) {
        ::close(fd);
        fail(error, "SBBT-A file truncated inside the header");
        return nullptr;
    }
    void *addr = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps its own reference to the file
    if (addr == MAP_FAILED) {
        fail(error, "cannot mmap '" + path + "': " +
                        std::string(std::strerror(errno)));
        return nullptr;
    }
    auto mapping = std::make_shared<const ArenaMapping>(addr, length);
    const std::uint8_t *bytes = mapping->bytes();

    ArenaHeader header;
    if (!decodeArenaHeader(bytes, length, length, header, error))
        return nullptr;
    bool sites_ok = true;
    if (verifyPayload(bytes, header, sites_ok) != header.payload_checksum) {
        fail(error, "SBBT-A payload checksum mismatch (corrupt sidecar)");
        return nullptr;
    }
    if (!sites_ok) {
        fail(error, "SBBT-A site id out of range (corrupt sidecar)");
        return nullptr;
    }

    std::shared_ptr<MemTrace> trace(new MemTrace());
    trace->header_ = header.trace;
    trace->size_ = header.trace.branch_count;
    trace->num_sites_ = header.num_sites;
    trace->decompressed_bytes_ = header.decompressed_bytes;
    trace->mapping_ = mapping;
    trace->mapped_bytes_ = header.file_bytes;
    auto column = [&](std::size_t c) {
        return bytes + header.columns[c].offset;
    };
    // decodeArenaHeader bounds-checked every range and kArenaAlign-checked
    // every offset, so these reinterpretations are aligned and in-bounds.
    trace->targets_p_ =
        reinterpret_cast<const std::uint64_t *>(column(kColTargets));
    trace->instr_nums_p_ =
        reinterpret_cast<const std::uint64_t *>(column(kColInstrNums));
    trace->meta_p_ = column(kColMeta);
    trace->site_index_p_ =
        reinterpret_cast<const std::uint32_t *>(column(kColSiteIndex));
    trace->first_seen_p_ =
        reinterpret_cast<const std::uint64_t *>(column(kColFirstSeen));
    trace->site_ips_p_ =
        reinterpret_cast<const std::uint64_t *>(column(kColSiteIps));
    trace->site_cond_occ_p_ =
        reinterpret_cast<const std::uint64_t *>(column(kColSiteCondOcc));
    if (source_hash != nullptr)
        *source_hash = header.source_hash;
    trace->load_seconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return trace;
}

} // namespace mbp::sbbt
