/**
 * @file
 * SBBT-A v2: the mmap-native on-disk serialization of sbbt::MemTrace.
 *
 * An SBBT trace is optimized for *size* (compressed 128-bit packets, paper
 * Table I); the decode-once arena (mbp/sbbt/mem_trace.hpp) is optimized
 * for *replay* but had to be rebuilt from the packets by every process.
 * SBBT-A is the third point on that size-versus-read-speed curve: a file
 * whose payload *is* the arena's struct-of-arrays columns, laid out
 * 64-byte-aligned, so a consumer maps it read-only and borrows the
 * columns with zero copies and zero decode — load cost is O(page-fault),
 * paid lazily as the simulation touches branches.
 *
 * Layout (all integers little-endian):
 *
 *   offset   size  field
 *        0      8  magic "SBBT-A\n\0"
 *        8      4  u32 format version (kArenaFormatVersion)
 *       12      4  u32 header bytes (kArenaHeaderSize; columns start here)
 *       16      3  u8 source SBBT version (major, minor, patch)
 *       19      5  zero padding
 *       24      8  u64 instruction_count   (source SBBT header)
 *       32      8  u64 branch_count        (source SBBT header)
 *       40      4  u32 num_sites           (distinct branch IPs)
 *       44      4  zero padding
 *       48      8  u64 decompressed_bytes  (SBBT bytes of the one decode)
 *       56      8  u64 source_hash         (content hash of the source
 *                                           trace file; 0 when unknown)
 *       64      8  u64 file_bytes          (total size of this file)
 *       72      8  u64 payload_checksum    (contentHash64 of bytes
 *                                           [header_bytes, file_bytes))
 *       80      8  u64 header_checksum     (contentHash64 of bytes
 *                                           [0, header_bytes) with this
 *                                           field zeroed)
 *       88    112  column table: 7 x { u64 offset, u64 element count }
 *      200     56  zero padding
 *      256      —  column payload, each column 64-byte-aligned
 *
 * Column order (fixed; element types match the MemTrace accessors):
 *   0 targets        u64 x branch_count
 *   1 instr_nums     u64 x branch_count    (cumulative, 1-based)
 *   2 meta           u8  x branch_count    (bits 0-3 opcode, bit 4 taken)
 *   3 site_index     u32 x branch_count    (dense first-seen site ids,
 *                                           each < num_sites)
 *   4 first_seen     u64 x ceil(branch_count / 64)   (new-site bitmap)
 *   5 site_ips       u64 x num_sites       (site id -> branch address)
 *   6 site_cond_occ  u64 x num_sites
 *
 * A branch's address is stored once, in site_ips: branch i's address is
 * site_ips[site_index[i]]. (v1 also stored it per branch, in an ips
 * column ahead of targets; v1 files fail the version check.)
 *
 * Versioning policy: the major format version is this single u32. Any
 * layout change — new columns, reordered columns, different checksum —
 * bumps it, and readers reject files whose version they do not know
 * (there is no minor/patch tier: a sidecar is a cache artifact, so the
 * correct response to any mismatch is "re-decode and rewrite", never
 * "best-effort parse"). Corrupt, truncated or foreign files must fail
 * MemTrace::mapFile() with an error, never crash: the header checksum
 * guards the metadata, the column table is bounds-checked against
 * file_bytes before any column pointer is formed, and the payload
 * checksum guards the column bytes themselves. The site ids are the
 * one column whose values index another, so the verify pass also checks
 * every one of them against num_sites before a kernel can use it.
 */
#ifndef MBP_SBBT_ARENA_FILE_HPP
#define MBP_SBBT_ARENA_FILE_HPP

#include <array>
#include <cstdint>
#include <string>

#include "mbp/sbbt/format.hpp"

namespace mbp::sbbt
{

/** The 8 magic bytes that start every SBBT-A file. */
inline constexpr char kArenaMagic[8] = {'S', 'B', 'B', 'T',
                                        '-', 'A', '\n', '\0'};
/** Current (and only) SBBT-A format version. */
inline constexpr std::uint32_t kArenaFormatVersion = 2;
/** Serialized header size; the column payload starts here. */
inline constexpr std::size_t kArenaHeaderSize = 256;
/** Alignment of every column's file offset (and so of its mapped
 *  address, since mmap returns page-aligned bases). */
inline constexpr std::size_t kArenaAlign = 64;
/** Number of columns in the fixed column table. */
inline constexpr std::size_t kArenaColumnCount = 7;

/** Column-table indices, in payload order. */
enum ArenaColumn : std::size_t
{
    kColTargets = 0,
    kColInstrNums = 1,
    kColMeta = 2,
    kColSiteIndex = 3,
    kColFirstSeen = 4,
    kColSiteIps = 5,
    kColSiteCondOcc = 6,
};

/** Decoded SBBT-A header. */
struct ArenaHeader
{
    std::uint32_t version = kArenaFormatVersion;
    /** The source trace's SBBT header (version + counts). */
    Header trace;
    std::uint32_t num_sites = 0;
    std::uint64_t decompressed_bytes = 0;
    /** contentHash64 of the *source trace file* bytes; 0 = unknown. */
    std::uint64_t source_hash = 0;
    /** Total file size the header commits to. */
    std::uint64_t file_bytes = 0;
    /** contentHash64 of bytes [kArenaHeaderSize, file_bytes). */
    std::uint64_t payload_checksum = 0;

    struct Column
    {
        std::uint64_t offset = 0; //!< from the start of the file
        std::uint64_t count = 0;  //!< elements, not bytes
    };
    std::array<Column, kArenaColumnCount> columns;
};

/** Serializes @p header into its kArenaHeaderSize-byte representation,
 *  computing and embedding the header checksum. */
std::array<std::uint8_t, kArenaHeaderSize>
encodeArenaHeader(const ArenaHeader &header);

/**
 * Parses and validates an SBBT-A header.
 *
 * Checks, in order: enough bytes for a header, magic, format version,
 * header size, header checksum, file size commitment (when
 * @p file_bytes is nonzero it must equal the header's), and for every
 * column a 64-byte-aligned offset with its byte range inside
 * [kArenaHeaderSize, file_bytes) and an element count consistent with
 * branch_count / num_sites. The payload checksum is NOT verified here —
 * the caller owns that pass (it needs the whole payload mapped).
 *
 * Once the magic matches, @p out.version holds the file's format version
 * even when that version is rejected, so tooling can tell an outdated
 * sidecar from a corrupt one.
 *
 * @param bytes      At least @p available bytes of the file's head.
 * @param available  Bytes readable at @p bytes.
 * @param file_bytes Actual file size, or 0 to skip the size cross-check.
 * @param out        Receives the decoded header.
 * @param error      Receives the failure description (optional).
 * @return Whether the header is valid.
 */
bool decodeArenaHeader(const std::uint8_t *bytes, std::size_t available,
                       std::uint64_t file_bytes, ArenaHeader &out,
                       std::string *error = nullptr);

/**
 * Incremental 64-bit content hash (4 independent mix64 lanes over
 * 32-byte blocks, length-armored). Not cryptographic: it guards against
 * corruption — truncation, bit flips, torn writes — and keys the
 * content-addressed arena store, where an adversarial collision is out
 * of scope (the store is a local cache under the user's own uid).
 *
 * Deterministic across platforms: input bytes are consumed
 * little-endian regardless of host order.
 */
class ContentHasher
{
  public:
    /** Absorbs @p size bytes; chunk boundaries do not affect the digest.*/
    void update(const void *data, std::size_t size);

    /** @return The digest of everything absorbed so far. */
    std::uint64_t digest() const;

  private:
    std::uint64_t lanes_[4] = {0x243f6a8885a308d3ull, 0x13198a2e03707344ull,
                               0xa4093822299f31d0ull, 0x082efa98ec4e6c89ull};
    std::uint8_t buffer_[32] = {};
    std::size_t buffered_ = 0;
    std::uint64_t total_ = 0;
};

/** One-shot ContentHasher over @p size bytes at @p data. */
std::uint64_t contentHash64(const void *data, std::size_t size);

/**
 * Content hash of the file at @p path (its raw bytes — for a compressed
 * trace, the compressed bytes). This is the key of the content-addressed
 * arena store: two paths naming byte-identical files hash equal no
 * matter how the paths are spelled.
 *
 * @return Whether the file could be read; on failure @p error says why.
 */
bool fileContentHash(const std::string &path, std::uint64_t &out,
                     std::string *error = nullptr);

/**
 * Reads and validates just the header of the SBBT-A file at @p path
 * (one small read, no mapping, payload checksum not verified). Used by
 * tooling that lists or sizes a store without paying a full verify.
 */
bool readArenaHeader(const std::string &path, ArenaHeader &out,
                     std::string *error = nullptr);

} // namespace mbp::sbbt

#endif // MBP_SBBT_ARENA_FILE_HPP
