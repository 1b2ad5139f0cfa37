/**
 * @file
 * FLZ: a from-scratch LZ77 byte-oriented codec.
 *
 * The paper distributes SBBT traces compressed with zstandard; zstd is not
 * available in this environment, so FLZ plays its role in every experiment
 * (see DESIGN.md, substitutions). Like zstd/LZ4 it favors decompression
 * speed: matches are copied with plain byte loops from a 64 KiB window and
 * there is no entropy stage.
 *
 * Block format (LZ4-inspired):
 *   A compressed block is a sequence of "sequences". Each sequence is
 *     token(1B) | literal bytes | offset(2B LE) | extra match length bytes
 *   The token's high nibble is the literal count (15 = extended by 255-run
 *   bytes), the low nibble is match length - 4 (15 = extended likewise).
 *   The final sequence of a block carries literals only (no offset/match).
 *   Matches are at least 4 bytes and reference offsets in [1, 65535].
 *
 * Frame format (for files/streams):
 *   magic "FLZ1" | blocks... | end marker
 *   block = u32 LE raw_size | u32 LE comp_size | payload
 *     comp_size == 0 means the payload is stored uncompressed (raw_size
 *     bytes). raw_size == 0 terminates the frame.
 */
#ifndef MBP_COMPRESS_FLZ_HPP
#define MBP_COMPRESS_FLZ_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mbp::compress
{

/** Frame magic bytes (narrow-offset v1). */
inline constexpr char kFlzMagic[4] = {'F', 'L', 'Z', '1'};
/** Frame magic bytes (wide-offset v2). */
inline constexpr char kFlz2Magic[4] = {'F', 'L', 'Z', '2'};
/** Default uncompressed block size for framed streams (v1). */
inline constexpr std::size_t kFlzBlockSize = 256 * 1024;
/**
 * Block size for wide-offset frames. v2 exists for the same reason zstd's
 * high levels use large windows: trace files repeat long byte sequences
 * (whole loop iterations of fixed-size records) at distances far beyond a
 * 64 KiB window. v2 blocks are 8 MiB with 24-bit match offsets.
 */
inline constexpr std::size_t kFlz2BlockSize = 8 * 1024 * 1024;
/** Maximum encodable match offset in v2 blocks. */
inline constexpr std::size_t kFlz2MaxOffset = (1 << 24) - 1;

/**
 * @return An upper bound on flzCompressBlock's output size for @p src_size
 *         input bytes.
 */
std::size_t flzCompressBound(std::size_t src_size);

/**
 * Compresses one block.
 *
 * @param src      Input bytes.
 * @param src_size Input size.
 * @param dst      Output buffer of at least flzCompressBound(src_size) bytes.
 * @param effort   Match-finder effort (1 = greedy single probe, higher values
 *                 probe more hash-chain candidates; mirrors zstd levels).
 * @param wide     Use 24-bit match offsets (v2 blocks) instead of 16-bit.
 * @return Number of bytes written to @p dst.
 */
std::size_t flzCompressBlock(const std::uint8_t *src, std::size_t src_size,
                             std::uint8_t *dst, int effort = 4,
                             bool wide = false);

/**
 * Checks a compressed block without writing a byte: every token, length
 * and offset, and that it decodes to exactly @p dst_size bytes. A block
 * that passes decodes with flzDecodeValidated() in any number of steps,
 * so a reader can fail a corrupt block before handing out its first
 * byte and still decode only as far as it reads.
 */
bool flzValidateBlock(const std::uint8_t *src, std::size_t src_size,
                      std::size_t dst_size, bool wide = false);

/** How far a resumable decode of one block has come. */
struct FlzCursor
{
    std::size_t src = 0; //!< compressed bytes consumed
    std::size_t dst = 0; //!< decompressed bytes written
};

/**
 * Decodes whole sequences of a block that flzValidateBlock() accepted,
 * from @p cursor on, until at least @p want bytes of @p dst (of
 * @p dst_size) are written or the block ends; advances @p cursor.
 */
void flzDecodeValidated(const std::uint8_t *src, std::size_t src_size,
                        std::uint8_t *dst, std::size_t dst_size,
                        std::size_t want, FlzCursor &cursor,
                        bool wide = false);

/**
 * Decompresses one block produced by flzCompressBlock
 * (flzValidateBlock() then flzDecodeValidated() to the end).
 *
 * @param src      Compressed bytes.
 * @param src_size Compressed size.
 * @param dst      Output buffer.
 * @param dst_size Exact expected decompressed size.
 * @param wide     Whether the block uses 24-bit offsets (v2).
 * @return True when the block decoded cleanly to exactly @p dst_size bytes.
 */
bool flzDecompressBlock(const std::uint8_t *src, std::size_t src_size,
                        std::uint8_t *dst, std::size_t dst_size,
                        bool wide = false);

/** Convenience one-shot block compression into a vector. */
std::vector<std::uint8_t> flzCompress(const std::uint8_t *src,
                                      std::size_t src_size, int effort = 4);

} // namespace mbp::compress

#endif // MBP_COMPRESS_FLZ_HPP
