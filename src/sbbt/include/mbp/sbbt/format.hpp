/**
 * @file
 * SBBT v1.0.0 on-disk format: header and packet codecs (paper §IV-C,
 * Figs. 1 and 2).
 *
 * Header (24 bytes / 192 bits):
 *   bytes 0-4   signature "SBBT\n"
 *   bytes 5-7   major, minor, patch version (u8 each)
 *   bytes 8-15  u64 LE: instructions executed during tracing (all kinds)
 *   bytes 16-23 u64 LE: branches contained in the trace
 *
 * Packet (16 bytes / 128 bits), two u64 LE blocks:
 *   block 1: bits 0-3 opcode | bits 4-10 reserved | bit 11 outcome |
 *            bits 12-63 branch IP (52 most significant bits)
 *   block 2: bits 0-11 instructions since the previous branch (<= 4095) |
 *            bits 12-63 target IP (52 most significant bits)
 *
 * Addresses are recovered with a 12-bit arithmetic shift, which
 * sign-extends 52-bit virtual addresses to the 64-bit canonical form used
 * by x86-64 and ARMv8-A LVA.
 *
 * Validity rules:
 *   1. A non-conditional branch must be taken.
 *   2. A conditional indirect branch that is not taken has a null target.
 */
#ifndef MBP_SBBT_FORMAT_HPP
#define MBP_SBBT_FORMAT_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "mbp/sbbt/branch.hpp"

namespace mbp::sbbt
{

/** The 5 signature bytes that start every SBBT file. */
inline constexpr char kSignature[5] = {'S', 'B', 'B', 'T', '\n'};
/** Size of the serialized header in bytes. */
inline constexpr std::size_t kHeaderSize = 24;
/** Size of one serialized branch packet in bytes. */
inline constexpr std::size_t kPacketSize = 16;
/** Maximum encodable distance between consecutive branches. */
inline constexpr std::uint32_t kMaxInstrGap = 4095;

/** Decoded SBBT header. */
struct Header
{
    std::uint8_t major = 1;
    std::uint8_t minor = 0;
    std::uint8_t patch = 0;
    /** Instructions (branch and non-branch) executed while tracing. */
    std::uint64_t instruction_count = 0;
    /** Branch packets in the trace. */
    std::uint64_t branch_count = 0;
};

/** Serializes @p header into its 24-byte representation. */
std::array<std::uint8_t, kHeaderSize> encodeHeader(const Header &header);

/**
 * Parses a 24-byte header.
 *
 * @param bytes Raw header bytes.
 * @param out   Receives the decoded header.
 * @param error Receives a message on failure (optional).
 * @return False on bad signature or unsupported major version.
 */
bool decodeHeader(const std::uint8_t *bytes, Header &out,
                  std::string *error = nullptr);

/** A decoded packet: the branch plus its distance to the previous branch. */
struct PacketData
{
    Branch branch;
    /** Non-branch instructions executed since the previous branch. */
    std::uint32_t instr_gap = 0;
};

/**
 * Serializes one branch packet.
 *
 * @pre @p data satisfies the validity rules, the gap fits in 12 bits, and
 *      both addresses survive the 52-bit round trip (canonical form).
 */
std::array<std::uint8_t, kPacketSize> encodePacket(const PacketData &data);

/**
 * Deserializes one branch packet.
 *
 * @param bytes 16 packet bytes.
 * @param out   Receives the decoded data.
 * @param error Receives a message on failure (optional).
 * @return False when the packet violates the format's validity rules.
 */
bool decodePacket(const std::uint8_t *bytes, PacketData &out,
                  std::string *error = nullptr);

/**
 * @return Whether @p addr round-trips through the 52-bit encoding, i.e. its
 *         top 12 bits are the sign extension of bit 51.
 */
constexpr bool
addressIsCanonical(std::uint64_t addr)
{
    auto s = static_cast<std::int64_t>(addr << 12) >> 12;
    return static_cast<std::uint64_t>(s) == addr;
}

/** Why a packet is invalid. */
enum class PacketFault : std::uint8_t
{
    kNone,            //!< the packet is valid
    kUndefinedOpcode, //!< base type 0b11
    kRuleViolation,   //!< breaks validity rule 1 or 2
};

/**
 * The format's validity rules over a packet's fields: the one definition
 * the encoder, the per-packet decoder and the column decoder all check.
 */
constexpr PacketFault
packetFault(OpCode opcode, bool taken, std::uint64_t target)
{
    if (!opcode.valid())
        return PacketFault::kUndefinedOpcode;
    if (!opcode.isConditional() && !taken)
        return PacketFault::kRuleViolation; // rule 1
    if (opcode.isConditional() && opcode.isIndirect() && !taken &&
        target != 0)
        return PacketFault::kRuleViolation; // rule 2
    return PacketFault::kNone;
}

/** @return The reader's error message for @p fault ("" for kNone). */
const char *packetFaultMessage(PacketFault fault);

/**
 * Checks the two packet validity rules for a branch.
 *
 * @return True when @p b may legally appear in an SBBT trace.
 */
constexpr bool
branchIsValid(const Branch &b)
{
    return packetFault(b.opcode(), b.isTaken(), b.target()) ==
           PacketFault::kNone;
}

/** Meta-byte bits: bits 0-3 hold the opcode, bit 4 the outcome. */
inline constexpr std::uint8_t kMetaConditional = 0x01;
inline constexpr std::uint8_t kMetaTaken = 0x10;

/** @return The meta byte (opcode | outcome) of @p branch. */
constexpr std::uint8_t
packMeta(const Branch &branch)
{
    return static_cast<std::uint8_t>(branch.opcode().bits() |
                                     (branch.isTaken() ? kMetaTaken : 0));
}

/** @return The little-endian u64 at @p p. */
inline std::uint64_t
loadLE64(const std::uint8_t *p)
{
    std::uint64_t v;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof v);
    } else {
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t(p[i]) << (8 * i);
    }
    return v;
}

/**
 * One serialized packet's two words with accessors for its fields: the
 * one place the packet layout is read, by decodePacket() and by the
 * column decoder (SbbtReader::readColumns) alike.
 */
struct PacketWords
{
    std::uint64_t block1;
    std::uint64_t block2;

    /** @return The words of the 16 packet bytes at @p bytes. */
    static PacketWords
    load(const std::uint8_t *bytes)
    {
        return {loadLE64(bytes), loadLE64(bytes + 8)};
    }

    // Addresses are the top 52 bits, sign-extended by an arithmetic shift.
    std::uint64_t ip() const { return toAddress(block1); }
    std::uint64_t target() const { return toAddress(block2); }
    OpCode
    opcode() const
    {
        return OpCode(static_cast<std::uint8_t>(block1 & 0xf));
    }
    bool taken() const { return (block1 >> 11) & 1; }
    std::uint32_t
    gap() const
    {
        return static_cast<std::uint32_t>(block2 & 0xfff);
    }
    /** @return The meta byte (opcode | outcome), as packMeta(). */
    std::uint8_t
    meta() const
    {
        return static_cast<std::uint8_t>((block1 & 0xf) |
                                         (taken() ? kMetaTaken : 0));
    }
    PacketFault
    fault() const
    {
        return packetFault(opcode(), taken(), target());
    }

  private:
    static std::uint64_t
    toAddress(std::uint64_t block)
    {
        return static_cast<std::uint64_t>(static_cast<std::int64_t>(block) >>
                                          12);
    }
};

} // namespace mbp::sbbt

#endif // MBP_SBBT_FORMAT_HPP
