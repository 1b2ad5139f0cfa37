/**
 * @file
 * The column decoder against the per-packet decoder, and the arena it
 * builds.
 *
 * Every decoded trace goes through SbbtReader::readColumns (BlockSource
 * streams it, MemTrace::load runs it into the arena's columns), while
 * SbbtReader::next() decodes one packet at a time with decodePacket().
 * These tests place each error class — undefined opcode, validity rules
 * 1 and 2, a ragged tail, a corrupt compressed stream — at block edges
 * and behind an instruction limit, and require both consumers to report
 * exactly what a next() loop reports. The site tests drive ips that
 * collide in the Interner's direct-mapped cache and check the arena's
 * site tables against a naive recomputation; the rest pin the SBBT-A
 * bytes and the arena's memory footprint.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "mbp/compress/streams.hpp"
#include "mbp/sbbt/arena_file.hpp"
#include "mbp/sbbt/blocks.hpp"
#include "mbp/sbbt/format.hpp"
#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/sbbt/writer.hpp"
#include "mbp/tracegen/generator.hpp"
#include "mbp/utils/interner.hpp"
#include "test_util.hpp"

using namespace mbp;

namespace
{

constexpr std::uint64_t kNoLimit = sbbt::BlockSource::kNoLimit;

/** Valid branch @p i of the synthetic traces: ~300 sites, every opcode
 *  class, gaps up to 40 instructions. */
sbbt::PacketData
validPacket(std::size_t i)
{
    const std::uint64_t ip = 0x400000 + 4 * ((i * 7919) % 301);
    const std::uint32_t gap = static_cast<std::uint32_t>((i * 13) % 41);
    switch (i % 5) {
    case 0:
        return {{ip, ip + 64, OpCode::jump(), true}, gap};
    case 1:
        return {{ip, 0, OpCode(BranchType::kJump, true, true), false}, gap};
    case 2:
        return {{ip, ip + 0x100, OpCode::call(), true}, gap};
    default:
        return {{ip, ip - 0x80, OpCode::condJump(), (i % 3) != 0}, gap};
    }
}

/** The ways a trace can go bad at a chosen packet. */
enum class Fault
{
    kNone,
    kUndefinedOpcode, //!< base type 0b11
    kRule1,           //!< unconditional, not taken
    kRule2,           //!< conditional indirect, not taken, target != 0
    kRaggedTail,      //!< the file ends 7 bytes into the packet
};

/**
 * SBBT bytes of @p count packets with @p fault at packet @p at. The
 * header promises @p promised branches (default: exactly the packets).
 */
std::vector<std::uint8_t>
traceBytes(std::size_t count, Fault fault = Fault::kNone,
           std::size_t at = 0, std::uint64_t promised = ~0ull)
{
    sbbt::Header header;
    header.branch_count = promised != ~0ull ? promised : count;
    std::uint64_t instr = 0;
    std::vector<std::uint8_t> bytes;
    std::vector<std::array<std::uint8_t, sbbt::kPacketSize>> packets;
    for (std::size_t i = 0; i < count; ++i) {
        const sbbt::PacketData p = validPacket(i);
        instr += p.instr_gap + 1;
        packets.push_back(sbbt::encodePacket(p));
    }
    header.instruction_count = instr;
    const auto head = sbbt::encodeHeader(header);
    bytes.insert(bytes.end(), head.begin(), head.end());
    for (std::size_t i = 0; i < count; ++i) {
        auto packet = packets[i];
        if (i == at) {
            switch (fault) {
            case Fault::kUndefinedOpcode:
                packet[0] = static_cast<std::uint8_t>(packet[0] | 0x0c);
                break;
            case Fault::kRule1: // jump, outcome bit cleared
                packet[0] = static_cast<std::uint8_t>(packet[0] & 0xf0);
                packet[1] = static_cast<std::uint8_t>(packet[1] & ~0x08);
                break;
            case Fault::kRule2: // conditional indirect, not taken, target
                packet[0] = static_cast<std::uint8_t>((packet[0] & 0xf0) |
                                                      0x03);
                packet[1] = static_cast<std::uint8_t>(packet[1] & ~0x08);
                packet[15] = 0x01;
                break;
            case Fault::kRaggedTail:
                bytes.insert(bytes.end(), packet.begin(), packet.begin() + 7);
                return bytes;
            case Fault::kNone:
                break;
            }
        }
        bytes.insert(bytes.end(), packet.begin(), packet.end());
    }
    return bytes;
}

/** Writes @p bytes to @p name in the test dir through its extension's
 *  codec. @return The path. */
std::string
writeFile(const std::string &name, const std::vector<std::uint8_t> &bytes)
{
    const std::string path = test::testDir() + "/" + name;
    auto out = compress::openOutput(path);
    EXPECT_NE(out, nullptr) << path;
    EXPECT_TRUE(out->write(bytes.data(), bytes.size()));
    EXPECT_TRUE(out->close());
    return path;
}

/** What a consumer observed: delivered rows plus the run's end state. */
struct Observed
{
    std::vector<std::uint64_t> ip;
    std::vector<std::uint64_t> target;
    std::vector<std::uint64_t> instr;
    std::vector<std::uint8_t> meta;
    std::string error;
    std::uint64_t last_instr = 0;
    bool exhausted = false;
    std::uint64_t decompressed_bytes = 0;
};

/** The reference: a packet-at-a-time SbbtReader::next() loop that stops
 *  at the first branch past @p limit. */
Observed
referenceRun(const std::string &path, const sbbt::ReaderOptions &options,
             std::uint64_t limit)
{
    Observed o;
    sbbt::SbbtReader reader(path, options);
    sbbt::PacketData p;
    bool stopped = false;
    while (reader.next(p)) {
        if (reader.instrNumber() > limit) {
            stopped = true;
            break;
        }
        o.ip.push_back(p.branch.ip());
        o.target.push_back(p.branch.target());
        o.instr.push_back(reader.instrNumber());
        o.meta.push_back(sbbt::packMeta(p.branch));
    }
    o.error = reader.error();
    o.last_instr = reader.instrNumber();
    o.exhausted = !stopped && reader.exhausted();
    o.decompressed_bytes = reader.decompressedBytes();
    return o;
}

Observed
blockRun(const std::string &path, const sbbt::ReaderOptions &options,
         std::uint64_t limit)
{
    Observed o;
    sbbt::BlockSource source(path, options, limit);
    sbbt::Block block;
    while (source.next(block)) {
        for (std::size_t i = 0; i < block.size; ++i)
            o.ip.push_back(block.ip(i));
        o.target.insert(o.target.end(), block.target,
                        block.target + block.size);
        o.instr.insert(o.instr.end(), block.instr, block.instr + block.size);
        o.meta.insert(o.meta.end(), block.meta, block.meta + block.size);
    }
    EXPECT_EQ(source.branches(), o.ip.size());
    o.error = source.error();
    o.last_instr = source.lastInstr();
    o.exhausted = source.exhausted();
    o.decompressed_bytes = source.decompressedBytes();
    return o;
}

void
expectSame(const Observed &want, const Observed &got, const std::string &what)
{
    EXPECT_EQ(got.ip.size(), want.ip.size()) << what;
    EXPECT_EQ(got.ip, want.ip) << what;
    EXPECT_EQ(got.target, want.target) << what;
    EXPECT_EQ(got.instr, want.instr) << what;
    EXPECT_EQ(got.meta, want.meta) << what;
    EXPECT_EQ(got.error, want.error) << what;
    EXPECT_EQ(got.last_instr, want.last_instr) << what;
    EXPECT_EQ(got.exhausted, want.exhausted) << what;
    EXPECT_EQ(got.decompressed_bytes, want.decompressed_bytes) << what;
}

/** MemTrace::load (no limit) must agree with the reference's outcome. */
void
expectLoadMatches(const std::string &path, const sbbt::ReaderOptions &options,
                  const std::string &what)
{
    const Observed want = referenceRun(path, options, kNoLimit);
    std::string error;
    auto trace = sbbt::MemTrace::load(path, options, &error);
    if (!want.error.empty()) {
        EXPECT_EQ(trace, nullptr) << what;
        EXPECT_EQ(error, want.error) << what;
        return;
    }
    ASSERT_NE(trace, nullptr) << what << ": " << error;
    Observed got;
    for (std::size_t i = 0; i < trace->size(); ++i) {
        got.ip.push_back(trace->ip(i));
        got.target.push_back(trace->target(i));
        got.instr.push_back(trace->instrNumber(i));
        got.meta.push_back(trace->metaData()[i]);
    }
    got.last_instr = trace->size() > 0 ? trace->instrNumber(trace->size() - 1)
                                       : 0;
    got.exhausted = true;
    got.decompressed_bytes = trace->decompressedBytes();
    expectSame(want, got, what + " (MemTrace::load)");
}

/** Reader pipelines: packet-at-a-time, the default block, and the
 *  default block behind the prefetch thread. */
std::vector<sbbt::ReaderOptions>
pipelines()
{
    return {{.block_packets = 1},
            {.block_packets = sbbt::kDefaultBlockPackets},
            {.block_packets = sbbt::kDefaultBlockPackets, .prefetch = true}};
}

/** Error positions: the first branch, mid-block and both block edges. */
constexpr std::size_t kPositions[] = {0, 1000, 4095, 4096, 4097};
constexpr std::size_t kPackets = 7000;

/** Instruction number of valid packet @p i (1-based, cumulative). */
std::uint64_t
instrOf(std::size_t i)
{
    std::uint64_t instr = 0;
    for (std::size_t k = 0; k <= i; ++k)
        instr += validPacket(k).instr_gap + 1;
    return instr;
}

void
checkAllConsumers(const std::string &path, const std::string &what)
{
    for (const sbbt::ReaderOptions &options : pipelines()) {
        const std::string label =
            what + " block_packets=" + std::to_string(options.block_packets) +
            (options.prefetch ? " prefetch" : "");
        expectSame(referenceRun(path, options, kNoLimit),
                   blockRun(path, options, kNoLimit), label);
        expectLoadMatches(path, options, label);
    }
}

const char *
faultName(Fault fault)
{
    switch (fault) {
    case Fault::kUndefinedOpcode:
        return "opcode0b11";
    case Fault::kRule1:
        return "rule1";
    case Fault::kRule2:
        return "rule2";
    case Fault::kRaggedTail:
        return "ragged";
    default:
        return "none";
    }
}

constexpr Fault kPacketFaults[] = {Fault::kUndefinedOpcode, Fault::kRule1,
                                   Fault::kRule2, Fault::kRaggedTail};

} // namespace

TEST(ColumnDecode, CleanTraceMatchesPacketDecoder)
{
    for (const char *ext : {".sbbt", ".sbbt.gz", ".sbbt.flz"}) {
        const std::string path =
            writeFile(std::string("clean") + ext, traceBytes(kPackets));
        checkAllConsumers(path, ext);
    }
}

TEST(ColumnDecode, EveryErrorClassAtEveryPositionMatchesPacketDecoder)
{
    for (Fault fault : kPacketFaults) {
        for (std::size_t at : kPositions) {
            for (const char *ext : {".sbbt", ".sbbt.gz"}) {
                const std::string name = std::string(faultName(fault)) + "-" +
                                         std::to_string(at) + ext;
                const std::string path =
                    writeFile(name, traceBytes(kPackets, fault, at));
                const Observed want = referenceRun(path, {}, kNoLimit);
                ASSERT_EQ(want.ip.size(), at) << name;
                ASSERT_FALSE(want.error.empty()) << name;
                checkAllConsumers(path, name);
            }
        }
    }
}

TEST(ColumnDecode, ErrorBehindTheInstructionLimitStaysInvisible)
{
    for (Fault fault : kPacketFaults) {
        for (std::size_t stop : {std::size_t{0}, std::size_t{1000},
                                 std::size_t{4095}, std::size_t{4096}}) {
            // Branch `stop` is the first past the limit: it is read but
            // never delivered, and the bad packet right behind it must
            // never be decoded. A bad packet *at* the stop is read, so it
            // does surface — both cases must match the reference.
            const std::uint64_t limit = instrOf(stop) - 1;
            for (std::size_t at : {stop + 1, stop}) {
                const std::string name = std::string(faultName(fault)) +
                                         "-stop" + std::to_string(stop) +
                                         "-at" + std::to_string(at) +
                                         ".sbbt";
                const std::string path =
                    writeFile(name, traceBytes(kPackets, fault, at));
                for (const sbbt::ReaderOptions &options : pipelines()) {
                    const std::string label =
                        name + " block_packets=" +
                        std::to_string(options.block_packets);
                    const Observed want = referenceRun(path, options, limit);
                    EXPECT_EQ(want.ip.size(), stop) << label;
                    EXPECT_EQ(want.error.empty(), at == stop + 1) << label;
                    expectSame(want, blockRun(path, options, limit), label);
                }
            }
        }
    }
}

TEST(ColumnDecode, ReadColumnsConsumesTheBranchPastTheLimit)
{
    // The branch past the limit is read — counted, its instruction number
    // taken — but not stored, and a later call resumes after it.
    const std::string path = writeFile("resume.sbbt", traceBytes(kPackets));
    for (const sbbt::ReaderOptions &options : pipelines()) {
        const Observed all = referenceRun(path, options, kNoLimit);
        ASSERT_EQ(all.ip.size(), kPackets);
        for (std::size_t stop : {std::size_t{0}, std::size_t{4095},
                                 std::size_t{4096}, std::size_t{5000}}) {
            const std::string label =
                "stop " + std::to_string(stop) + " block_packets=" +
                std::to_string(options.block_packets);
            std::vector<std::uint64_t> ip(kPackets), target(kPackets),
                instr(kPackets);
            std::vector<std::uint8_t> meta(kPackets);
            sbbt::SbbtReader reader(path, options);
            const std::size_t first = reader.readColumns(
                {ip.data(), target.data(), instr.data(), meta.data()},
                kPackets, all.instr[stop] - 1);
            EXPECT_EQ(first, stop) << label;
            EXPECT_EQ(reader.branchesRead(), stop + 1) << label;
            EXPECT_EQ(reader.instrNumber(), all.instr[stop]) << label;
            EXPECT_FALSE(reader.exhausted()) << label;
            const std::size_t rest = reader.readColumns(
                {ip.data() + first, target.data() + first,
                 instr.data() + first, meta.data() + first},
                kPackets - first, kNoLimit);
            EXPECT_EQ(rest, kPackets - stop - 1) << label;
            EXPECT_TRUE(reader.exhausted()) << label;
            EXPECT_EQ(reader.decompressedBytes(), all.decompressed_bytes)
                << label;
            for (std::size_t i = 0; i < first + rest; ++i) {
                const std::size_t src = i < stop ? i : i + 1;
                ASSERT_EQ(instr[i], all.instr[src]) << label << " row " << i;
                ASSERT_EQ(ip[i], all.ip[src]) << label << " row " << i;
                ASSERT_EQ(meta[i], all.meta[src]) << label << " row " << i;
            }
        }
    }
}

TEST(ColumnDecode, CorruptCompressedStreamMatchesPacketDecoder)
{
    for (const char *ext : {".sbbt.gz", ".sbbt.flz"}) {
        const std::string clean =
            writeFile(std::string("corrupt-src") + ext, traceBytes(kPackets));
        std::vector<char> file;
        {
            std::ifstream in(clean, std::ios::binary);
            file.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
        }
        ASSERT_GT(file.size(), 64u);
        for (std::size_t percent : {20, 50, 80, 99}) {
            std::vector<char> bad = file;
            const std::size_t at = bad.size() * percent / 100;
            for (std::size_t k = at; k < std::min(at + 8, bad.size()); ++k)
                bad[k] = static_cast<char>(bad[k] ^ 0x5a);
            const std::string name = std::string("corrupt-") +
                                     std::to_string(percent) + ext;
            const std::string path = test::testDir() + "/" + name;
            {
                std::ofstream out(path, std::ios::binary);
                out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
            }
            checkAllConsumers(path, name);
        }
    }
}

TEST(ColumnDecode, UnderPromisingHeaderStillDecodesEveryBranch)
{
    // The header promises 5 branches; 9000 follow. The arena reserves 5
    // rows (plus its spare) and must grow through every branch to report
    // the count mismatch exactly as the reader does ("... got 9000").
    const std::string path =
        writeFile("under.sbbt", traceBytes(9000, Fault::kNone, 0, 5));
    const Observed want = referenceRun(path, {}, kNoLimit);
    EXPECT_EQ(want.ip.size(), 9000u);
    EXPECT_EQ(want.error,
              "trace ended early: header promises 5 branches, got 9000");
    checkAllConsumers(path, "under-promising header");
}

TEST(ColumnDecode, CollidingSitesMatchNaiveRecomputation)
{
    // Gather ips that share a direct-mapped cache entry, three entries
    // deep, and interleave them so every lookup evicts the last one.
    std::map<std::size_t, std::vector<std::uint64_t>> by_entry;
    std::vector<std::uint64_t> colliding;
    for (std::uint64_t ip = 0x401000; colliding.size() < 12; ip += 4) {
        auto &group = by_entry[util::Interner::cacheIndex(ip)];
        group.push_back(ip);
        if (group.size() == 4)
            colliding.insert(colliding.end(), group.begin(), group.end());
    }
    ASSERT_EQ(util::Interner::cacheIndex(colliding[0]),
              util::Interner::cacheIndex(colliding[3]));

    std::vector<sbbt::PacketData> packets;
    for (std::size_t i = 0; i < 20000; ++i) {
        // Mostly the colliding ips, with a wide sweep of fresh ones.
        const std::uint64_t ip = i % 7 == 6 ? 0x900000 + 4 * (i % 5003)
                                            : colliding[(i * 5) % 12];
        const bool cond = i % 3 != 0;
        packets.push_back({{ip, ip + 32,
                            cond ? OpCode::condJump() : OpCode::jump(),
                            !cond || i % 2 == 0},
                           static_cast<std::uint32_t>(i % 9)});
    }
    const std::string path = test::testDir() + "/colliding.sbbt";
    {
        sbbt::SbbtWriter writer(path);
        for (const auto &p : packets)
            ASSERT_TRUE(writer.append(p.branch, p.instr_gap));
        ASSERT_TRUE(writer.close()) << writer.error();
    }

    // The naive recomputation: first-seen ids through a std::map.
    std::map<std::uint64_t, std::uint32_t> ids;
    std::vector<std::uint64_t> site_ips;
    std::vector<std::uint32_t> site_of;
    std::vector<std::uint64_t> cond_occ;
    std::vector<std::uint64_t> sites_in_prefix{0};
    for (const auto &p : packets) {
        auto [it, fresh] = ids.emplace(
            p.branch.ip(), static_cast<std::uint32_t>(site_ips.size()));
        if (fresh) {
            site_ips.push_back(p.branch.ip());
            cond_occ.push_back(0);
        }
        site_of.push_back(it->second);
        cond_occ[it->second] += p.branch.isConditional() ? 1 : 0;
        sites_in_prefix.push_back(site_ips.size());
    }

    auto trace = sbbt::MemTrace::load(path);
    ASSERT_NE(trace, nullptr);
    ASSERT_EQ(trace->size(), packets.size());
    ASSERT_EQ(trace->numSites(), site_ips.size());
    EXPECT_EQ(std::vector<std::uint32_t>(trace->siteIndexData(),
                                         trace->siteIndexData() +
                                             trace->size()),
              site_of);
    EXPECT_EQ(std::vector<std::uint64_t>(trace->siteIpData(),
                                         trace->siteIpData() +
                                             trace->numSites()),
              site_ips);
    EXPECT_EQ(std::vector<std::uint64_t>(trace->siteCondOccData(),
                                         trace->siteCondOccData() +
                                             trace->numSites()),
              cond_occ);
    // staticSitesInPrefix reads the first-seen bitmap.
    for (std::size_t k = 0; k <= packets.size(); ++k)
        ASSERT_EQ(trace->staticSitesInPrefix(k), sites_in_prefix[k]) << k;

    // The streaming decoder assigns the same ids.
    sbbt::BlockSource source(path);
    sbbt::Block block;
    std::vector<std::uint32_t> streamed;
    while (source.next(block))
        streamed.insert(streamed.end(), block.site, block.site + block.size);
    EXPECT_EQ(streamed, site_of);
    ASSERT_EQ(source.numSites(), site_ips.size());
    EXPECT_EQ(std::vector<std::uint64_t>(source.siteIps(),
                                         source.siteIps() +
                                             source.numSites()),
              site_ips);
}

TEST(ColumnDecode, SidecarBytesArePinned)
{
    // The SBBT-A payload of a fixed-seed tracegen trace. Decoding changes
    // must leave every sidecar byte-identical, or existing arena stores
    // would be served different columns than a fresh decode produces.
    // (Format v2: each of its seven columns is byte-identical to the same
    // column of the v1 sidecar, which also carried a per-branch ips
    // column: 732768 bytes, checksum 0x0e61fba6c96dc028.)
    const std::string path = test::testDir() + "/pinned.sbbt";
    {
        tracegen::WorkloadSpec spec;
        spec.seed = 2023;
        spec.num_instr = 200'000;
        sbbt::SbbtWriter writer(path);
        tracegen::TraceGenerator gen(spec);
        tracegen::TraceEvent ev;
        while (gen.next(ev))
            ASSERT_TRUE(writer.append(ev.branch, ev.instr_gap));
        ASSERT_TRUE(writer.close()) << writer.error();
    }
    auto trace = sbbt::MemTrace::load(path);
    ASSERT_NE(trace, nullptr);
    const std::string sidecar = path + ".sbbta";
    ASSERT_TRUE(trace->writeArena(sidecar, 0));
    sbbt::ArenaHeader header;
    std::string error;
    ASSERT_TRUE(sbbt::readArenaHeader(sidecar, header, &error)) << error;
    EXPECT_EQ(header.trace.branch_count, 24997u);
    EXPECT_EQ(header.num_sites, 268u);
    EXPECT_EQ(header.decompressed_bytes, 399976u);
    EXPECT_EQ(header.file_bytes, 532768u);
    EXPECT_EQ(header.payload_checksum, 0x47c1627594b1eaffull);
}

TEST(ColumnDecode, ExactHeaderLoadNeverGrowsTheColumns)
{
    // Large enough that the per-branch columns take the huge-page path.
    // Growing past the reserve at the last block would double them.
    constexpr std::size_t kRows = 300'000;
    const std::string path = writeFile("exact.sbbt", traceBytes(kRows));
    auto trace = sbbt::MemTrace::load(path);
    ASSERT_NE(trace, nullptr);
    ASSERT_EQ(trace->size(), kRows);
    const std::uint64_t column_bytes =
        kRows * sbbt::MemTrace::kBytesPerBranch + (kRows + 63) / 64 * 8 +
        2 * std::uint64_t{trace->numSites()} * 8;
    EXPECT_LE(trace->memoryBytes(), column_bytes * 105 / 100)
        << "column bytes " << column_bytes;
    EXPECT_GE(trace->memoryBytes(), column_bytes);
}
