/**
 * @file
 * Unit tests for the decode-once in-memory trace arena: a loaded
 * MemTrace must replay, as sbbt::BlockSource blocks, the exact packet
 * stream SbbtReader delivers from the same file — same branches, same
 * instruction numbers, same exhaustion semantics, the same site ids as
 * the streaming block decoder — plus the sizing helpers the
 * memory-budgeted cache relies on and the header-sized-allocation guard.
 */
#include "mbp/sbbt/mem_trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "mbp/compress/streams.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/sbbt/writer.hpp"
#include "mbp/tracegen/generator.hpp"
#include "test_util.hpp"

using namespace mbp;

namespace
{

std::string
writeTrace(const std::string &name, std::uint64_t seed,
           std::uint64_t num_instr)
{
    std::string path = mbp::test::testDir() + "/" + name;
    tracegen::WorkloadSpec spec;
    spec.seed = seed;
    spec.num_instr = num_instr;
    sbbt::SbbtWriter writer(path);
    tracegen::TraceGenerator gen(spec);
    tracegen::TraceEvent ev;
    while (gen.next(ev))
        EXPECT_TRUE(writer.append(ev.branch, ev.instr_gap));
    EXPECT_TRUE(writer.close()) << writer.error();
    return path;
}

} // namespace

TEST(MemTrace, LoadFailsOnMissingFile)
{
    std::string error;
    auto trace = sbbt::MemTrace::load(
        mbp::test::testDir() + "/no-such-trace.sbbt", {}, &error);
    EXPECT_EQ(trace, nullptr);
    EXPECT_NE(error, "");
}

TEST(MemTrace, LoadFailsOnCorruptFile)
{
    const std::string path = mbp::test::testDir() + "/corrupt.sbbt";
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not an SBBT trace at all, not even close!";
    }
    std::string error;
    auto trace = sbbt::MemTrace::load(path, {}, &error);
    EXPECT_EQ(trace, nullptr);
    EXPECT_NE(error, "");
    std::remove(path.c_str());
}

TEST(MemTrace, LoadMatchesHeaderAndRowAccessors)
{
    const std::string path = writeTrace("mem_rows.sbbt", 91, 60'000);
    std::string error;
    auto trace = sbbt::MemTrace::load(path, {}, &error);
    ASSERT_NE(trace, nullptr) << error;
    EXPECT_EQ(error, "");

    sbbt::SbbtReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(trace->header().instruction_count,
              reader.header().instruction_count);
    EXPECT_EQ(trace->header().branch_count, reader.header().branch_count);
    EXPECT_EQ(trace->size(), reader.header().branch_count);

    sbbt::PacketData packet;
    std::size_t i = 0;
    while (reader.next(packet)) {
        ASSERT_LT(i, trace->size());
        EXPECT_EQ(trace->ip(i), packet.branch.ip());
        EXPECT_EQ(trace->target(i), packet.branch.target());
        EXPECT_EQ(trace->opcode(i), packet.branch.opcode());
        EXPECT_EQ(trace->taken(i), packet.branch.isTaken());
        EXPECT_EQ(trace->instrNumber(i), reader.instrNumber());
        ++i;
    }
    EXPECT_EQ(reader.error(), "");
    EXPECT_EQ(i, trace->size());

    // The whole decode pass is accounted for.
    EXPECT_EQ(trace->decompressedBytes(), reader.decompressedBytes());
    EXPECT_GE(trace->loadSeconds(), 0.0);
    std::remove(path.c_str());
}

TEST(MemTrace, CursorReplaysReaderStreamInLockstep)
{
    const std::string path = writeTrace("mem_lockstep.sbbt", 92, 80'000);
    std::string error;
    auto trace = sbbt::MemTrace::load(path, {}, &error);
    ASSERT_NE(trace, nullptr) << error;

    // Arena blocks and decoded blocks replay the reader's stream: same
    // branches, same instruction numbers, same first-seen site ids.
    sbbt::SbbtReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    sbbt::BlockSource arena_blocks(trace);
    sbbt::BlockSource file_blocks(path);
    ASSERT_TRUE(arena_blocks.ok());
    ASSERT_TRUE(file_blocks.ok()) << file_blocks.error();

    sbbt::PacketData packet;
    sbbt::Block a, f;
    while (arena_blocks.next(a)) {
        ASSERT_TRUE(file_blocks.next(f));
        ASSERT_EQ(a.size, f.size);
        EXPECT_LE(a.size, sbbt::kBlockBranches);
        for (std::size_t i = 0; i < a.size; ++i) {
            ASSERT_TRUE(reader.next(packet));
            EXPECT_EQ(a.branch(i), packet.branch);
            EXPECT_EQ(f.branch(i), packet.branch);
            EXPECT_EQ(a.instr[i], reader.instrNumber());
            EXPECT_EQ(f.instr[i], reader.instrNumber());
            EXPECT_EQ(a.site[i], f.site[i]);
            EXPECT_EQ(trace->siteIpData()[a.site[i]], packet.branch.ip());
        }
    }
    EXPECT_FALSE(file_blocks.next(f));
    EXPECT_FALSE(reader.next(packet));
    EXPECT_EQ(reader.error(), "");
    EXPECT_TRUE(reader.exhausted());
    EXPECT_TRUE(arena_blocks.exhausted());
    EXPECT_TRUE(file_blocks.exhausted());
    EXPECT_EQ(arena_blocks.branches(), reader.branchesRead());
    EXPECT_EQ(file_blocks.branches(), reader.branchesRead());
    EXPECT_EQ(arena_blocks.staticSites(), trace->numSites());
    EXPECT_EQ(file_blocks.staticSites(), trace->numSites());
    EXPECT_EQ(file_blocks.decompressedBytes(), reader.decompressedBytes());
    std::remove(path.c_str());
}

TEST(MemTrace, CursorExhaustedOnlyAfterFailingNext)
{
    const std::string path = writeTrace("mem_exhaust.sbbt", 93, 5'000);
    auto trace = sbbt::MemTrace::load(path);
    ASSERT_NE(trace, nullptr);
    ASSERT_GT(trace->size(), 0u);

    // Mirror SbbtReader: delivering the last branch does not flip
    // exhausted(); only the next() that returns false does. And a source
    // cut at an instruction limit never reports exhaustion.
    sbbt::BlockSource whole(trace);
    sbbt::Block block;
    std::size_t seen = 0;
    while (seen < trace->size()) {
        ASSERT_TRUE(whole.next(block));
        seen += block.size;
        EXPECT_FALSE(whole.exhausted());
    }
    EXPECT_FALSE(whole.next(block));
    EXPECT_TRUE(whole.exhausted());
    EXPECT_EQ(whole.lastInstr(), trace->instrNumber(trace->size() - 1));

    const std::size_t half = trace->size() / 2;
    const std::uint64_t limit = trace->instrNumber(half);
    auto checkCut = [&](sbbt::BlockSource &cut) {
        std::uint64_t delivered = 0;
        while (cut.next(block))
            delivered += block.size;
        EXPECT_EQ(delivered, half + 1);
        EXPECT_FALSE(cut.exhausted());
        // The stop point is the first branch past the limit: read, not
        // delivered.
        EXPECT_EQ(cut.lastInstr(), trace->instrNumber(half + 1));
    };
    sbbt::BlockSource arena_cut(trace, limit);
    sbbt::BlockSource file_cut(path, {}, limit);
    checkCut(arena_cut);
    checkCut(file_cut);
    std::remove(path.c_str());
}

TEST(MemTrace, NullCursorReportsErrorNotExhaustion)
{
    sbbt::BlockSource source(std::shared_ptr<const sbbt::MemTrace>{});
    EXPECT_FALSE(source.ok());
    EXPECT_NE(source.error(), "");
    sbbt::Block block;
    EXPECT_FALSE(source.next(block));
    EXPECT_FALSE(source.exhausted()); // an error is not a clean end
    EXPECT_EQ(source.decompressedBytes(), 0u);
}

TEST(MemTrace, IndependentCursorsShareOneArena)
{
    const std::string path = writeTrace("mem_share.sbbt", 94, 20'000);
    auto trace = sbbt::MemTrace::load(path);
    ASSERT_NE(trace, nullptr);

    // Several threads replay the same arena concurrently, each through
    // its own block source; every replay must see the full identical
    // stream. (This test doubles as the MemTrace workout under
    // MBP_SANITIZE=thread.)
    constexpr int kThreads = 4;
    std::vector<std::uint64_t> checksums(kThreads, 0);
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
        threads.emplace_back([&, w] {
            sbbt::BlockSource source(trace);
            sbbt::Block block;
            std::uint64_t sum = 0;
            while (source.next(block)) {
                for (std::size_t i = 0; i < block.size; ++i)
                    sum += block.ip(i) + block.instr[i] +
                           (block.meta[i] & sbbt::kMetaTaken);
            }
            checksums[w] = source.exhausted() ? sum : 0;
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_NE(checksums[0], 0u);
    for (int w = 1; w < kThreads; ++w)
        EXPECT_EQ(checksums[w], checksums[0]);
    std::remove(path.c_str());
}

TEST(MemTrace, EstimateBytesTracksActualFootprint)
{
    const std::string path = writeTrace("mem_estimate.sbbt", 95, 50'000);
    auto trace = sbbt::MemTrace::load(path);
    ASSERT_NE(trace, nullptr);

    const std::uint64_t estimate =
        sbbt::MemTrace::estimateBytes(trace->header());
    EXPECT_EQ(estimate, trace->header().branch_count *
                                sbbt::MemTrace::kBytesPerBranch +
                            sizeof(sbbt::MemTrace));
    // The estimate is made from the header before decoding, the actual
    // footprint after vectors are populated; they must agree closely
    // enough for budget decisions (within 2x either way).
    EXPECT_GE(trace->memoryBytes(), estimate / 2);
    EXPECT_LE(trace->memoryBytes(), estimate * 2);

    // File-based estimation reads only the header.
    EXPECT_EQ(sbbt::MemTrace::estimateFileBytes(path), estimate);
    EXPECT_EQ(sbbt::MemTrace::estimateFileBytes(
                  mbp::test::testDir() + "/definitely-missing.sbbt"),
              0u);
    std::remove(path.c_str());
}

TEST(MemTrace, HeaderPromisingBillionsOfBranchesIsAnErrorNotAnAbort)
{
    // A bare 24-byte header promising 2^33 branches: the arena must not
    // size itself from the untrusted count (five columns of 2^33 rows
    // would throw std::bad_alloc). It fails cleanly instead, with the
    // same error the streaming reader reports — for every codec.
    sbbt::Header header;
    header.instruction_count = std::uint64_t{1} << 34;
    header.branch_count = std::uint64_t{1} << 33;
    const auto bytes = sbbt::encodeHeader(header);
    for (const char *name : {"huge.sbbt", "huge.sbbt.flz", "huge.sbbt.gz"}) {
        const std::string path = mbp::test::testDir() + "/" + name;
        {
            auto out = compress::openOutput(path);
            ASSERT_NE(out, nullptr) << name;
            ASSERT_TRUE(out->write(bytes.data(), bytes.size())) << name;
            ASSERT_TRUE(out->close()) << name;
        }
        std::string error;
        auto trace = sbbt::MemTrace::load(path, {}, &error);
        EXPECT_EQ(trace, nullptr) << name;
        EXPECT_NE(error.find("trace ended early"), std::string::npos)
            << name << ": " << error;
    }
}
