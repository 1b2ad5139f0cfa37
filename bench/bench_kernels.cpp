/**
 * @file
 * Machine-readable tracking benchmark for the fused simulation kernels.
 *
 * Replays one arena-resident trace through representative roster
 * predictors twice per configuration — the virtual simulate() versus the
 * fused compile-time kernel (mbp::simulateFused, via the roster's fused
 * registry) — and writes `BENCH_kernels.json` (path from argv[1],
 * default ./BENCH_kernels.json) with branches/second for both paths
 * (best run of each), with and without per-branch collection,
 * so the devirtualization speedup is a diffable artifact of every CI
 * run. The speedup is the median fused/virtual ratio over interleaved
 * run pairs, with its interquartile range alongside.
 *
 * Functional checks, enforced with exit code 1:
 *   - both paths produce identical misprediction counts and measured
 *     instruction windows per configuration (the byte-level document
 *     identity is pinned by arena_conformance_test);
 *   - the fused path is not meaningfully slower than the virtual one
 *     (>= kSanityRatio of its throughput). The ratio is a loose sanity
 *     floor, not the headline target, because this also runs under
 *     sanitizer builds where absolute numbers are meaningless; the
 *     real speedups are reported in the JSON for trend tracking.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sim/simulator.hpp"
#include "mbp/tools/corpus.hpp"
#include "mbp/tracegen/generator.hpp"

namespace
{

/** Loose fail-if-slower floor; see the file comment. */
constexpr double kSanityRatio = 0.6;

/**
 * Virtual/fused run pairs per configuration: at least kMinPairs, and more
 * (up to kMaxPairs) until the row has run for kMinRowSeconds, so the
 * cheap predictors, whose runs last milliseconds, get enough pairs for a
 * stable median. The two sides of a pair run back to back (alternating
 * which goes first), and the row's speedup is the median of the per-pair
 * ratios, so load that drifts over seconds on a shared host moves both
 * sides of a pair together instead of landing on whichever side happened
 * to be measured during it.
 */
constexpr int kMinPairs = 9;
constexpr int kMaxPairs = 99;
constexpr double kMinRowSeconds = 1.0;

/** Outcome of one run: throughput plus what must agree across paths. */
struct Run
{
    double bps = 0.0;
    std::uint64_t mispredictions = 0;
    std::uint64_t simulation_instr = 0;
    bool failed = false;
};

Run
runOnce(const std::string &name, const mbp::SimArgs &args, bool fused)
{
    Run run;
    mbp::json_t result;
    if (fused) {
        result = mbp::pred::fusedRunnerByName(name)(args);
    } else {
        auto predictor = mbp::pred::makeByName(name);
        result = mbp::simulate(*predictor, args);
    }
    if (result.contains("error")) {
        std::fprintf(stderr, "%s (%s): %s\n", name.c_str(),
                     fused ? "fused" : "virtual",
                     result.find("error")->asString().c_str());
        run.failed = true;
        return run;
    }
    const mbp::json_t &metrics = *result.find("metrics");
    run.bps = metrics.find("branches_per_second")->asDouble();
    run.mispredictions = metrics.find("mispredictions")->asUint();
    run.simulation_instr =
        result.find("metadata")->find("simulation_instr")->asUint();
    return run;
}

struct Measurement
{
    Run virt;                   // bps = best over the pairs
    Run fused;                  // bps = best over the pairs
    std::vector<double> ratios; // fused/virtual per pair, sorted
    bool failed = false;
};

/** @return The q-quantile (0..1) of sorted @p v, linearly interpolated. */
double
quantile(const std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

Measurement
measure(const std::string &name, const mbp::SimArgs &args)
{
    Measurement m;
    const auto start = std::chrono::steady_clock::now();
    for (int pair = 0; pair < kMaxPairs; ++pair) {
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        if (pair >= kMinPairs && elapsed.count() >= kMinRowSeconds)
            break;
        Run side[2];
        const bool fused_first = pair % 2 == 1;
        for (int i = 0; i < 2; ++i) {
            const bool fused = (i == 0) == fused_first;
            side[fused ? 1 : 0] = runOnce(name, args, fused);
        }
        if (side[0].failed || side[1].failed) {
            m.failed = true;
            return m;
        }
        if (side[0].bps > 0.0)
            m.ratios.push_back(side[1].bps / side[0].bps);
        side[0].bps = std::max(side[0].bps, m.virt.bps);
        side[1].bps = std::max(side[1].bps, m.fused.bps);
        m.virt = side[0];
        m.fused = side[1];
    }
    std::sort(m.ratios.begin(), m.ratios.end());
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mbp;
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_kernels.json";

    tracegen::WorkloadSpec spec;
    spec.name = "bench-kernels";
    spec.seed = 13;
    spec.num_instr = 8'000'000;
    tools::CorpusFormats formats;
    formats.sbbt_flz = true;
    auto entries = tools::materialize(bench::corpusDir(), {spec}, formats);

    // The cheap end of the Table III cost range is where devirtualization
    // matters (predict is a handful of instructions, so dispatch overhead
    // dominated); the TAGE family anchors the expensive end, where the
    // win comes from the predictors' own fused fast path (flat arenas,
    // single-pass fusedStep) rather than from dispatch removal.
    const std::vector<std::string> roster = {"bimodal", "gshare", "tage",
                                             "batage", "tage-scl"};

    std::string load_error;
    auto arena = sbbt::MemTrace::load(entries[0].sbbt_flz, {}, &load_error);
    if (arena == nullptr) {
        std::fprintf(stderr, "cannot load %s: %s\n",
                     entries[0].sbbt_flz.c_str(), load_error.c_str());
        return 1;
    }

    bool ok = true;
    json_t rows = json_t::array();
    for (const std::string &name : roster) {
        for (const bool collect : {true, false}) {
            SimArgs args;
            args.trace_path = entries[0].sbbt_flz;
            args.preloaded = arena;
            args.collect_most_failed = collect;
            const Measurement m = measure(name, args);
            const Run &virt = m.virt;
            const Run &fused = m.fused;
            if (m.failed) {
                ok = false;
                continue;
            }
            if (virt.mispredictions != fused.mispredictions ||
                virt.simulation_instr != fused.simulation_instr) {
                std::fprintf(
                    stderr,
                    "%s (collect=%d): fused/virtual mismatch "
                    "(mispredictions %llu vs %llu, instr %llu vs %llu)\n",
                    name.c_str(), collect ? 1 : 0,
                    (unsigned long long)virt.mispredictions,
                    (unsigned long long)fused.mispredictions,
                    (unsigned long long)virt.simulation_instr,
                    (unsigned long long)fused.simulation_instr);
                ok = false;
            }
            const double speedup = quantile(m.ratios, 0.5);
            const double spread =
                quantile(m.ratios, 0.75) - quantile(m.ratios, 0.25);
            if (speedup < kSanityRatio) {
                std::fprintf(stderr,
                             "%s (collect=%d): fused kernel slower than "
                             "virtual (%.2fx < %.2fx floor)\n",
                             name.c_str(), collect ? 1 : 0, speedup,
                             kSanityRatio);
                ok = false;
            }
            std::printf("%-10s collect=%d  virtual %12.0f b/s   fused "
                        "%12.0f b/s   %5.2fx (IQR %.2f, %zu pairs)\n",
                        name.c_str(), collect ? 1 : 0, virt.bps,
                        fused.bps, speedup, spread, m.ratios.size());
            rows.push_back(json_t::object({
                {"predictor", name},
                {"collect_most_failed", collect},
                {"virtual_branches_per_second", virt.bps},
                {"fused_branches_per_second", fused.bps},
                // The headline absolute number (fused path), so the
                // trajectory is trackable even as the ratio saturates.
                {"branches_per_second", fused.bps},
                {"speedup", speedup},
                {"speedup_iqr", spread},
                {"pairs", std::uint64_t(m.ratios.size())},
                {"mispredictions", virt.mispredictions},
            }));
        }
    }

    json_t doc = json_t::object({
        {"bench", "fused kernels vs virtual arena simulation"},
        {"version", kMbpVersion},
        {"workload", json_t::object({
                         {"name", spec.name},
                         {"seed", spec.seed},
                         {"num_instr", spec.num_instr},
                         {"branches", std::uint64_t(arena->size())},
                     })},
        {"min_pairs", std::uint64_t(kMinPairs)},
        {"min_row_seconds", kMinRowSeconds},
        {"sanity_ratio", kSanityRatio},
        {"rows", std::move(rows)},
        {"checks_passed", ok},
    });

    std::FILE *out = std::fopen(out_path.c_str(), "wb");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::string text = doc.dump(2) + "\n";
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());
    return ok ? 0 : 1;
}
