/**
 * @file
 * Shared internals of the simulator family: the document assembly, the
 * measurement-window arithmetic, the trace opener and the compile-time
 * bound predictor calls.
 *
 * Every simulator flavor — simulate()/compare()/simulateMany(), their
 * fused drop-ins in mbp/sim/kernels.hpp and the front-end simulators —
 * opens its trace through openTrace() and reads the same
 * sbbt::BlockSource blocks, and emits its document through the helpers
 * here, so the output documents and the warmup/limit accounting cannot
 * drift apart between entry points.
 *
 * This is an internal header: everything in mbp::detail may change
 * between versions. User code should stick to mbp/sim/simulator.hpp and
 * mbp/sim/kernels.hpp.
 */
#ifndef MBP_SIM_DETAIL_SIM_CORE_HPP
#define MBP_SIM_DETAIL_SIM_CORE_HPP

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mbp/json/json.hpp"
#include "mbp/sbbt/blocks.hpp"
#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/sim/simulator.hpp"

namespace mbp::detail
{

// Simulator display names are part of the output contract: the fused
// kernels must emit documents byte-identical (modulo timing) to the
// virtual paths, so both share these constants.
inline constexpr const char *kStdSimulatorName = "MBPlib std simulator";
inline constexpr const char *kCompareSimulatorName =
    "MBPlib comparison simulator";
inline constexpr const char *kMultiSimulatorName = "MBPlib multi simulator";

/** Per-static-branch accounting for the most_failed ranking. */
struct BranchStat
{
    std::uint64_t occurrences = 0; // measured conditional executions
    std::uint64_t mispredictions = 0;
};

/** Wall-clock facts of a run: the timed loop, and the one-time arena
 *  decode (0 when streaming, or when the arena arrived preloaded). */
struct Timing
{
    double seconds = 0.0;
    double load_seconds = 0.0;
};

/**
 * The per-branch ranking keys rows by a 32-bit slot (row index + 1);
 * a trace with this many distinct *measured* conditional sites cannot be
 * ranked without corrupting the indexes, so the run fails loudly
 * instead (testable via rowIndexWouldOverflow below).
 */
inline constexpr std::uint64_t kMaxRankedSites =
    std::numeric_limits<std::uint32_t>::max();

inline constexpr const char *kSiteOverflowError =
    "most_failed ranking overflow: 2^32-1 distinct measured branch sites; "
    "rerun with collect_most_failed disabled";

/** Whether allocating one more ranking row would wrap the 32-bit slot. */
constexpr bool
rowIndexWouldOverflow(std::size_t existing_rows)
{
    // The slot stores row + 1 (0 is the "no row" sentinel), so the last
    // representable row index is 2^32 - 2.
    return existing_rows >= kMaxRankedSites;
}

/** Whether the flat stats array (stride words per row) would overflow. */
constexpr bool
rowAllocWouldOverflow(std::size_t existing_rows, std::size_t stride)
{
    if (stride == 0)
        return false;
    return existing_rows >
           std::numeric_limits<std::size_t>::max() / stride - 1;
}

inline json_t
errorResult(const char *simulator_name, const SimArgs &args,
            const std::string &message)
{
    return json_t::object({
        {"metadata", json_t::object({{"simulator", simulator_name},
                                     {"version", kMbpVersion},
                                     {"trace", args.trace_path}})},
        {"error", message},
    });
}

inline double
mpkiOf(std::uint64_t mispredictions, std::uint64_t instructions)
{
    return instructions == 0
               ? 0.0
               : static_cast<double>(mispredictions) /
                     (static_cast<double>(instructions) / 1000.0);
}

inline double
accuracyOf(std::uint64_t mispredictions, std::uint64_t executions)
{
    return executions == 0
               ? 1.0
               : 1.0 - static_cast<double>(mispredictions) /
                           static_cast<double>(executions);
}

inline sbbt::ReaderOptions
readerOptions(const SimArgs &args)
{
    sbbt::ReaderOptions options;
    options.prefetch = args.prefetch;
    return options;
}

/**
 * Instruction number (inclusive) at which a run stops: warmup plus the
 * simulation budget, saturating so sim_instr = "unlimited" never wraps.
 * Shared by all simulator flavors so their measurement windows cannot
 * drift apart.
 */
inline std::uint64_t
instrLimit(const SimArgs &args)
{
    return args.sim_instr >= std::numeric_limits<std::uint64_t>::max() -
                                 args.warmup_instr
               ? std::numeric_limits<std::uint64_t>::max()
               : args.warmup_instr + args.sim_instr;
}

/**
 * Measured (post-warmup) instruction count of a run over the drained
 * @p source. An exhausted trace is credited with its full header
 * instruction count (the tail after the last branch has no packet of its
 * own); a limit-stopped run is clamped to the limit.
 */
inline std::uint64_t
measuredInstr(const SimArgs &args, const sbbt::BlockSource &source)
{
    const std::uint64_t last = source.lastInstr();
    const std::uint64_t end_instr =
        source.exhausted()
            ? std::max(source.header().instruction_count, last)
            : std::min(last, instrLimit(args));
    return end_instr > args.warmup_instr ? end_instr - args.warmup_instr
                                         : 0;
}

/** The metadata section shared by every simulator document. */
inline json_t
makeMetadata(const char *simulator_name, const SimArgs &args,
             const sbbt::BlockSource &source, std::uint64_t dynamic_cond)
{
    return json_t::object({
        {"simulator", simulator_name},
        {"version", kMbpVersion},
        {"trace", args.trace_path},
        {"warmup_instr", args.warmup_instr},
        {"simulation_instr", measuredInstr(args, source)},
        {"exhausted_trace", source.exhausted()},
        {"num_conditional_branches", dynamic_cond},
        {"num_branch_instructions", source.staticSites()},
        {"track_only_conditional", args.track_only_conditional},
    });
}

/**
 * Appends the per-run throughput observability fields shared by all
 * simulator flavors to @p metrics. `trace_load_seconds` is kept outside
 * `simulation_time` so branches_per_second measures the predict loop.
 */
inline void
addThroughputMetrics(json_t &metrics, const sbbt::BlockSource &source,
                     const Timing &timing)
{
    metrics["simulation_time"] = timing.seconds;
    metrics["branches_per_second"] =
        timing.seconds > 0.0
            ? static_cast<double>(source.branches()) / timing.seconds
            : 0.0;
    metrics["decompressed_bytes"] = source.decompressedBytes();
    metrics["prefetch_stall_seconds"] = source.prefetchStallSeconds();
    metrics["trace_load_seconds"] = timing.load_seconds;
}

/**
 * Whether @p predictor reports its storage cost at all: either through a
 * declared component tree or a non-zero storageBits(). Works for the
 * virtual Predictor base (which has reportsStorage()) and for any
 * PredictorLike or BlockKernel shape.
 */
template <typename P>
inline bool
reportsStorageOf(const P &predictor)
{
    if constexpr (requires {
                      {
                          predictor.reportsStorage()
                      } -> std::convertible_to<bool>;
                  }) {
        return predictor.reportsStorage();
    } else {
        return predictor.storage_components().has_value() ||
               predictor.storageBits() != 0;
    }
}

/**
 * Assembles the simulate() document of a run over the drained
 * @p source. @p rows holds the per-branch stats of every measured
 * conditional site with at least one misprediction (any order; ranked
 * here by mispredictions, the ip breaking ties).
 */
template <typename P>
inline json_t
buildSimulateDoc(const char *kName, P &predictor, const SimArgs &args,
                 const sbbt::BlockSource &source, const Timing &timing,
                 std::uint64_t dynamic_cond, std::uint64_t mispredictions,
                 std::vector<std::pair<std::uint64_t, BranchStat>> rows)
{
    const std::uint64_t simulation_instr = measuredInstr(args, source);
    json_t result = json_t::object();
    result["metadata"] = makeMetadata(kName, args, source, dynamic_cond);
    result["metadata"]["predictor"] = predictor.metadata_stats();
    // Budget accounting: a design that reports its storage — via a
    // non-zero storageBits() or a declared (possibly zero-total)
    // component tree — gets the number, including a true 0 for
    // storage-free designs; one that reports nothing gets an explicit
    // null so "unreported" can never be mistaken for "zero-cost".
    if (reportsStorageOf(predictor))
        result["metadata"]["predictor"]["storage_bits"] =
            predictor.storageBits();
    else
        result["metadata"]["predictor"]["storage_bits"] = nullptr;
    json_t metrics = json_t::object({
        {"mpki", mpkiOf(mispredictions, simulation_instr)},
        {"mispredictions", mispredictions},
        {"accuracy", accuracyOf(mispredictions, dynamic_cond)},
    });

    // Rank branches; num_most_failed_branches is the minimum number of
    // branches that account, on their own, for half of the mispredictions.
    // Without per-branch collection the ranking has no data, so both the
    // metric and the most_failed section are omitted entirely rather than
    // reported as a misleading hard zero.
    json_t most_failed = json_t::array();
    if (args.collect_most_failed) {
        std::sort(rows.begin(), rows.end(), [](const auto &x, const auto &y) {
            if (x.second.mispredictions != y.second.mispredictions)
                return x.second.mispredictions > y.second.mispredictions;
            return x.first < y.first;
        });
        std::uint64_t half = (mispredictions + 1) / 2;
        std::uint64_t running = 0;
        std::size_t num_most_failed = 0;
        while (num_most_failed < rows.size() && running < half)
            running += rows[num_most_failed++].second.mispredictions;
        for (std::size_t i = 0;
             i < std::min(num_most_failed, args.most_failed_cap); ++i) {
            const auto &[ip, stat] = rows[i];
            most_failed.push_back(json_t::object({
                {"ip", ip},
                {"occurrences", stat.occurrences},
                {"mpki", mpkiOf(stat.mispredictions, simulation_instr)},
                {"accuracy",
                 accuracyOf(stat.mispredictions, stat.occurrences)},
            }));
        }
        metrics["num_most_failed_branches"] =
            std::uint64_t(num_most_failed);
    }

    addThroughputMetrics(metrics, source, timing);
    result["metrics"] = std::move(metrics);
    result["predictor_statistics"] = predictor.execution_stats();
    if (args.collect_most_failed)
        result["most_failed"] = std::move(most_failed);
    return result;
}

/**
 * Assembles the compare()/simulateMany() document of a run over the
 * drained @p source. @p rows is the flat per-site stats array with
 * stride 1 + n (occurrences, then one misprediction counter per
 * predictor), @p row_ips the matching site addresses (any order; the
 * ranking below is a total order). @p PPtr is any pointer-like to a
 * predictor shape (Predictor*, BlockKernel*).
 */
template <typename PPtr>
inline json_t
buildManyDoc(const char *kName, const std::vector<PPtr> &predictors,
             const SimArgs &args, const sbbt::BlockSource &source,
             const Timing &timing, std::uint64_t dynamic_cond,
             const std::vector<std::uint64_t> &mispredictions,
             const std::vector<std::uint64_t> &rows,
             const std::vector<std::uint64_t> &row_ips)
{
    const std::uint64_t simulation_instr = measuredInstr(args, source);
    const std::size_t n = predictors.size();
    const std::size_t stride = 1 + n;

    // Rank by the spread in mispredictions (max − min across predictors):
    // the branches whose predictability changed the most between designs.
    // For two predictors this is exactly compare()'s absolute difference.
    auto spreadOf = [&](const std::uint64_t *row) {
        std::uint64_t lo = row[1], hi = row[1];
        for (std::size_t k = 1; k < n; ++k) {
            lo = std::min(lo, row[1 + k]);
            hi = std::max(hi, row[1 + k]);
        }
        return hi - lo;
    };

    json_t most_failed = json_t::array();
    if (args.collect_most_failed) {
        std::vector<std::uint32_t> ranked;
        ranked.reserve(row_ips.size());
        for (std::uint32_t r = 0; r < row_ips.size(); ++r) {
            if (spreadOf(rows.data() + std::size_t(r) * stride) > 0)
                ranked.push_back(r);
        }
        std::sort(ranked.begin(), ranked.end(),
                  [&](std::uint32_t x, std::uint32_t y) {
                      std::uint64_t dx =
                          spreadOf(rows.data() + std::size_t(x) * stride);
                      std::uint64_t dy =
                          spreadOf(rows.data() + std::size_t(y) * stride);
                      if (dx != dy)
                          return dx > dy;
                      return row_ips[x] < row_ips[y];
                  });
        for (std::size_t i = 0;
             i < std::min(ranked.size(), args.most_failed_cap); ++i) {
            const std::uint64_t *row =
                rows.data() + std::size_t(ranked[i]) * stride;
            json_t entry = json_t::object({
                {"ip", row_ips[ranked[i]]},
                {"occurrences", row[0]},
            });
            for (std::size_t k = 0; k < n; ++k)
                entry["mpki_" + std::to_string(k)] =
                    mpkiOf(row[1 + k], simulation_instr);
            if (n == 2) {
                entry["mpki_diff"] = mpkiOf(row[1], simulation_instr) -
                                     mpkiOf(row[2], simulation_instr);
            } else {
                entry["mpki_spread"] =
                    mpkiOf(spreadOf(row), simulation_instr);
            }
            most_failed.push_back(std::move(entry));
        }
    }

    json_t result = json_t::object();
    result["metadata"] = makeMetadata(kName, args, source, dynamic_cond);
    for (std::size_t k = 0; k < n; ++k) {
        json_t md = predictors[k]->metadata_stats();
        // Same unreported-vs-zero-cost distinction as simulate().
        if (reportsStorageOf(*predictors[k]))
            md["storage_bits"] = predictors[k]->storageBits();
        else
            md["storage_bits"] = nullptr;
        result["metadata"]["predictor_" + std::to_string(k)] =
            std::move(md);
    }
    json_t metrics = json_t::object();
    for (std::size_t k = 0; k < n; ++k)
        metrics["mpki_" + std::to_string(k)] =
            mpkiOf(mispredictions[k], simulation_instr);
    for (std::size_t k = 0; k < n; ++k)
        metrics["mispredictions_" + std::to_string(k)] = mispredictions[k];
    for (std::size_t k = 0; k < n; ++k)
        metrics["accuracy_" + std::to_string(k)] =
            accuracyOf(mispredictions[k], dynamic_cond);
    addThroughputMetrics(metrics, source, timing);
    result["metrics"] = std::move(metrics);
    for (std::size_t k = 0; k < n; ++k)
        result["predictor_statistics_" + std::to_string(k)] =
            predictors[k]->execution_stats();
    if (args.collect_most_failed)
        result["most_failed"] = std::move(most_failed);
    return result;
}

/**
 * Opens the trace a run reads: zero-copy slices of an arena (preloaded,
 * or decoded here when in_memory is set and the estimate fits
 * mem_budget) or the streaming block decoder — both cut at the run's
 * instruction limit. Over budget is a silent streaming fallback, never a
 * failure.
 *
 * @param timing Receives the arena decode time as load_seconds.
 * @param error  Receives the failure description.
 * @return The source, or nullptr on error.
 */
inline std::unique_ptr<sbbt::BlockSource>
openTrace(const SimArgs &args, Timing &timing, std::string &error)
{
    timing.load_seconds = 0.0;
    std::shared_ptr<const sbbt::MemTrace> arena = args.preloaded;
    if (arena == nullptr && args.in_memory &&
        (args.mem_budget == 0 ||
         sbbt::MemTrace::estimateFileBytes(args.trace_path) <=
             args.mem_budget)) {
        arena = sbbt::MemTrace::load(args.trace_path, readerOptions(args),
                                     &error);
        if (arena == nullptr)
            return nullptr;
        timing.load_seconds = arena->loadSeconds();
    }
    auto source =
        arena != nullptr
            ? std::make_unique<sbbt::BlockSource>(std::move(arena),
                                                  instrLimit(args))
            : std::make_unique<sbbt::BlockSource>(
                  args.trace_path, readerOptions(args), instrLimit(args));
    if (!source->ok()) {
        error = source->error();
        return nullptr;
    }
    return source;
}

/** @return Index of the first branch of @p block past the warmup. */
inline std::size_t
firstMeasured(const sbbt::Block &block, const SimArgs &args)
{
    return static_cast<std::size_t>(
        std::upper_bound(block.instr, block.instr + block.size,
                         args.warmup_instr) -
        block.instr);
}

/**
 * Compile-time-bound predictor calls. The predictor interface methods
 * are virtual, so a plain `predictor.predict(ip)` through a `P &` still
 * dispatches through the vtable even when P is the concrete type — the
 * compiler cannot rule out a further-derived object behind the
 * reference. The qualified call `predictor.P::predict(ip)` binds at
 * compile time instead, which is what lets the inliner dissolve a cheap
 * predictor into the loop body. When P is abstract (mbp::Predictor,
 * mbp::BlockKernel) the qualified form would name a pure virtual, so
 * these helpers fall back to normal dispatch.
 *
 * Contract, inherited by every fused entry point: when P is concrete it
 * must be the *most-derived* type of the object, since overriders in a
 * further-derived class would be skipped.
 */
template <typename P>
inline bool
boundPredict(P &predictor, std::uint64_t ip)
{
    if constexpr (std::is_abstract_v<P>)
        return predictor.predict(ip);
    else
        return predictor.P::predict(ip);
}

template <typename P>
inline void
boundTrain(P &predictor, const Branch &branch)
{
    if constexpr (std::is_abstract_v<P>)
        predictor.train(branch);
    else
        predictor.P::train(branch);
}

template <typename P>
inline void
boundTrack(P &predictor, const Branch &branch)
{
    if constexpr (std::is_abstract_v<P>)
        predictor.track(branch);
    else
        predictor.P::track(branch);
}

} // namespace mbp::detail

#endif // MBP_SIM_DETAIL_SIM_CORE_HPP
