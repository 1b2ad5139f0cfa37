/**
 * @file
 * Shared internals of the simulator family: the document pieces, the
 * measurement-window arithmetic, the trace opener and the compile-time
 * bound predictor calls.
 *
 * Both loops — the block driver of mbp/sim/kernels.hpp and the front
 * end's per-branch loop — open their trace through openTrace(), read the
 * same sbbt::BlockSource blocks and build their documents from the
 * helpers here, so the metadata and the warmup/limit accounting cannot
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

/** Wall-clock facts of a run: the timed loop, and the one-time arena
 *  decode (0 when streaming, or when the arena arrived preloaded). */
struct Timing
{
    double seconds = 0.0;
    double load_seconds = 0.0;
};

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
