/**
 * @file
 * The simulation loops: one per shape, over sbbt::BlockSource blocks.
 *
 * Every run reads its trace as 4096-branch struct-of-arrays blocks —
 * zero-copy arena slices or blocks decoded on the fly with decode-time
 * dense site ids (mbp/sbbt/blocks.hpp) — and drives the predictors with
 * exactly one of two loops:
 *
 *  - detail::fusedRange<P> for one predictor (simulate(),
 *    simulateFused()). P is the predictor's static type; P =
 *    mbp::Predictor is simply the virtual case, since the bound calls
 *    (detail::boundPredict) dispatch whenever P is abstract;
 *  - the BlockKernel::runBlock + accountBlock driver for N predictors
 *    (compare(), simulateMany() and their fused drop-ins). The virtual
 *    entry points wrap each Predictor in FusedKernel<Predictor>.
 *
 * For a predictor whose concrete type is known at compile time
 * (mbp::PredictorLike, no vtable required) the loops remove the
 * per-branch overhead a cheap predictor would otherwise be dominated by:
 *
 *  - predict/train/track are inlined into the loop body (template
 *    dispatch, zero virtual calls on the single-predictor path and one
 *    per block-x-predictor on the N-predictor path);
 *  - per-site accounting is array indexing through the blocks' dense
 *    site ids, the hashing having been paid once at decode;
 *  - predictors whose address hash factors into a pure per-site value
 *    (KernelSiteFold) get it memoized once per static site per run, so
 *    the single-predictor hot loop does no address hashing at all and
 *    never touches the 8-byte ip column;
 *  - warmup and instruction-limit checks leave the loop entirely: the
 *    source stops at the limit, each block is split at its first
 *    measured branch by binary search, and each range runs a loop
 *    specialized on its measurement flag;
 *  - on the N-predictor driver, predictors exposing
 *    `prefetchHints(ip, span)` (KernelMultiPrefetch) get their counter
 *    lines software-prefetched a fixed distance ahead, covering the
 *    re-warm misses caused by N predictors evicting each other between
 *    blocks — one hint for a single-table predictor, one per tagged bank
 *    for the TAGE family, at a per-predictor distance when they declare
 *    one (P::kPrefetchDistance). (The single-predictor loop deliberately
 *    does not prefetch: its counter lines stay resident on their own,
 *    and the extra hint computation measurably slows the loop.)
 *
 * The fused entry points are drop-ins for the virtual ones: same
 * prediction stream, same output document modulo the timing fields, over
 * streaming and arena sources alike; the conformance suite pins this for
 * the whole roster against an independent reference simulator.
 *
 * @code
 *   Gshare<15, 17> predictor;
 *   mbp::SimArgs args;
 *   args.trace_path = "traces/SHORT_SERVER-1.sbbt.flz";
 *   args.in_memory = true;
 *   mbp::json_t result = mbp::simulateFused(predictor, args);
 * @endcode
 */
#ifndef MBP_SIM_KERNELS_HPP
#define MBP_SIM_KERNELS_HPP

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "mbp/json/json.hpp"
#include "mbp/sbbt/blocks.hpp"
#include "mbp/sim/concepts.hpp"
#include "mbp/sim/detail/sim_core.hpp"
#include "mbp/sim/simulator.hpp"

namespace mbp
{

/**
 * Branches of lookahead for the software counter-line prefetch. Far
 * enough ahead to cover a memory access at a few ns per branch of loop
 * work, near enough that the line is not evicted again before use.
 */
inline constexpr std::size_t kKernelPrefetchDistance = 16;

/**
 * Upper bound on the addresses one prefetchHints() call may produce.
 * Bounds the block driver's stack buffer; predictors with more banks
 * than this simply hint their first kKernelMaxPrefetchHints ones.
 */
inline constexpr std::size_t kKernelMaxPrefetchHints = 16;

/**
 * A predictor that can name the counter lines a future lookup will
 * touch, so the N-predictor block driver can software-prefetch them:
 * `prefetchHints(ip, out)` writes up to out.size() addresses for a
 * lookup of @p ip and returns how many it wrote — one for a single-table
 * predictor, one per tagged bank in the TAGE family. The addresses only
 * steer prefetches and may be approximate (e.g. Gshare hashes with the
 * *current* history, not the one at lookup time) — correctness never
 * depends on them.
 */
template <typename P>
concept KernelMultiPrefetch =
    requires(const P &predictor, std::uint64_t ip,
             std::span<const void *> out) {
        { predictor.prefetchHints(ip, out) }
            -> std::convertible_to<std::size_t>;
    };

/**
 * The prefetch lookahead the block driver uses for @p P: the predictor's
 * own `P::kPrefetchDistance` when it declares one (multi-bank predictors
 * issue many hints per step, so a shorter distance keeps them resident),
 * else the global kKernelPrefetchDistance.
 */
template <typename P>
consteval std::size_t
kernelPrefetchDistanceOf()
{
    if constexpr (requires {
                      { P::kPrefetchDistance } ->
                          std::convertible_to<std::size_t>;
                  })
        return P::kPrefetchDistance;
    else
        return kKernelPrefetchDistance;
}

/**
 * A predictor whose whole per-conditional-branch sequence can run as a
 * single step. `fusedStep(ip, taken)` must be *exactly* equivalent to
 * `predict(ip)`, then `train(b)`, then `track(b)` for a conditional
 * branch b at @p ip with outcome @p taken — so only predictors whose
 * train/track consult nothing but the address and the outcome may offer
 * it. For table predictors this halves the hot loop's hash and index
 * work (the counter slot is computed once) and skips materializing the
 * Branch packet entirely on the conditional path.
 *
 * The single-predictor kernel substitutes the fused step only when no
 * prediction hook is installed, because a hook is entitled to observe
 * the predictor between the calls; the N-predictor block driver always
 * may, since its hooks are replayed from recorded guesses after the
 * block runs.
 */
template <typename P>
concept KernelFusedStep = requires(P &p, std::uint64_t ip, bool taken) {
    { p.fusedStep(ip, taken) } -> std::convertible_to<bool>;
};

/**
 * A fused-step predictor whose address hash factors into a pure per-site
 * component: `siteFold(ip)` must depend on nothing but @p ip, and
 * `fusedStepFolded(siteFold(ip), taken)` must be *exactly*
 * `fusedStep(ip, taken)`. The single-predictor kernel then evaluates
 * `siteFold` once per static branch site and run (through the blocks'
 * dense site ids) instead of once per dynamic branch — for table
 * predictors this removes the whole address hash from the hot loop,
 * which stops reading the 8-byte ip column entirely and indexes a tiny
 * per-site fold table instead.
 */
template <typename P>
concept KernelSiteFold =
    KernelFusedStep<P> &&
    requires(const P &cp, P &p, std::uint64_t ip, std::uint64_t folded,
             bool taken) {
        { cp.siteFold(ip) } -> std::convertible_to<std::uint64_t>;
        { p.fusedStepFolded(folded, taken) } -> std::convertible_to<bool>;
    };

namespace detail
{

/** Best-effort read prefetch of the cache line holding @p address. */
inline void
prefetchLine(const void *address)
{
#if defined(__GNUC__)
    __builtin_prefetch(address, 0, 3);
#else
    (void)address;
#endif
}

/** Accumulated state of a single-predictor run. */
struct FusedRunState
{
    std::uint64_t dynamic_cond = 0;
    std::uint64_t mispredictions = 0;
    // Per-site counters indexed by the blocks' dense site ids: the
    // mispredictions (the only per-site quantity that depends on the
    // predictor) and, unless the source knows them up front
    // (BlockSource::siteCondOccurrences), the measured conditional
    // executions. Together they are the ranking rows.
    std::vector<std::uint64_t> site_mis;
    std::vector<std::uint64_t> site_occ;
    const std::uint64_t *known_occ = nullptr;
    // Per-site address folds (KernelSiteFold), one per site per run.
    std::vector<std::uint64_t> fold;
};

/**
 * The single-predictor loop over branches [begin, end) of @p block, all
 * sharing one measurement flag. kHook/kCollect/kMeasured specialize the
 * body at compile time: the default fast configuration is pure
 * predict/train/track plus two counter increments per branch.
 *
 * Deliberately no software prefetch here: a single predictor's counter
 * lines stay cache-resident between touches of the same site, so an
 * extra per-branch hint computation only slows the loop down (measured
 * ~+1 ns/branch); the N-predictor block driver, where predictors evict
 * each other between blocks, is where prefetch pays (FusedKernel).
 */
template <typename P, bool kHook, bool kCollect, bool kMeasured>
inline void
fusedRange(P &predictor, const SimArgs &args, const sbbt::Block &block,
           std::size_t begin, std::size_t end, FusedRunState &state)
{
    const std::uint64_t *site_ips = block.site_ips;
    const std::uint64_t *targets = block.target;
    const std::uint64_t *instr = block.instr;
    const std::uint8_t *meta = block.meta;
    const std::uint32_t *sites = block.site;
    // A hook may observe the predictor between predict and train, so the
    // fused substitutions only apply on hook-free runs.
    constexpr bool kFusedStep = KernelFusedStep<P> && !kHook;
    constexpr bool kSiteFold = KernelSiteFold<P> && !kHook;
    const std::uint64_t *site_fold = state.fold.data();
    // Locals, not state members: the counter stores below would
    // otherwise force the compiler to reload them every iteration.
    std::uint64_t dynamic_cond = 0;
    std::uint64_t total_miss = 0;
    std::uint64_t *site_mis = state.site_mis.data();
    const bool track_all = !args.track_only_conditional;
    for (std::size_t i = begin; i < end; ++i) {
        const std::uint8_t m = meta[i];
        if ((m & sbbt::kMetaConditional) != 0) {
            const bool taken = (m & sbbt::kMetaTaken) != 0;
            // The address, through the site table (the fold path never
            // needs it); read once, as a call may force a reload.
            [[maybe_unused]] const std::uint64_t ip = site_ips[sites[i]];
            bool guess;
            if constexpr (kSiteFold)
                guess = predictor.fusedStepFolded(site_fold[sites[i]],
                                                  taken);
            else if constexpr (kFusedStep)
                guess = predictor.fusedStep(ip, taken);
            else
                guess = boundPredict(predictor, ip);
            if constexpr (kHook)
                args.prediction_hook(block.branch(i), guess, instr[i],
                                     kMeasured, 0);
            if constexpr (kMeasured) {
                ++dynamic_cond;
                const bool miss = guess != taken;
                total_miss += miss ? 1 : 0;
                if constexpr (kCollect)
                    site_mis[sites[i]] += miss ? 1 : 0;
            }
            if constexpr (!kFusedStep) {
                const Branch b{ip, targets[i], OpCode(m & 0x0f), taken};
                boundTrain(predictor, b);
                boundTrack(predictor, b); // conditionals: always
            }
        } else if (track_all) {
            boundTrack(predictor, block.branch(i));
        }
    }
    state.dynamic_cond += dynamic_cond;
    state.mispredictions += total_miss;
}

/** Drains @p source through fusedRange, block by block. */
template <typename P, bool kHook, bool kCollect>
inline void
fusedRun(P &predictor, const SimArgs &args, sbbt::BlockSource &source,
         FusedRunState &state)
{
    // Per-site occurrence totals for the ranking rows: an arena read to
    // its end with no warmup branch already knows them; otherwise each
    // block counts its measured slice — predictor-free column work, kept
    // inside the timed region like the rest of the accounting.
    state.known_occ = kCollect ? source.siteCondOccurrences() : nullptr;
    sbbt::Block block;
    while (source.next(block)) {
        const std::uint32_t num_sites = source.numSites();
        if constexpr (KernelSiteFold<P> && !kHook) {
            const std::uint64_t *site_ips = source.siteIps();
            for (std::size_t s = state.fold.size(); s < num_sites; ++s)
                state.fold.push_back(predictor.siteFold(site_ips[s]));
        }
        if constexpr (kCollect)
            state.site_mis.resize(num_sites, 0);
        // Instruction numbers only grow, so only a run's first block can
        // hold a warmup branch; then the up-front totals do not apply.
        const std::size_t mid = firstMeasured(block, args);
        if (mid != 0)
            state.known_occ = nullptr;
        fusedRange<P, kHook, kCollect, false>(predictor, args, block, 0,
                                              mid, state);
        fusedRange<P, kHook, kCollect, true>(predictor, args, block, mid,
                                             block.size, state);
        if (kCollect && state.known_occ == nullptr) {
            state.site_occ.resize(num_sites, 0);
            for (std::size_t i = mid; i < block.size; ++i)
                state.site_occ[block.site[i]] +=
                    block.meta[i] & sbbt::kMetaConditional;
        }
    }
}

/** The one-predictor simulation: open, drain through fusedRun, report. */
template <typename P>
json_t
simulateBlocks(const char *kName, P &predictor, const SimArgs &args)
{
    Timing timing;
    std::string error;
    std::unique_ptr<sbbt::BlockSource> source =
        openTrace(args, timing, error);
    if (source == nullptr)
        return errorResult(kName, args, error);

    FusedRunState state;
    const bool hook = static_cast<bool>(args.prediction_hook);
    auto start_time = std::chrono::steady_clock::now();
    if (hook) {
        if (args.collect_most_failed)
            fusedRun<P, true, true>(predictor, args, *source, state);
        else
            fusedRun<P, true, false>(predictor, args, *source, state);
    } else {
        if (args.collect_most_failed)
            fusedRun<P, false, true>(predictor, args, *source, state);
        else
            fusedRun<P, false, false>(predictor, args, *source, state);
    }
    timing.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_time)
                         .count();
    if (!source->error().empty())
        return errorResult(kName, args, source->error());

    std::vector<std::pair<std::uint64_t, BranchStat>> rows;
    if (args.collect_most_failed) {
        const std::uint64_t *site_occ = state.known_occ != nullptr
                                            ? state.known_occ
                                            : state.site_occ.data();
        const std::uint64_t *site_ips = source->siteIps();
        for (std::size_t s = 0; s < state.site_mis.size(); ++s) {
            if (state.site_mis[s] > 0)
                rows.emplace_back(site_ips[s], BranchStat{site_occ[s],
                                                          state.site_mis[s]});
        }
    }
    return buildSimulateDoc(kName, predictor, args, *source, timing,
                            state.dynamic_cond, state.mispredictions,
                            std::move(rows));
}

} // namespace detail

/**
 * Fused drop-in for simulate(): same SimArgs contract, same output
 * document (modulo timing fields), but with @p predictor's concrete type
 * known at compile time so the hot loop carries no virtual dispatch.
 * P must be the most-derived type of @p predictor: the loop binds
 * predict/train/track at compile time (detail::boundPredict), which would
 * skip overriders in a class further derived from P.
 */
template <PredictorLike P>
json_t
simulateFused(P &predictor, const SimArgs &args)
{
    return detail::simulateBlocks(detail::kStdSimulatorName, predictor,
                                  args);
}

/**
 * Type-erased handle to a predictor for the N-predictor driver: one
 * virtual runBlock() per block x predictor runs a whole block through the
 * predictor's inlined predict/train/track and records the prediction
 * bits for the shared accounting pass. The remaining virtuals feed the
 * report. Deliberately *not* a mbp::Predictor (no storage_components),
 * so the fused and virtual entry points can never be confused by
 * overload resolution.
 */
class BlockKernel
{
  public:
    BlockKernel() = default;
    BlockKernel(const BlockKernel &) = delete;
    BlockKernel &operator=(const BlockKernel &) = delete;
    virtual ~BlockKernel() = default;

    virtual json_t metadata_stats() const = 0;
    virtual json_t execution_stats() const = 0;
    virtual std::uint64_t storageBits() const = 0;
    virtual bool reportsStorage() const = 0;

    /**
     * Runs every branch of @p block through the predictor — predict +
     * train on conditionals, track per @p track_all — and writes each
     * branch's prediction (0/1; 0 for unconditionals) to @p guesses[i].
     * @p guesses must hold block.size bytes.
     */
    virtual void runBlock(const sbbt::Block &block, bool track_all,
                          std::uint8_t *guesses) = 0;
};

/**
 * The one BlockKernel implementation. P is a concrete PredictorLike type
 * (inlined calls) or mbp::Predictor (virtual calls, as compare() and
 * simulateMany() use it).
 */
template <PredictorLike P>
class FusedKernel final : public BlockKernel
{
  public:
    /** Wraps a caller-owned predictor (must outlive the kernel). */
    explicit FusedKernel(P &predictor) : predictor_(&predictor) {}

    /** Wraps and owns a predictor. */
    explicit FusedKernel(std::unique_ptr<P> predictor)
        : owned_(std::move(predictor)), predictor_(owned_.get())
    {
    }

    json_t metadata_stats() const override
    {
        return predictor_->metadata_stats();
    }
    json_t execution_stats() const override
    {
        return predictor_->execution_stats();
    }
    std::uint64_t storageBits() const override
    {
        return predictor_->storageBits();
    }
    bool reportsStorage() const override
    {
        return detail::reportsStorageOf(*predictor_);
    }

    void
    runBlock(const sbbt::Block &block, bool track_all,
             std::uint8_t *guesses) override
    {
        P &p = *predictor_;
        const std::uint64_t *site_ips = block.site_ips;
        const std::uint32_t *sites = block.site;
        const std::uint8_t *meta = block.meta;
        const std::size_t end = block.size;
        for (std::size_t i = 0; i < end; ++i) {
            if constexpr (KernelMultiPrefetch<P>) {
                const std::size_t ahead = i + kernelPrefetchDistanceOf<P>();
                if (ahead < end) {
                    const void *hints[kKernelMaxPrefetchHints];
                    const std::size_t n = p.prefetchHints(
                        site_ips[sites[ahead]],
                        std::span<const void *>(hints));
                    for (std::size_t h = 0; h < n; ++h)
                        detail::prefetchLine(hints[h]);
                }
            }
            const std::uint8_t m = meta[i];
            if ((m & sbbt::kMetaConditional) != 0) {
                const bool taken = (m & sbbt::kMetaTaken) != 0;
                const std::uint64_t ip = site_ips[sites[i]];
                bool guess;
                if constexpr (KernelFusedStep<P>) {
                    guess = p.fusedStep(ip, taken);
                } else {
                    guess = detail::boundPredict(p, ip);
                    const Branch b{ip, block.target[i], OpCode(m & 0x0f),
                                   taken};
                    detail::boundTrain(p, b);
                    detail::boundTrack(p, b);
                }
                guesses[i] = guess ? 1 : 0;
            } else {
                guesses[i] = 0;
                if (track_all)
                    detail::boundTrack(p, block.branch(i));
            }
        }
    }

  private:
    std::unique_ptr<P> owned_; // empty in the borrowing mode
    P *predictor_;
};

namespace detail
{

/**
 * The N-predictor simulation behind compare(), simulateMany() and their
 * fused drop-ins: per block, every kernel runs the block and records its
 * guesses, then one accounting pass consumes them (@p kName names the
 * document's simulator).
 */
json_t simulateKernels(const char *kName,
                       const std::vector<BlockKernel *> &kernels,
                       const SimArgs &args);

} // namespace detail

/**
 * Fused drop-in for simulateMany() over pre-built kernels: one pass over
 * the trace feeds all predictors block by block, interleaved so each
 * block's columns are read once while hot. Same output document as
 * simulateMany() (modulo timing fields).
 */
json_t simulateManyFused(const std::vector<BlockKernel *> &kernels,
                         const SimArgs &args);

/** Fused drop-in for compare() over pre-built kernels. */
json_t compareFused(BlockKernel &a, BlockKernel &b, const SimArgs &args);

/**
 * Fused simulateMany() over concrete predictors: wraps each in a
 * FusedKernel on the stack and runs the block driver.
 */
template <PredictorLike... Ps>
json_t
simulateManyFused(const SimArgs &args, Ps &...predictors)
{
    // Direct-initialization through the tuple's converting constructor:
    // kernels are neither copyable nor movable, so each element must be
    // built in place from its predictor reference.
    std::tuple<FusedKernel<Ps>...> kernels(predictors...);
    std::vector<BlockKernel *> pointers;
    pointers.reserve(sizeof...(Ps));
    std::apply([&](auto &...kernel) { (pointers.push_back(&kernel), ...); },
               kernels);
    return simulateManyFused(pointers, args);
}

/** Fused compare() over two concrete predictors. */
template <PredictorLike A, PredictorLike B>
json_t
compareFused(A &a, B &b, const SimArgs &args)
{
    FusedKernel<A> kernel_a(a);
    FusedKernel<B> kernel_b(b);
    return compareFused(kernel_a, kernel_b, args);
}

} // namespace mbp

#endif // MBP_SIM_KERNELS_HPP
