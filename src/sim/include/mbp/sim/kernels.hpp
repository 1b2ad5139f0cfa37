/**
 * @file
 * The simulation loop: one block driver over sbbt::BlockSource blocks,
 * for any number of predictors.
 *
 * Every run reads its trace as 4096-branch struct-of-arrays blocks —
 * zero-copy arena slices or blocks decoded on the fly with decode-time
 * dense site ids (mbp/sbbt/blocks.hpp) — and hands each block to every
 * predictor's BlockKernel in turn (one virtual runBlock() per block x
 * predictor). simulate()/simulateFused() are that driver with one
 * kernel; compare(), simulateMany() and their fused drop-ins run it with
 * N. The one kernel implementation is FusedKernel<P>: P is the
 * predictor's static type, and P = mbp::Predictor is simply the virtual
 * case, since the bound calls (detail::boundPredict) dispatch whenever P
 * is abstract.
 *
 * For a predictor whose concrete type is known at compile time
 * (mbp::PredictorLike, no vtable required) the kernel removes the
 * per-branch overhead a cheap predictor would otherwise be dominated by:
 *
 *  - predict/train/track are inlined into the loop body (template
 *    dispatch, zero virtual calls per branch);
 *  - mispredictions are counted inline, per site, into plain arrays
 *    indexed by the blocks' dense site ids, the hashing having been paid
 *    once at decode;
 *  - predictors whose address hash factors into a pure per-site value
 *    (KernelSiteFold) get it memoized once per static site per run, so
 *    the hot loop does no address hashing at all and never reads the
 *    site address table;
 *  - warmup and instruction-limit checks leave the loop entirely: the
 *    source stops at the limit, each block is split at its first
 *    measured branch by binary search, and each slice runs a loop
 *    specialized on its measurement flag;
 *  - when more than one kernel shares the run, predictors exposing
 *    `prefetchHints(ip, span)` (KernelMultiPrefetch) get their counter
 *    lines software-prefetched a fixed distance ahead, covering the
 *    re-warm misses caused by N predictors evicting each other between
 *    blocks — one hint for a single-table predictor, one per tagged bank
 *    for the TAGE family, at a per-predictor distance when they declare
 *    one (P::kPrefetchDistance). A lone predictor is not prefetched: its
 *    counter lines stay resident on their own, and the extra hint
 *    computation measurably slows the loop.
 *
 * Prediction hooks never enter the loop: with a hook installed each
 * kernel records its guesses, and the driver replays them per block,
 * branch-major with the predictor index ascending.
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
 * Bounds the kernel's stack buffer; predictors with more banks than
 * this simply hint their first kKernelMaxPrefetchHints ones.
 */
inline constexpr std::size_t kKernelMaxPrefetchHints = 16;

/**
 * A predictor that can name the counter lines a future lookup will
 * touch, so the block driver can software-prefetch them when it runs
 * more than one predictor: `prefetchHints(ip, out)` writes up to
 * out.size() addresses for a lookup of @p ip and returns how many it
 * wrote — one for a single-table predictor, one per tagged bank in the
 * TAGE family. The addresses only steer prefetches and may be
 * approximate (e.g. Gshare hashes with the *current* history, not the
 * one at lookup time) — correctness never depends on them.
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
 * Branch packet entirely on the conditional path. The kernel always
 * substitutes it, hooked runs included: hooks replay from recorded
 * guesses after the block, never between predict and train.
 */
template <typename P>
concept KernelFusedStep = requires(P &p, std::uint64_t ip, bool taken) {
    { p.fusedStep(ip, taken) } -> std::convertible_to<bool>;
};

/**
 * A fused-step predictor whose address hash factors into a pure per-site
 * component: `siteFold(ip)` must depend on nothing but @p ip, and
 * `fusedStepFolded(siteFold(ip), taken)` must be *exactly*
 * `fusedStep(ip, taken)`. The kernel then evaluates `siteFold` once per
 * static branch site and run (through the blocks' dense site ids)
 * instead of once per dynamic branch — for table predictors this
 * removes the whole address hash from the hot loop, which indexes a tiny
 * per-site fold table instead of reading the site address table.
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

/** What the block driver hands every kernel for one block. */
struct KernelBlock
{
    const sbbt::Block &block;
    /** Index of the block's first measured (post-warmup) branch. */
    std::size_t mid = 0;
    /** Sites the source has seen so far; every block.site id is below. */
    std::uint32_t num_sites = 0;
    /** The run's first block: site ids restart, so per-site memos go. */
    bool restart = true;
    /** Forward unconditional branches to track() too. */
    bool track_all = true;
    /** More than one kernel shares the run (KernelMultiPrefetch). */
    bool prefetch = false;
};

/**
 * One kernel's accounting over a run, owned by the block driver and
 * written by BlockKernel::runBlock. Counts cover measured branches only.
 */
struct KernelTally
{
    std::uint64_t conditionals = 0;
    std::uint64_t mispredictions = 0;
    /** Mispredictions per site id; sized by the driver to the source's
     *  sites when the run collects the ranking, else empty. */
    std::vector<std::uint64_t> site_mis;
    /** The last block's guess per branch (conditionals only); one
     *  block's worth when a prediction hook is installed, else empty. */
    std::vector<std::uint8_t> guesses;
};

} // namespace detail

/**
 * Type-erased handle to a predictor for the block driver: one virtual
 * runBlock() per block x predictor runs a whole block through the
 * predictor's inlined predict/train/track and accounts it. The remaining
 * virtuals feed the report. Deliberately *not* a mbp::Predictor (no
 * storage_components), so the fused and virtual entry points can never
 * be confused by overload resolution.
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
     * Runs every branch of @p work.block through the predictor — predict
     * + train on conditionals, track per work.track_all — and adds the
     * measured slice's counts to @p tally: per-site mispredictions when
     * tally.site_mis is sized, each conditional's guess when
     * tally.guesses is.
     */
    virtual void runBlock(const detail::KernelBlock &work,
                          detail::KernelTally &tally) = 0;
};

/**
 * The one BlockKernel implementation. P is a concrete PredictorLike type
 * (inlined calls) or mbp::Predictor (virtual calls, as simulate(),
 * compare() and simulateMany() use it).
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
    runBlock(const detail::KernelBlock &work,
             detail::KernelTally &tally) override
    {
        if constexpr (KernelSiteFold<P>) {
            if (work.restart)
                fold_.clear();
            for (std::size_t s = fold_.size(); s < work.num_sites; ++s)
                fold_.push_back(
                    predictor_->siteFold(work.block.site_ips[s]));
        }
        const bool record = !tally.guesses.empty();
        if constexpr (KernelMultiPrefetch<P>) {
            if (work.prefetch) {
                if (record)
                    runSlices<true, true>(work, tally);
                else
                    runSlices<true, false>(work, tally);
                return;
            }
        }
        if (record)
            runSlices<false, true>(work, tally);
        else
            runSlices<false, false>(work, tally);
    }

  private:
    /** The block's warmup slice, then its measured one. */
    template <bool kPrefetch, bool kRecord>
    void
    runSlices(const detail::KernelBlock &work, detail::KernelTally &tally)
    {
        const std::size_t end = work.block.size;
        runRange<kPrefetch, kRecord, false, false>(work, 0, work.mid,
                                                   tally);
        if (tally.site_mis.empty())
            runRange<kPrefetch, kRecord, true, false>(work, work.mid, end,
                                                      tally);
        else
            runRange<kPrefetch, kRecord, true, true>(work, work.mid, end,
                                                     tally);
    }

    /**
     * The loop over branches [begin, end) of the block, all sharing one
     * measurement flag. The flags specialize the body at compile time:
     * the default fast configuration is pure predict/train/track plus
     * two counter increments per branch. Kept out of line so each
     * specialization gets its own inlining budget: folded into
     * runBlock() next to its siblings, GShare's step measurably stopped
     * being inlined into the loop.
     */
    template <bool kPrefetch, bool kRecord, bool kMeasured, bool kCollect>
    [[gnu::noinline]] void
    runRange(const detail::KernelBlock &work, std::size_t begin,
             std::size_t end, detail::KernelTally &tally)
    {
        P &p = *predictor_;
        const sbbt::Block &block = work.block;
        const std::uint64_t *site_ips = block.site_ips;
        const std::uint32_t *sites = block.site;
        const std::uint8_t *meta = block.meta;
        const std::uint64_t *site_fold = fold_.data();
        std::uint64_t *site_mis = tally.site_mis.data();
        std::uint8_t *guesses = tally.guesses.data();
        const bool track_all = work.track_all;
        // Locals, not tally members: the counter stores below would
        // otherwise force the compiler to reload them every iteration.
        std::uint64_t conditionals = 0;
        std::uint64_t misses = 0;
        for (std::size_t i = begin; i < end; ++i) {
            if constexpr (kPrefetch) {
                const std::size_t ahead = i + kernelPrefetchDistanceOf<P>();
                if (ahead < block.size) {
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
                // The address, through the site table (the fold path
                // never needs it); read once, as a call may force a
                // reload.
                [[maybe_unused]] const std::uint64_t ip = site_ips[sites[i]];
                bool guess;
                if constexpr (KernelSiteFold<P>)
                    guess = p.fusedStepFolded(site_fold[sites[i]], taken);
                else if constexpr (KernelFusedStep<P>)
                    guess = p.fusedStep(ip, taken);
                else
                    guess = detail::boundPredict(p, ip);
                if constexpr (kRecord)
                    guesses[i] = guess ? 1 : 0;
                if constexpr (kMeasured) {
                    ++conditionals;
                    const bool miss = guess != taken;
                    misses += miss ? 1 : 0;
                    if constexpr (kCollect)
                        site_mis[sites[i]] += miss ? 1 : 0;
                }
                if constexpr (!KernelFusedStep<P>) {
                    const Branch b{ip, block.target[i], OpCode(m & 0x0f),
                                   taken};
                    detail::boundTrain(p, b);
                    detail::boundTrack(p, b); // conditionals: always
                }
            } else if (track_all) {
                detail::boundTrack(p, block.branch(i));
            }
        }
        tally.conditionals += conditionals;
        tally.mispredictions += misses;
    }

    std::unique_ptr<P> owned_; // empty in the borrowing mode
    P *predictor_;
    // Per-site address folds (KernelSiteFold) of the current run.
    std::vector<std::uint64_t> fold_;
};

namespace detail
{

/**
 * The block driver behind every conditional-branch simulator: per
 * block, each kernel runs the block and accounts it, then the
 * prediction hook (if any) replays the recorded guesses. With
 * @p kName kStdSimulatorName and one kernel it emits the simulate()
 * document; otherwise the compare()/simulateMany() one, titled
 * @p kName.
 */
json_t simulateKernels(const char *kName,
                       const std::vector<BlockKernel *> &kernels,
                       const SimArgs &args);

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
    FusedKernel<P> kernel(predictor);
    return detail::simulateKernels(detail::kStdSimulatorName, {&kernel},
                                   args);
}

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
