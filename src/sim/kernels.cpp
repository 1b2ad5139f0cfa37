/**
 * @file
 * The N-predictor block driver behind compare(), simulateMany(),
 * simulateManyFused() and compareFused().
 *
 * Per block, each kernel runs the block through its predictor (one
 * virtual runBlock call per block x predictor) and records its
 * prediction bits; a shared accounting pass then consumes the guess rows
 * — misprediction totals, per-site ranking rows through the blocks'
 * dense site ids, and the prediction hook, replayed from the recorded
 * guesses branch-major with the predictor index ascending.
 */
#include "mbp/sim/kernels.hpp"

#include <chrono>
#include <cstdint>
#include <vector>

#include "mbp/sbbt/blocks.hpp"
#include "mbp/sim/detail/sim_core.hpp"

namespace mbp
{

namespace
{

/** Accumulated state of an N-predictor run. */
struct ManyState
{
    std::uint64_t dynamic_cond = 0;
    std::vector<std::uint64_t> mispredictions;
    // Lazy flat ranking rows, stride 1 + n, addressed through the dense
    // site ids (same layout detail::buildManyDoc consumes).
    std::vector<std::uint32_t> site_row; // value = row index + 1
    std::vector<std::uint64_t> rows;
    std::vector<std::uint64_t> row_ips;
    std::string error;
};

/**
 * The accounting pass over one block's guess rows. kHook/kCollect
 * specialize the body like the single-predictor loop; @p mid is the
 * index of the block's first measured branch.
 */
template <bool kHook, bool kCollect>
void
accountBlock(const sbbt::Block &block, std::size_t mid, std::size_t n,
             const SimArgs &args,
             const std::vector<std::vector<std::uint8_t>> &guesses,
             ManyState &state)
{
    const std::size_t stride = 1 + n;
    for (std::size_t i = 0; i < block.size; ++i) {
        const std::uint8_t m = block.meta[i];
        if ((m & sbbt::kMetaConditional) == 0)
            continue;
        const bool measured = i >= mid;
        if constexpr (kHook) {
            const Branch b = block.branch(i);
            for (std::size_t k = 0; k < n; ++k)
                args.prediction_hook(b, guesses[k][i] != 0, block.instr[i],
                                     measured, k);
        }
        if (!measured)
            continue;
        ++state.dynamic_cond;
        const std::uint8_t taken = (m & sbbt::kMetaTaken) != 0 ? 1 : 0;
        if constexpr (kCollect) {
            std::uint32_t &slot = state.site_row[block.site[i]];
            if (slot == 0) {
                if (detail::rowIndexWouldOverflow(state.row_ips.size()) ||
                    detail::rowAllocWouldOverflow(state.row_ips.size(),
                                                  stride)) {
                    state.error = detail::kSiteOverflowError;
                    return;
                }
                state.row_ips.push_back(block.ip(i));
                state.rows.resize(state.rows.size() + stride, 0);
                slot = static_cast<std::uint32_t>(state.row_ips.size());
            }
            std::uint64_t *row =
                state.rows.data() + std::size_t(slot - 1) * stride;
            ++row[0];
            for (std::size_t k = 0; k < n; ++k) {
                if (guesses[k][i] != taken) {
                    ++row[1 + k];
                    ++state.mispredictions[k];
                }
            }
        } else {
            for (std::size_t k = 0; k < n; ++k) {
                if (guesses[k][i] != taken)
                    ++state.mispredictions[k];
            }
        }
    }
}

} // namespace

json_t
detail::simulateKernels(const char *kName,
                        const std::vector<BlockKernel *> &kernels,
                        const SimArgs &args)
{
    if (kernels.empty())
        return errorResult(kName, args, "no predictors to simulate");
    for (const BlockKernel *kernel : kernels) {
        if (kernel == nullptr)
            return errorResult(kName, args, "null predictor");
    }
    Timing timing;
    std::string error;
    std::unique_ptr<sbbt::BlockSource> source =
        openTrace(args, timing, error);
    if (source == nullptr)
        return errorResult(kName, args, error);

    const std::size_t n = kernels.size();
    ManyState state;
    state.mispredictions.assign(n, 0);
    const bool hook = static_cast<bool>(args.prediction_hook);
    const bool collect = args.collect_most_failed;
    const bool track_all = !args.track_only_conditional;
    std::vector<std::vector<std::uint8_t>> guesses(
        n, std::vector<std::uint8_t>(sbbt::kBlockBranches, 0));

    auto start_time = std::chrono::steady_clock::now();
    sbbt::Block block;
    while (state.error.empty() && source->next(block)) {
        if (collect)
            state.site_row.resize(source->numSites(), 0);
        for (std::size_t k = 0; k < n; ++k)
            kernels[k]->runBlock(block, track_all, guesses[k].data());
        const std::size_t mid = firstMeasured(block, args);
        if (hook) {
            if (collect)
                accountBlock<true, true>(block, mid, n, args, guesses,
                                         state);
            else
                accountBlock<true, false>(block, mid, n, args, guesses,
                                          state);
        } else {
            if (collect)
                accountBlock<false, true>(block, mid, n, args, guesses,
                                          state);
            else
                accountBlock<false, false>(block, mid, n, args, guesses,
                                           state);
        }
    }
    timing.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_time)
                         .count();
    if (!state.error.empty())
        return errorResult(kName, args, state.error);
    if (!source->error().empty())
        return errorResult(kName, args, source->error());
    return buildManyDoc(kName, kernels, args, *source, timing,
                        state.dynamic_cond, state.mispredictions, state.rows,
                        state.row_ips);
}

json_t
simulateManyFused(const std::vector<BlockKernel *> &kernels,
                  const SimArgs &args)
{
    return detail::simulateKernels(detail::kMultiSimulatorName, kernels,
                                   args);
}

json_t
compareFused(BlockKernel &a, BlockKernel &b, const SimArgs &args)
{
    return detail::simulateKernels(detail::kCompareSimulatorName, {&a, &b},
                                   args);
}

} // namespace mbp
