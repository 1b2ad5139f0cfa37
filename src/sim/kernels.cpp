/**
 * @file
 * The block driver behind every conditional-branch simulator —
 * simulate(), compare(), simulateMany() and their fused drop-ins — and
 * the two documents it emits.
 *
 * Per block, each kernel runs the block through its predictor (one
 * virtual runBlock call per block x predictor) and accounts it into its
 * own per-site misprediction array, indexed by the blocks' dense site
 * ids. The driver adds the predictor-free parts: per-site occurrence
 * totals (read from the arena when the run covers it whole, counted per
 * block otherwise) and the prediction hook, replayed from the recorded
 * guesses branch-major with the predictor index ascending.
 */
#include "mbp/sim/kernels.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mbp/sbbt/blocks.hpp"
#include "mbp/sim/detail/sim_core.hpp"

namespace mbp
{

namespace
{

using detail::KernelTally;

/**
 * The predictor's metadata with its storage budget: a design that
 * reports its storage — via a non-zero storageBits() or a declared
 * (possibly zero-total) component tree — gets the number, including a
 * true 0 for storage-free designs; one that reports nothing gets an
 * explicit null so "unreported" can never be mistaken for "zero-cost".
 */
json_t
predictorMetadata(const BlockKernel &kernel)
{
    json_t md = kernel.metadata_stats();
    if (kernel.reportsStorage())
        md["storage_bits"] = kernel.storageBits();
    else
        md["storage_bits"] = nullptr;
    return md;
}

/**
 * The simulate() document of a one-kernel run over the drained
 * @p source. @p occurrences holds the measured conditional executions
 * per site (when collecting).
 */
json_t
simulateDoc(const char *kName, const BlockKernel &kernel,
            const SimArgs &args, const sbbt::BlockSource &source,
            const detail::Timing &timing, const KernelTally &tally,
            const std::uint64_t *occurrences)
{
    using detail::accuracyOf;
    using detail::mpkiOf;
    const std::uint64_t simulation_instr = detail::measuredInstr(args, source);
    const std::uint64_t mispredictions = tally.mispredictions;
    json_t result = json_t::object();
    result["metadata"] =
        detail::makeMetadata(kName, args, source, tally.conditionals);
    result["metadata"]["predictor"] = predictorMetadata(kernel);
    json_t metrics = json_t::object({
        {"mpki", mpkiOf(mispredictions, simulation_instr)},
        {"mispredictions", mispredictions},
        {"accuracy", accuracyOf(mispredictions, tally.conditionals)},
    });

    // Rank branches by mispredictions, the ip breaking ties;
    // num_most_failed_branches is the minimum number of branches that
    // account, on their own, for half of the mispredictions. Without
    // per-branch collection the ranking has no data, so both the metric
    // and the most_failed section are omitted entirely rather than
    // reported as a misleading hard zero.
    json_t most_failed = json_t::array();
    if (args.collect_most_failed) {
        const std::vector<std::uint64_t> &site_mis = tally.site_mis;
        const std::uint64_t *site_ips = source.siteIps();
        std::vector<std::uint32_t> ranked;
        for (std::uint32_t s = 0; s < site_mis.size(); ++s) {
            if (site_mis[s] > 0)
                ranked.push_back(s);
        }
        std::sort(ranked.begin(), ranked.end(),
                  [&](std::uint32_t x, std::uint32_t y) {
                      if (site_mis[x] != site_mis[y])
                          return site_mis[x] > site_mis[y];
                      return site_ips[x] < site_ips[y];
                  });
        std::uint64_t half = (mispredictions + 1) / 2;
        std::uint64_t running = 0;
        std::size_t num_most_failed = 0;
        while (num_most_failed < ranked.size() && running < half)
            running += site_mis[ranked[num_most_failed++]];
        for (std::size_t i = 0;
             i < std::min(num_most_failed, args.most_failed_cap); ++i) {
            const std::uint32_t s = ranked[i];
            most_failed.push_back(json_t::object({
                {"ip", site_ips[s]},
                {"occurrences", occurrences[s]},
                {"mpki", mpkiOf(site_mis[s], simulation_instr)},
                {"accuracy", accuracyOf(site_mis[s], occurrences[s])},
            }));
        }
        metrics["num_most_failed_branches"] =
            std::uint64_t(num_most_failed);
    }

    detail::addThroughputMetrics(metrics, source, timing);
    result["metrics"] = std::move(metrics);
    result["predictor_statistics"] = kernel.execution_stats();
    if (args.collect_most_failed)
        result["most_failed"] = std::move(most_failed);
    return result;
}

/**
 * The compare()/simulateMany() document of a run over the drained
 * @p source, one tally per kernel.
 */
json_t
manyDoc(const char *kName, const std::vector<BlockKernel *> &kernels,
        const SimArgs &args, const sbbt::BlockSource &source,
        const detail::Timing &timing,
        const std::vector<KernelTally> &tallies,
        const std::uint64_t *occurrences)
{
    using detail::mpkiOf;
    const std::uint64_t simulation_instr = detail::measuredInstr(args, source);
    const std::uint64_t dynamic_cond = tallies[0].conditionals;
    const std::size_t n = kernels.size();

    // Rank by the spread in mispredictions (max − min across predictors):
    // the branches whose predictability changed the most between designs.
    // For two predictors this is exactly compare()'s absolute difference.
    auto spreadOf = [&](std::uint32_t s) {
        std::uint64_t lo = tallies[0].site_mis[s];
        std::uint64_t hi = lo;
        for (std::size_t k = 1; k < n; ++k) {
            lo = std::min(lo, tallies[k].site_mis[s]);
            hi = std::max(hi, tallies[k].site_mis[s]);
        }
        return hi - lo;
    };

    json_t most_failed = json_t::array();
    if (args.collect_most_failed) {
        const std::uint64_t *site_ips = source.siteIps();
        std::vector<std::uint32_t> ranked;
        for (std::uint32_t s = 0; s < tallies[0].site_mis.size(); ++s) {
            if (spreadOf(s) > 0)
                ranked.push_back(s);
        }
        std::sort(ranked.begin(), ranked.end(),
                  [&](std::uint32_t x, std::uint32_t y) {
                      const std::uint64_t dx = spreadOf(x);
                      const std::uint64_t dy = spreadOf(y);
                      if (dx != dy)
                          return dx > dy;
                      return site_ips[x] < site_ips[y];
                  });
        for (std::size_t i = 0;
             i < std::min(ranked.size(), args.most_failed_cap); ++i) {
            const std::uint32_t s = ranked[i];
            json_t entry = json_t::object({
                {"ip", site_ips[s]},
                {"occurrences", occurrences[s]},
            });
            for (std::size_t k = 0; k < n; ++k)
                entry["mpki_" + std::to_string(k)] =
                    mpkiOf(tallies[k].site_mis[s], simulation_instr);
            if (n == 2) {
                entry["mpki_diff"] =
                    mpkiOf(tallies[0].site_mis[s], simulation_instr) -
                    mpkiOf(tallies[1].site_mis[s], simulation_instr);
            } else {
                entry["mpki_spread"] = mpkiOf(spreadOf(s), simulation_instr);
            }
            most_failed.push_back(std::move(entry));
        }
    }

    json_t result = json_t::object();
    result["metadata"] =
        detail::makeMetadata(kName, args, source, dynamic_cond);
    for (std::size_t k = 0; k < n; ++k)
        result["metadata"]["predictor_" + std::to_string(k)] =
            predictorMetadata(*kernels[k]);
    json_t metrics = json_t::object();
    for (std::size_t k = 0; k < n; ++k)
        metrics["mpki_" + std::to_string(k)] =
            mpkiOf(tallies[k].mispredictions, simulation_instr);
    for (std::size_t k = 0; k < n; ++k)
        metrics["mispredictions_" + std::to_string(k)] =
            tallies[k].mispredictions;
    for (std::size_t k = 0; k < n; ++k)
        metrics["accuracy_" + std::to_string(k)] =
            detail::accuracyOf(tallies[k].mispredictions, dynamic_cond);
    detail::addThroughputMetrics(metrics, source, timing);
    result["metrics"] = std::move(metrics);
    for (std::size_t k = 0; k < n; ++k)
        result["predictor_statistics_" + std::to_string(k)] =
            kernels[k]->execution_stats();
    if (args.collect_most_failed)
        result["most_failed"] = std::move(most_failed);
    return result;
}

/**
 * Fires the prediction hook for every conditional branch of @p block
 * from the kernels' recorded guesses: branch-major, kernel index
 * ascending.
 */
void
replayHooks(const sbbt::Block &block, std::size_t mid, const SimArgs &args,
            const std::vector<KernelTally> &tallies)
{
    for (std::size_t i = 0; i < block.size; ++i) {
        if ((block.meta[i] & sbbt::kMetaConditional) == 0)
            continue;
        const Branch b = block.branch(i);
        for (std::size_t k = 0; k < tallies.size(); ++k)
            args.prediction_hook(b, tallies[k].guesses[i] != 0,
                                 block.instr[i], i >= mid, k);
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
    const bool hook = static_cast<bool>(args.prediction_hook);
    const bool collect = args.collect_most_failed;
    std::vector<KernelTally> tallies(n);
    if (hook) {
        for (KernelTally &tally : tallies)
            tally.guesses.assign(sbbt::kBlockBranches, 0);
    }
    // Per-site occurrence totals for the ranking rows: an arena read to
    // its end with no warmup branch already knows them; otherwise each
    // block counts its measured slice — predictor-free column work, kept
    // inside the timed region like the rest of the accounting.
    const std::uint64_t *known_occ =
        collect ? source->siteCondOccurrences() : nullptr;
    std::vector<std::uint64_t> site_occ;

    auto start_time = std::chrono::steady_clock::now();
    sbbt::Block block;
    KernelBlock work{block};
    work.track_all = !args.track_only_conditional;
    work.prefetch = n > 1;
    while (source->next(block)) {
        work.num_sites = source->numSites();
        work.mid = firstMeasured(block, args);
        if (collect) {
            for (KernelTally &tally : tallies)
                tally.site_mis.resize(work.num_sites, 0);
        }
        for (std::size_t k = 0; k < n; ++k)
            kernels[k]->runBlock(work, tallies[k]);
        work.restart = false;
        if (hook)
            replayHooks(block, work.mid, args, tallies);
        // Instruction numbers only grow, so only a run's first block can
        // hold a warmup branch; then the up-front totals do not apply.
        if (work.mid != 0)
            known_occ = nullptr;
        if (collect && known_occ == nullptr) {
            site_occ.resize(work.num_sites, 0);
            for (std::size_t i = work.mid; i < block.size; ++i)
                site_occ[block.site[i]] +=
                    block.meta[i] & sbbt::kMetaConditional;
        }
    }
    timing.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_time)
                         .count();
    if (!source->error().empty())
        return errorResult(kName, args, source->error());

    const std::uint64_t *occurrences =
        known_occ != nullptr ? known_occ : site_occ.data();
    if (n == 1 && std::string_view(kName) == kStdSimulatorName)
        return simulateDoc(kName, *kernels[0], args, *source, timing,
                           tallies[0], occurrences);
    return manyDoc(kName, kernels, args, *source, timing, tallies,
                   occurrences);
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
