/**
 * @file
 * The standard, comparison and multi-predictor simulators, and the
 * suite driver.
 *
 * The loops live in mbp/sim/kernels.hpp: simulate() is the
 * single-predictor block loop instantiated for the virtual
 * mbp::Predictor base, and compare()/simulateMany() run the N-predictor
 * block driver over each predictor wrapped in FusedKernel<Predictor>.
 * The fused entry points share both loops, so the virtual and fused
 * paths cannot drift apart.
 */
#include "mbp/sim/simulator.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "mbp/sim/detail/sim_core.hpp"
#include "mbp/sim/kernels.hpp"

namespace mbp
{

namespace
{

json_t
runManyNamed(const char *kName, const std::vector<Predictor *> &predictors,
             const SimArgs &args)
{
    std::vector<std::unique_ptr<BlockKernel>> owned;
    std::vector<BlockKernel *> kernels;
    owned.reserve(predictors.size());
    for (Predictor *p : predictors) {
        if (p == nullptr)
            return detail::errorResult(kName, args, "null predictor");
        owned.push_back(std::make_unique<FusedKernel<Predictor>>(*p));
        kernels.push_back(owned.back().get());
    }
    return detail::simulateKernels(kName, kernels, args);
}

} // namespace

json_t
simulate(Predictor &predictor, const SimArgs &args)
{
    return detail::simulateBlocks(detail::kStdSimulatorName, predictor,
                                  args);
}

json_t
compare(Predictor &a, Predictor &b, const SimArgs &args)
{
    return runManyNamed(detail::kCompareSimulatorName, {&a, &b}, args);
}

json_t
simulateMany(const std::vector<Predictor *> &predictors,
             const SimArgs &args)
{
    return runManyNamed(detail::kMultiSimulatorName, predictors, args);
}

json_t
simulateSuite(const std::function<std::unique_ptr<Predictor>()> &factory,
              const std::vector<std::string> &trace_paths,
              const SimArgs &base_args)
{
    json_t traces = json_t::array();
    std::uint64_t total_mispredictions = 0;
    std::uint64_t total_instructions = 0;
    std::uint64_t total_cond = 0;
    double total_time = 0.0;
    double mpki_sum = 0.0;
    std::size_t failures = 0;
    for (const std::string &path : trace_paths) {
        std::unique_ptr<Predictor> predictor = factory();
        SimArgs args = base_args;
        args.trace_path = path;
        json_t result = simulate(*predictor, args);
        if (result.contains("error")) {
            ++failures;
            traces.push_back(std::move(result));
            continue;
        }
        const json_t &metrics = *result.find("metrics");
        total_mispredictions += metrics.find("mispredictions")->asUint();
        total_time += metrics.find("simulation_time")->asDouble();
        mpki_sum += metrics.find("mpki")->asDouble();
        const json_t &md = *result.find("metadata");
        total_instructions += md.find("simulation_instr")->asUint();
        total_cond += md.find("num_conditional_branches")->asUint();
        // Keep the per-trace documents compact: the aggregate consumer
        // rarely wants every trace's full most_failed listing.
        json_t compact = json_t::object();
        compact["metadata"] = md;
        compact["metrics"] = metrics;
        traces.push_back(std::move(compact));
    }
    const std::size_t succeeded = trace_paths.size() - failures;
    json_t out = json_t::object();
    out["summary"] = json_t::object({
        {"num_traces", std::uint64_t(trace_paths.size())},
        {"failed_traces", std::uint64_t(failures)},
        {"amean_mpki", succeeded ? mpki_sum / double(succeeded) : 0.0},
        {"total_mispredictions", total_mispredictions},
        {"total_instructions", total_instructions},
        {"total_conditional_branches", total_cond},
        {"total_simulation_time", total_time},
    });
    out["traces"] = std::move(traces);
    return out;
}

} // namespace mbp
