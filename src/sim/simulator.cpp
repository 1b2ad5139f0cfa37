/**
 * @file
 * The standard, comparison and multi-predictor simulators over virtual
 * predictors.
 *
 * Each wraps its predictors in FusedKernel<Predictor> and runs the one
 * block driver of mbp/sim/kernels.hpp (detail::simulateKernels):
 * simulate() with one kernel, compare() and simulateMany() with N. The
 * fused entry points run the same driver over concrete kernels, so the
 * virtual and fused paths cannot drift apart.
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
    return runManyNamed(detail::kStdSimulatorName, {&predictor}, args);
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

} // namespace mbp
