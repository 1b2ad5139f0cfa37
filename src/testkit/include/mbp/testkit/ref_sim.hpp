/**
 * @file
 * A deliberately naive reference simulator: the independent oracle for
 * the block-driven simulate()/simulateMany().
 *
 * It reads the trace branch by branch through sbbt::SbbtReader (never
 * an arena, whatever SimArgs asks), calls predict/train/track per branch
 * in the order the paper's Listing 1 loop does, keeps every count in a
 * std::map, and shares no code with the simulator's internals
 * (mbp/sim/detail). diffSimulate()/diffMany() then compare a driver
 * document against it field by field: the counts, the measurement
 * window and the `most_failed` ranking.
 */
#ifndef MBP_TESTKIT_REF_SIM_HPP
#define MBP_TESTKIT_REF_SIM_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "mbp/json/json.hpp"
#include "mbp/sim/predictor.hpp"
#include "mbp/sim/simulator.hpp"

namespace mbp::testkit
{

/** What a reference run observed. */
struct RefSimResult
{
    /** Reader error ("" on success); the other fields are then void. */
    std::string error;
    std::uint64_t simulation_instr = 0;
    bool exhausted_trace = false;
    /** Measured conditional executions. */
    std::uint64_t num_conditional_branches = 0;
    /** Distinct branch addresses among the simulated branches. */
    std::uint64_t num_branch_instructions = 0;
    /** Measured mispredictions, one per predictor. */
    std::vector<std::uint64_t> mispredictions;

    /** One ranked site of `most_failed`. */
    struct Site
    {
        std::uint64_t ip = 0;
        std::uint64_t occurrences = 0;
        std::vector<std::uint64_t> mispredictions; // per predictor
    };
    /** The `most_failed` ranking, capped at SimArgs::most_failed_cap. */
    std::vector<Site> most_failed;
    /** simulate()'s num_most_failed_branches (one predictor only). */
    std::uint64_t num_most_failed_branches = 0;
};

/** Reference for simulate(): one predictor. */
RefSimResult referenceSimulate(Predictor &predictor, const SimArgs &args);

/** Reference for simulateMany()/compare(): N predictors, one pass. */
RefSimResult referenceSimulateMany(const std::vector<Predictor *> &predictors,
                                   const SimArgs &args);

/**
 * @return "" when simulate() document @p doc agrees with @p ref, else a
 *         description of the first difference.
 */
std::string diffSimulate(const json_t &doc, const RefSimResult &ref,
                         const SimArgs &args);

/** The same for a simulateMany()/compare() document. */
std::string diffMany(const json_t &doc, const RefSimResult &ref,
                     const SimArgs &args);

} // namespace mbp::testkit

#endif // MBP_TESTKIT_REF_SIM_HPP
