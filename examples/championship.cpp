/**
 * @file
 * Championship-style evaluation: run the whole examples-library roster
 * over a training suite with the multi-trace driver and print a
 * leaderboard — the workflow the CBPs and most papers use (average MPKI
 * over the trace set, run as one parallel mbp::sweep campaign), here taking seconds instead of hours because of
 * the fast simulator (paper §VII-B: "the user can perform a couple of
 * short and quick simulations with a set of 4 to 10 traces to reevaluate
 * their design").
 *
 *   ./championship [scale]   (default 0.05: ~8M instructions per trace)
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "mbp/predictors/all.hpp"
#include "mbp/sweep/sweep.hpp"
#include "mbp/tools/corpus.hpp"
#include "mbp/tracegen/suite.hpp"

int
main(int argc, char **argv)
{
    using namespace mbp;
    using namespace mbp::pred;
    double scale = argc > 1 ? std::atof(argv[1]) : 0.05;

    auto suite = tracegen::cbp5TrainMini(scale);
    tools::CorpusFormats formats;
    formats.sbbt_flz = true;
    std::printf("materializing %zu traces (cached under ./traces_corpus)"
                "...\n\n",
                suite.size());
    auto entries = tools::materialize("traces_corpus", suite, formats);
    std::vector<std::string> traces;
    for (const auto &entry : entries)
        traces.push_back(entry.sbbt_flz);

    struct Contender
    {
        std::string name;
        std::function<std::unique_ptr<Predictor>()> make;
        double amean_mpki = 0.0;
        double seconds = 0.0;
    };
    std::vector<Contender> roster = {
        {"Bimodal", [] { return std::make_unique<Bimodal<16>>(); }, 0, 0},
        {"GAs two-level", [] { return std::make_unique<GAs<13, 4>>(); }, 0,
         0},
        {"GShare", [] { return std::make_unique<Gshare<15, 17>>(); }, 0, 0},
        {"Agree", [] { return std::make_unique<Agree<15, 16>>(); }, 0, 0},
        {"Bi-Mode", [] { return std::make_unique<BiMode<15, 15>>(); }, 0, 0},
        {"YAGS", [] { return std::make_unique<Yags<13, 13>>(); }, 0, 0},
        {"Tournament",
         [] {
             return std::make_unique<TournamentPred>(
                 std::make_unique<Bimodal<15>>(),
                 std::make_unique<Bimodal<16>>(),
                 std::make_unique<Gshare<15, 16>>());
         },
         0, 0},
        {"2bc-gskew", [] { return std::make_unique<Gskew2bc<17, 16>>(); }, 0,
         0},
        {"Hashed Perceptron",
         [] { return std::make_unique<HashedPerceptron<8, 12, 128>>(); }, 0,
         0},
        {"Loop + GShare",
         [] {
             return std::make_unique<LoopOverride>(
                 std::make_unique<Gshare<15, 17>>());
         },
         0, 0},
        {"TAGE", [] { return std::make_unique<Tage>(); }, 0, 0},
        {"BATAGE", [] { return std::make_unique<Batage>(); }, 0, 0},
        {"TAGE-SC-L (lite)", [] { return std::make_unique<TageScl>(); }, 0,
         0},
    };

    // One campaign over the whole (predictor x trace) grid on all cores:
    // each cell simulates one trace with its own fresh predictor, so the
    // results are identical to a sequential run. Only possible because
    // the user program owns execution.
    sweep::Campaign campaign;
    for (const auto &contender : roster)
        campaign.predictors.push_back({contender.name, contender.make, {}});
    campaign.traces = traces;
    const json_t result = sweep::run(campaign);
    const json_t &per_predictor =
        *result.find("aggregate")->find("per_predictor");
    const json_t &cells = *result.find("cells");
    for (std::size_t p = 0; p < roster.size(); ++p) {
        Contender &contender = roster[p];
        contender.amean_mpki =
            per_predictor[p].find("amean_mpki")->asDouble();
        for (std::size_t t = 0; t < traces.size(); ++t) {
            const json_t &cell = *cells[p * traces.size() + t].find("result");
            if (const json_t *metrics = cell.find("metrics"))
                contender.seconds +=
                    metrics->find("simulation_time")->asDouble();
        }
        std::printf("  evaluated %-20s %8.4f MPKI  (%.2f s)\n",
                    contender.name.c_str(), contender.amean_mpki,
                    contender.seconds);
    }

    std::sort(roster.begin(), roster.end(),
              [](const Contender &a, const Contender &b) {
                  return a.amean_mpki < b.amean_mpki;
              });
    std::printf("\nLeaderboard (arithmetic-mean MPKI over %zu traces):\n",
                traces.size());
    std::printf("%-4s %-22s %10s %10s\n", "#", "Predictor", "MPKI",
                "sim time");
    for (std::size_t i = 0; i < roster.size(); ++i)
        std::printf("%-4zu %-22s %10.4f %9.2fs\n", i + 1,
                    roster[i].name.c_str(), roster[i].amean_mpki,
                    roster[i].seconds);
    return 0;
}
