/**
 * @file
 * Golden MPKI regression: every roster predictor is simulated on the
 * bundled example-demo trace and compared against the checked-in numbers
 * in tests/golden/roster_demo.json. A behavioural change to any predictor
 * — intended or not — shows up as an exact mispredictions diff here.
 *
 * To refresh after an intentional change:
 *
 *     ./tests/golden_test --update-golden
 *
 * which rewrites the golden file in the source tree; commit the diff with
 * an explanation of why the numbers moved.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "mbp/audit/audit.hpp"
#include "mbp/frontend/frontend.hpp"
#include "mbp/json/json.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/sim/simulator.hpp"
#include "mbp/testkit/ref_sim.hpp"
#include "mbp/tools/corpus.hpp"
#include "mbp/tracegen/generator.hpp"

using namespace mbp;

namespace
{

constexpr std::uint64_t kSimInstr = 2'000'000;

/**
 * The demo trace is synthetic and not checked in: materialize it on
 * demand (cached, flock-guarded) with the exact spec the examples use
 * (examples/example_common.hpp), so the golden numbers stay tied to one
 * reproducible trace.
 */
const std::string &
demoTrace()
{
    static const std::string path = [] {
        const std::string target = MBP_DEMO_TRACE;
        tracegen::WorkloadSpec spec;
        spec.name = "example-demo";
        spec.seed = 7;
        spec.num_instr = 20'000'000;
        tools::CorpusFormats formats;
        formats.sbbt_flz = true;
        auto entries = tools::materialize(
            target.substr(0, target.rfind('/')), {spec}, formats);
        if (entries[0].sbbt_flz != target)
            std::fprintf(stderr,
                         "warning: materialized %s, expected %s\n",
                         entries[0].sbbt_flz.c_str(), target.c_str());
        return entries[0].sbbt_flz;
    }();
    return path;
}

/** One row of the golden file, freshly measured. */
json_t
measure(const std::string &name)
{
    auto predictor = pred::makeByName(name);
    EXPECT_NE(predictor, nullptr) << name;
    SimArgs args;
    args.trace_path = demoTrace();
    args.sim_instr = kSimInstr;
    args.collect_most_failed = false;
    json_t result = simulate(*predictor, args);
    EXPECT_FALSE(result.contains("error")) << name << ": " << result.dump(2);
    const json_t *metrics = result.find("metrics");
    return json_t::object({
        {"mpki", *metrics->find("mpki")},
        {"mispredictions", *metrics->find("mispredictions")},
        {"accuracy", *metrics->find("accuracy")},
    });
}

json_t
measureAll()
{
    json_t rows = json_t::object({});
    for (const std::string &name : pred::rosterNames())
        rows[name] = measure(name);
    return rows;
}

/**
 * The conditional predictors whose front-end composition is pinned. A
 * subset of the roster: the front end's BTB/RAS/indirect numbers only
 * depend on the conditional predictor through the corruption model, so
 * three representative predictors cover the regression surface without
 * tripling the golden-run cost.
 */
const std::vector<std::string> &
frontendGoldenPredictors()
{
    static const std::vector<std::string> names = {"bimodal", "gshare",
                                                   "tage"};
    return names;
}

/** One row of the front-end golden file, freshly measured. */
json_t
measureFrontend(const std::string &name)
{
    frontend::FrontEndConfig config;
    config.corrupt_on_mispredict = true;
    frontend::FrontEnd front_end(pred::makeByName(name), config);
    SimArgs args;
    args.trace_path = demoTrace();
    args.sim_instr = kSimInstr;
    args.collect_most_failed = false;
    json_t result = frontend::simulate(front_end, args);
    EXPECT_FALSE(result.contains("error"))
        << name << ": " << result.dump(2);
    const json_t *report = result.find("frontend");
    return json_t::object({
        {"classes", *report->find("classes")},
        {"rollups", *report->find("rollups")},
    });
}

json_t
measureAllFrontend()
{
    json_t rows = json_t::object({});
    for (const std::string &name : frontendGoldenPredictors())
        rows[name] = measureFrontend(name);
    return rows;
}

json_t
loadGoldenFile(const char *path, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = std::string("cannot open golden file ") + path +
                " — run ./tests/golden_test --update-golden to create it";
        return json_t();
    }
    std::ostringstream text;
    text << in.rdbuf();
    auto parsed = json::Value::parse(text.str(), &error);
    return parsed ? *parsed : json_t();
}

json_t
loadGolden(std::string &error)
{
    return loadGoldenFile(MBP_GOLDEN_FILE, error);
}

/**
 * The roster storage-budget report (mbp_audit --json --no-components),
 * minus the tool/version metadata that would churn the golden file on
 * every release: the regression surface is the budget numbers and the
 * audit statuses themselves.
 */
json_t
auditGoldenDocument()
{
    audit::Options options;
    options.include_components = false;
    json_t document = audit::report(audit::auditRoster(), options);
    return json_t::object({
        {"predictors", *document.find("predictors")},
        {"summary", *document.find("summary")},
    });
}

} // namespace

TEST(Golden, RosterMatchesRecordedNumbers)
{
    std::string error;
    json_t golden = loadGolden(error);
    ASSERT_EQ(error, "");
    const json_t *rows = golden.find("predictors");
    ASSERT_NE(rows, nullptr) << "golden file has no 'predictors' object";

    const json_t fresh = measureAll();

    // Every roster predictor must have a recorded row, and vice versa —
    // adding a predictor without refreshing the golden file is an error.
    ASSERT_EQ(rows->size(), fresh.size())
        << "roster and golden file disagree on the predictor set; "
           "run ./tests/golden_test --update-golden";

    for (const auto &[name, expected] : rows->members()) {
        const json_t *actual = fresh.find(name);
        ASSERT_NE(actual, nullptr)
            << "golden row '" << name << "' is not in the roster";
        EXPECT_EQ(expected.find("mispredictions")->asUint(),
                  actual->find("mispredictions")->asUint())
            << name << " mispredictions moved; if intended, run "
                       "./tests/golden_test --update-golden";
        EXPECT_NEAR(expected.find("mpki")->asDouble(),
                    actual->find("mpki")->asDouble(), 1e-6)
            << name;
        EXPECT_NEAR(expected.find("accuracy")->asDouble(),
                    actual->find("accuracy")->asDouble(), 1e-9)
            << name;
    }
}

TEST(Golden, RecordedNumbersMatchReferenceSimulator)
{
    // The golden rows are checked against the simulator above; here the
    // same rows are re-derived by testkit's naive reference simulator,
    // which shares no code with the block driver, so a driver defect
    // cannot hide behind a golden file refreshed from it.
    std::string error;
    json_t golden = loadGolden(error);
    ASSERT_EQ(error, "");
    const json_t *rows = golden.find("predictors");
    ASSERT_NE(rows, nullptr);
    SimArgs args;
    args.trace_path = demoTrace();
    args.sim_instr = kSimInstr;
    for (const auto &[name, expected] : rows->members()) {
        auto reference_pred = pred::makeByName(name);
        ASSERT_NE(reference_pred, nullptr) << name;
        const testkit::RefSimResult ref =
            testkit::referenceSimulate(*reference_pred, args);
        ASSERT_EQ(ref.error, "") << name;
        EXPECT_EQ(expected.find("mispredictions")->asUint(),
                  ref.mispredictions[0])
            << name;
        auto predictor = pred::makeByName(name);
        EXPECT_EQ(testkit::diffSimulate(simulate(*predictor, args), ref,
                                        args),
                  "")
            << name;
    }
}

TEST(Golden, FrontendReportMatchesRecorded)
{
    std::string error;
    json_t golden = loadGoldenFile(MBP_FRONTEND_GOLDEN_FILE, error);
    ASSERT_EQ(error, "");
    const json_t *rows = golden.find("predictors");
    ASSERT_NE(rows, nullptr) << "golden file has no 'predictors' object";

    const json_t fresh = measureAllFrontend();
    ASSERT_EQ(rows->size(), fresh.size())
        << "front-end golden predictor set changed; "
           "run ./tests/golden_test --update-golden";

    for (const auto &[name, expected] : rows->members()) {
        const json_t *actual = fresh.find(name);
        ASSERT_NE(actual, nullptr) << name;
        // Every class counter is an exact integer: compare the whole
        // section verbatim.
        EXPECT_EQ(expected.find("classes")->dump(2),
                  actual->find("classes")->dump(2))
            << name << " per-class counters moved; if intended, run "
                       "./tests/golden_test --update-golden";
        const json_t *want = expected.find("rollups");
        const json_t *got = actual->find("rollups");
        for (const char *key :
             {"total_branches", "total_taken", "direction_mispredictions",
              "target_mispredictions"})
            EXPECT_EQ(want->find(key)->asUint(), got->find(key)->asUint())
                << name << " " << key;
        for (const char *key :
             {"direction_mpki", "target_mpki", "misfetch_mpki"})
            EXPECT_NEAR(want->find(key)->asDouble(),
                        got->find(key)->asDouble(), 1e-6)
                << name << " " << key;
    }
}

TEST(Golden, AuditBudgetReportMatchesRecorded)
{
    std::string error;
    json_t golden = loadGoldenFile(MBP_AUDIT_GOLDEN_FILE, error);
    ASSERT_EQ(error, "");
    EXPECT_EQ(golden.dump(2), auditGoldenDocument().dump(2))
        << "the roster storage-budget report changed; if the table "
           "geometry move is intended, run ./tests/golden_test "
           "--update-golden and commit the diff";
}

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden") {
            json_t golden = json_t::object({
                {"trace", json_t("traces_corpus/example-demo.sbbt.flz")},
                {"sim_instr", json_t(kSimInstr)},
                {"predictors", measureAll()},
            });
            std::ofstream out(MBP_GOLDEN_FILE);
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n", MBP_GOLDEN_FILE);
                return 1;
            }
            out << golden.dump(2) << "\n";
            std::printf("wrote %s\n", MBP_GOLDEN_FILE);

            std::ofstream audit_out(MBP_AUDIT_GOLDEN_FILE);
            if (!audit_out) {
                std::fprintf(stderr, "cannot write %s\n",
                             MBP_AUDIT_GOLDEN_FILE);
                return 1;
            }
            audit_out << auditGoldenDocument().dump(2) << "\n";
            std::printf("wrote %s\n", MBP_AUDIT_GOLDEN_FILE);

            json_t frontend_golden = json_t::object({
                {"trace", json_t("traces_corpus/example-demo.sbbt.flz")},
                {"sim_instr", json_t(kSimInstr)},
                {"frontend_spec", json_t("corrupt=on")},
                {"predictors", measureAllFrontend()},
            });
            std::ofstream frontend_out(MBP_FRONTEND_GOLDEN_FILE);
            if (!frontend_out) {
                std::fprintf(stderr, "cannot write %s\n",
                             MBP_FRONTEND_GOLDEN_FILE);
                return 1;
            }
            frontend_out << frontend_golden.dump(2) << "\n";
            std::printf("wrote %s\n", MBP_FRONTEND_GOLDEN_FILE);
            return 0;
        }
    }
    testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
