/**
 * @file
 * The four workloads: what set-up generates, which user-visible calls a
 * round makes, and how each result is checked. RATIONALE.md says why each
 * workload exists and which layer it isolates or bypasses.
 */
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "mbp/frontend/frontend.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/sbbt/arena_store.hpp"
#include "mbp/sim/kernels.hpp"
#include "mbp/sweep/sweep.hpp"
#include "mbp/testkit/reference.hpp"
#include "mbp/tracegen/adversarial.hpp"
#include "mbp/tracegen/suite.hpp"

namespace layerbench
{

namespace
{

// Trace sizes at --scale 1, in branches, chosen so that one round of every
// workload takes well under a second on a 4-core host and a run holds many
// rounds. Sizes are fixed per workload; the seed changes only the content,
// so runs with different seeds do the same amount of work.
constexpr double kColdBranches[] = {1.4e6, 1.1e6};
constexpr double kHotBranches[] = {400e3, 320e3};
constexpr double kSweepBranches = 800e3; // whole suite, split over 4 traces
constexpr std::size_t kSweepTraces = 4;
constexpr double kStressBranches = 150e3;
constexpr double kFrontSuiteBranches = 200e3;

const std::vector<std::string> kCheap = {"bimodal", "gshare"};
const std::vector<std::string> kHeavy = {"perceptron", "tage", "batage",
                                         "tage-scl"};
const std::vector<std::string> kSweepPredictors = {"bimodal", "gshare",
                                                   "perceptron", "tage-scl"};
const std::vector<std::string> kFrontPredictors = {"gshare", "tage"};
const std::vector<std::string> kModes = {"streaming", "in_memory",
                                         "store_first", "store_warm"};

std::size_t
scaled(double branches, double scale)
{
    return std::size_t(std::max(2e3, std::round(branches * scale)));
}

std::string
keyOf(const std::string &predictor, const TraceFile &trace)
{
    return predictor + "@" + trace.name;
}

/** Checks one simulate() document (or predictor @p index of a
 *  simulateMany() one) against the run's registry. */
std::string
checkSim(Context &ctx, const json_t &doc, int index,
         const std::string &predictor, const TraceFile &trace,
         const std::string &source)
{
    Counts got;
    std::string error;
    if (!countsOf(doc, index, got, error))
        return keyOf(predictor, trace) + " (" + source + "): " + error;
    return ctx.expect.check(keyOf(predictor, trace), got, source);
}

/** Pins the testkit reference result of every (predictor, trace) pair
 *  with an independent reference implementation, unless already pinned. */
void
pinReferences(Context &ctx, const std::vector<std::string> &predictors,
              const std::vector<TraceFile> &traces)
{
    for (const TraceFile &trace : traces) {
        for (const std::string &name : predictors) {
            if (ctx.expect.contains(keyOf(name, trace)))
                continue;
            std::unique_ptr<mbp::Predictor> ref;
            if (name == "bimodal")
                ref = std::make_unique<mbp::testkit::RefBimodal>();
            else if (name == "gshare")
                ref = std::make_unique<mbp::testkit::RefGshare>();
            else
                continue;
            ctx.expect.pin(keyOf(name, trace), referenceCounts(*ref, trace),
                           "testkit reference");
        }
    }
}

/**
 * Pins every (predictor, trace) pair without a testkit reference to the
 * virtual path: mbp::simulate(*makeByName(name)) on the trace's arena, an
 * implementation independent of the fused kernels under test.
 */
void
pinVirtual(Context &ctx, const std::vector<std::string> &predictors,
           const Workload &w)
{
    for (std::size_t t = 0; t < w.traces.size(); ++t) {
        for (const std::string &name : predictors) {
            const std::string key = keyOf(name, w.traces[t]);
            mbp::SimArgs args;
            args.trace_path = w.traces[t].path;
            args.preloaded = w.arenas[t];
            args.in_memory = true;
            args.collect_most_failed = false;
            const auto predictor = mbp::pred::makeByName(name);
            const json_t doc = mbp::simulate(*predictor, args);
            Counts counts;
            std::string error;
            if (countsOf(doc, -1, counts, error)) {
                ctx.expect.pin(key, counts, "virtual simulate");
            } else {
                // No count can match this pin, so every job of the key fails.
                const std::uint64_t none = ~std::uint64_t(0);
                ctx.expect.pin(key, {none, none, none},
                               "virtual simulate (" + error + ")");
            }
        }
    }
}

mbp::tracegen::WorkloadSpec
specOf(const std::string &name, std::uint64_t seed, int functions,
       double noise, bool phases)
{
    mbp::tracegen::WorkloadSpec spec;
    spec.name = name;
    spec.seed = seed;
    spec.num_functions = functions;
    spec.noise_fraction = noise;
    spec.phase_length = phases ? 1 : 0; // sized by writeGenerated
    return spec;
}

/**
 * The cbp5-train-style suite of the sweep: the first kSweepTraces specs of
 * makeSuite() (varied noise, phases, function counts and relative
 * lengths). The suite's shape is fixed and the seed picks only each
 * trace's content, so every seed does the same work.
 */
std::vector<mbp::tracegen::WorkloadSpec>
sweepSuite(std::uint64_t seed)
{
    auto suite =
        mbp::tracegen::makeSuite("cbp5-train", int(kSweepTraces), 52016);
    for (std::size_t i = 0; i < suite.size(); ++i)
        suite[i].seed = seed * 1000 + i;
    return suite;
}

bool
setUpCold(Context &ctx, const std::string &dir, Workload &out,
          std::string &error)
{
    // Two traces of different shape and codec: FLZ and gzip.
    out.traces.resize(2);
    return writeGenerated(ctx.tracer,
                          specOf("cold-flz", ctx.seed * 2 + 1, 12, 0.08, false),
                          scaled(kColdBranches[0], ctx.scale),
                          dir + "/cold-flz.sbbt.flz", out.traces[0], error) &&
           writeGenerated(ctx.tracer,
                          specOf("cold-gz", ctx.seed * 2 + 2, 24, 0.14, true),
                          scaled(kColdBranches[1], ctx.scale),
                          dir + "/cold-gz.sbbt.gz", out.traces[1], error);
}

bool
setUpHot(Context &ctx, const std::string &dir, Workload &out,
         std::string &error)
{
    out.traces.resize(2);
    if (!writeGenerated(ctx.tracer,
                        specOf("hot-flz", ctx.seed * 2 + 1, 16, 0.10, false),
                        scaled(kHotBranches[0], ctx.scale),
                        dir + "/hot-flz.sbbt.flz", out.traces[0], error) ||
        !writeGenerated(ctx.tracer,
                        specOf("hot-gz", ctx.seed * 2 + 2, 20, 0.06, true),
                        scaled(kHotBranches[1], ctx.scale),
                        dir + "/hot-gz.sbbt.gz", out.traces[1], error))
        return false;
    // The store is prepared once: materialize each sidecar, then map it.
    const std::string store_dir = dir + "/store";
    for (const TraceFile &trace : out.traces) {
        if (acquireArena(ctx.tracer, store_dir, trace.path, error) == nullptr)
            return false;
        auto mapped = acquireArena(ctx.tracer, store_dir, trace.path, error);
        if (mapped == nullptr || !mapped->mapped()) {
            error = trace.path + ": sidecar did not map: " + error;
            return false;
        }
        out.arenas.push_back(std::move(mapped));
    }
    return true;
}

bool
setUpSweep(Context &ctx, const std::string &dir, Workload &out,
           std::string &error)
{
    const auto suite = sweepSuite(ctx.seed);
    double total = 0.0;
    for (const auto &spec : suite)
        total += double(spec.num_instr);
    out.traces.resize(suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        // Each trace keeps its suite share of the branches.
        const double share = double(suite[i].num_instr) / total;
        const char *ext = i % 2 == 0 ? ".sbbt.flz" : ".sbbt.gz";
        if (!writeGenerated(ctx.tracer, suite[i],
                            scaled(kSweepBranches * share, ctx.scale),
                            dir + "/" + suite[i].name + ext, out.traces[i],
                            error))
            return false;
    }
    return true;
}

bool
setUpFrontend(Context &ctx, const std::string &dir, Workload &out,
              std::string &error)
{
    namespace tg = mbp::tracegen;
    const std::size_t n = scaled(kStressBranches, ctx.scale);
    const std::uint64_t seed = ctx.seed;
    // The three `mbp_tracegen stress` shapes, with its parameters.
    struct Stress
    {
        const char *name;
        std::function<Events()> make;
    };
    const std::vector<Stress> stress = {
        {"stress-indirect", [&] { return tg::indirectStorm(seed, n, 8, 31); }},
        {"stress-megamorphic",
         [&] { return tg::megamorphicSites(seed, n, 40); }},
        {"stress-recursion", [&] { return tg::deepRecursion(seed, n, 70); }},
    };
    out.traces.resize(stress.size() + 1);
    for (std::size_t i = 0; i < stress.size(); ++i) {
        Events events;
        {
            Scope span(ctx.tracer, "tracegen.generate");
            events = stress[i].make();
            span.setWork(double(events.size()));
        }
        if (!writeEvents(ctx.tracer, std::move(events), stress[i].name,
                         dir + "/" + stress[i].name + ".sbbt.flz",
                         out.traces[i], error))
            return false;
    }
    if (!writeGenerated(ctx.tracer,
                        specOf("frontend-suite", seed * 2 + 1, 14, 0.08, false),
                        scaled(kFrontSuiteBranches, ctx.scale),
                        dir + "/frontend-suite.sbbt.gz", out.traces.back(),
                        error))
        return false;
    for (const TraceFile &trace : out.traces) {
        Scope span(ctx.tracer, "sbbt.MemTrace::load");
        mbp::sbbt::ReaderOptions options;
        options.prefetch = true;
        auto arena = mbp::sbbt::MemTrace::load(trace.path, options, &error);
        if (arena == nullptr)
            return false;
        span.setWork(double(arena->size()));
        out.arenas.push_back(std::move(arena));
    }
    return true;
}

void
accessModeJobs(Context &ctx, const std::string &store_dir,
               const std::vector<const TraceFile *> &traces,
               const std::vector<std::string> &predictors,
               std::vector<Job> &jobs)
{
    for (const TraceFile *trace_ptr : traces) {
        const TraceFile &trace = *trace_ptr;
        for (const std::string &name : predictors) {
            for (const std::string &mode : kModes) {
                Job job;
                job.kind = "simulate";
                job.mode = mode;
                job.label = keyOf(name, trace) + " " + mode;
                job.branch_predictions = double(trace.branches);
                // A first touch needs an empty store; the warm map that
                // follows it reuses the sidecar it wrote.
                if (mode == "store_first")
                    job.prepare = [store_dir] { removeTree(store_dir); };
                const bool planted = ctx.planted_bug;
                job.run = [&trace, name, mode, store_dir,
                           planted](Tracer &tracer) {
                    mbp::SimArgs args;
                    args.trace_path = trace.path;
                    if (mode == "in_memory")
                        args.in_memory = true;
                    if (mode == "store_first" || mode == "store_warm") {
                        std::string error;
                        args.preloaded =
                            acquireArena(tracer, store_dir, trace.path, error);
                        if (args.preloaded == nullptr)
                            return json_t::object(
                                {{"error", "acquire: " + error}});
                        args.in_memory = true;
                    }
                    json_t doc;
                    {
                        Scope span(tracer, "sim.simulate");
                        span.setWork(double(trace.branches));
                        doc = runFused(name, planted, args);
                    }
                    // Dropping the last reference unmaps or frees the arena.
                    if (args.preloaded != nullptr) {
                        Scope span(tracer, "sbbt.MemTrace::release");
                        args.preloaded.reset();
                    }
                    return doc;
                };
                job.check = [&ctx, &trace, name, mode](const json_t &doc) {
                    return checkSim(ctx, doc, -1, name, trace, mode);
                };
                jobs.push_back(std::move(job));
            }
        }
    }
}

void
hotJobs(Context &ctx, Workload &w)
{
    for (std::size_t t = 0; t < w.traces.size(); ++t) {
        const TraceFile &trace = w.traces[t];
        const auto arena = w.arenas[t];
        const double branches = double(trace.branches);
        for (const std::string &name : kHeavy) {
            Job job;
            job.kind = "simulate";
            job.label = keyOf(name, trace);
            job.branch_predictions = branches;
            const bool planted = ctx.planted_bug;
            job.run = [&trace, arena, name, branches,
                       planted](Tracer &tracer) {
                mbp::SimArgs args;
                args.trace_path = trace.path;
                args.preloaded = arena;
                args.in_memory = true;
                Scope span(tracer, "sim.simulate");
                span.setWork(branches);
                return runFused(name, planted, args);
            };
            job.check = [&ctx, &trace, name](const json_t &doc) {
                return checkSim(ctx, doc, -1, name, trace, "fused");
            };
            w.jobs.push_back(std::move(job));
        }
        Job many;
        many.kind = "simulateMany";
        many.label = "heavy roster@" + trace.name;
        many.branch_predictions = branches * double(kHeavy.size());
        many.run = [&trace, arena, branches](Tracer &tracer) {
            std::vector<std::unique_ptr<mbp::BlockKernel>> owned;
            std::vector<mbp::BlockKernel *> kernels;
            {
                Scope span(tracer, "predictors.fusedKernelByName");
                for (const std::string &name : kHeavy) {
                    owned.push_back(mbp::pred::fusedKernelByName(name));
                    kernels.push_back(owned.back().get());
                }
            }
            mbp::SimArgs args;
            args.trace_path = trace.path;
            args.preloaded = arena;
            args.in_memory = true;
            json_t doc;
            {
                Scope span(tracer, "sim.simulateMany");
                span.setWork(branches * double(kernels.size()));
                doc = mbp::simulateManyFused(kernels, args);
            }
            Scope span(tracer, "predictors.~BlockKernel");
            owned.clear();
            return doc;
        };
        many.check = [&ctx, &trace](const json_t &doc) {
            for (std::size_t i = 0; i < kHeavy.size(); ++i) {
                std::string e = checkSim(ctx, doc, int(i), kHeavy[i], trace,
                                         "simulateMany");
                if (!e.empty())
                    return e;
            }
            return std::string();
        };
        w.jobs.push_back(std::move(many));
    }
}

void
sweepJob(Context &ctx, const std::string &store_dir,
         const std::vector<TraceFile> &traces,
         const std::vector<std::string> &predictors, std::vector<Job> &jobs)
{
    mbp::sweep::Campaign campaign;
    for (const std::string &name : predictors) {
        mbp::sweep::PredictorSpec spec;
        spec.name = name;
        const bool planted = ctx.planted_bug;
        spec.make = [name, planted] { return makePredictor(name, planted); };
        spec.run_fused = [name, planted](const mbp::SimArgs &args) {
            return runFused(name, planted, args);
        };
        campaign.predictors.push_back(std::move(spec));
    }
    double branches = 0.0;
    std::uint64_t largest_arena = 0;
    for (const TraceFile &trace : traces) {
        campaign.traces.push_back(trace.path);
        branches += double(trace.branches);
        largest_arena = std::max(
            largest_arena, mbp::sbbt::MemTrace::estimateBytes(trace.header));
    }
    // Two workers, each with its decode prefetch thread: four threads.
    campaign.jobs = 2;
    campaign.arena_cache = true;
    campaign.arena_cache_dir = store_dir;
    // Room for the two largest arenas at once but not the whole suite, so
    // the cache evicts the way the default 1 GiB budget does on a suite
    // larger than memory.
    campaign.mem_budget = largest_arena * 3 / 2;

    // Two grids per round: the first on an empty store (it materializes
    // sidecars while the other worker reads), the second on the store the
    // first filled (every trace is a re-map).
    for (const char *mode : {"store_first", "store_warm"}) {
        Job job;
        job.kind = "sweep::run";
        job.mode = mode;
        job.label = std::string("sweep grid ") + mode;
        job.branch_predictions = branches * double(predictors.size());
        if (job.mode == "store_first")
            job.prepare = [store_dir] { removeTree(store_dir); };
        job.run = [campaign, branches](Tracer &tracer) {
            Scope span(tracer, "sweep.run");
            span.setWork(branches * double(campaign.predictors.size()));
            return mbp::sweep::run(campaign);
        };
        job.check = [&ctx, &traces](const json_t &doc) {
            const json_t *cells = doc.find("cells");
            if (cells == nullptr)
                return std::string("sweep document lacks cells");
            for (const json_t &cell : cells->elements()) {
                const std::string name = cell.find("predictor")->asString();
                const std::string path = cell.find("trace")->asString();
                for (const TraceFile &trace : traces) {
                    if (trace.path != path)
                        continue;
                    std::string e = checkSim(ctx, *cell.find("result"), -1,
                                             name, trace, "sweep cell");
                    if (!e.empty())
                        return e;
                }
            }
            return std::string();
        };
        jobs.push_back(std::move(job));
    }
}

void
frontendJobs(Context &ctx, Workload &w)
{
    for (std::size_t t = 0; t < w.traces.size(); ++t) {
        const TraceFile &trace = w.traces[t];
        const auto arena = w.arenas[t];
        for (const std::string &name : kFrontPredictors) {
            auto ref = std::make_shared<FrontendCounts>(
                referenceFrontend(name, ctx.planted_bug, trace));
            Job job;
            job.kind = "frontend::simulate";
            job.label = keyOf(name, trace);
            job.branch_predictions = double(trace.branches);
            job.run = [&trace, arena, name](Tracer &tracer) {
                // The planted bug sits in the reference (a stale BTB
                // target); the subject stays the real front end.
                std::optional<mbp::frontend::FrontEnd> front_end;
                {
                    Scope span(tracer, "frontend.FrontEnd");
                    front_end.emplace(mbp::pred::makeByName(name));
                }
                mbp::SimArgs args;
                args.trace_path = trace.path;
                args.preloaded = arena;
                args.in_memory = true;
                json_t doc;
                {
                    Scope span(tracer, "frontend.simulate");
                    span.setWork(double(arena->size()));
                    doc = mbp::frontend::simulate(*front_end, args);
                }
                Scope span(tracer, "frontend.~FrontEnd");
                front_end.reset();
                return doc;
            };
            job.check = [&ctx, &trace, name, ref](const json_t &doc) {
                std::string e = checkFrontendDoc(doc, *ref);
                if (!e.empty())
                    return keyOf(name, trace) + " frontend: " + e;
                return checkSim(ctx, doc, -1, name, trace, "frontend");
            };
            w.jobs.push_back(std::move(job));
        }
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "cold-trace", "hot-predictor", "sweep-campaign", "frontend-stress"};
    return names;
}

const std::vector<std::string> &
probedPredictors()
{
    static const std::vector<std::string> names = {
        "bimodal", "gshare", "perceptron", "tage", "batage", "tage-scl"};
    return names;
}

const std::vector<std::string> &
heavyPredictors()
{
    return kHeavy;
}

const std::vector<std::string> &
accessModes()
{
    return kModes;
}

bool
setUp(Context &ctx, const std::string &dir, Workload &out,
      std::string &error)
{
    makeDirs(dir);
    if (ctx.workload == "cold-trace")
        return setUpCold(ctx, dir, out, error);
    if (ctx.workload == "hot-predictor")
        return setUpHot(ctx, dir, out, error);
    if (ctx.workload == "sweep-campaign")
        return setUpSweep(ctx, dir, out, error);
    if (ctx.workload == "frontend-stress")
        return setUpFrontend(ctx, dir, out, error);
    error = "unknown workload '" + ctx.workload + "'";
    return false;
}

void
buildJobs(Context &ctx, const std::string &dir, Workload &workload)
{
    // The traced run's probe jobs run the cheap predictors on every trace.
    if (ctx.trace || ctx.workload == "cold-trace")
        pinReferences(ctx, kCheap, workload.traces);
    if (ctx.workload == "cold-trace") {
        std::vector<const TraceFile *> traces;
        for (const TraceFile &trace : workload.traces)
            traces.push_back(&trace);
        accessModeJobs(ctx, dir + "/store", traces, kCheap, workload.jobs);
    } else if (ctx.workload == "hot-predictor") {
        pinVirtual(ctx, kHeavy, workload);
        hotJobs(ctx, workload);
    } else if (ctx.workload == "sweep-campaign") {
        pinReferences(ctx, kSweepPredictors, workload.traces);
        sweepJob(ctx, dir + "/sweep-store", workload.traces,
                 kSweepPredictors, workload.jobs);
    } else {
        pinReferences(ctx, kFrontPredictors, workload.traces);
        frontendJobs(ctx, workload);
    }
    for (TraceFile &trace : workload.traces)
        Events().swap(trace.events);
}

std::vector<Job>
probeJobs(Context &ctx, const std::string &dir, Workload &workload)
{
    // Access modes and the sweep layer are measured on every workload's
    // own traces; cold-trace and sweep-campaign already run them as jobs.
    std::vector<Job> jobs;
    if (ctx.workload != "cold-trace") {
        accessModeJobs(ctx, dir + "/probe-store", {&workload.traces[0]},
                       {"gshare"}, jobs);
    }
    if (ctx.workload != "sweep-campaign")
        sweepJob(ctx, dir + "/probe-sweep-store", workload.traces, kCheap,
                 jobs);
    return jobs;
}

} // namespace layerbench
