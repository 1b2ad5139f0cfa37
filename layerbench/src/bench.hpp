/**
 * @file
 * Shared vocabulary of the layered benchmark program: spans, jobs, the
 * correctness registry and the workload interface.
 *
 * The program calls MBPlib only through its public headers. Every number
 * it reports comes from timing those calls from the outside; nothing
 * inside the library is instrumented.
 */
#ifndef LAYERBENCH_BENCH_HPP
#define LAYERBENCH_BENCH_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mbp/json/json.hpp"
#include "mbp/sbbt/arena_store.hpp"
#include "mbp/sbbt/format.hpp"
#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sim/predictor.hpp"
#include "mbp/sim/simulator.hpp"
#include "mbp/tracegen/generator.hpp"

namespace layerbench
{

using mbp::json_t;
using Events = std::vector<mbp::tracegen::TraceEvent>;

/** Seconds on the steady clock since the first call. */
double nowSeconds();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** One timed call into a module: `<module>.<call>`. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int job = -1;
    /** Work the call did, in the unit its metric uses (branches, bytes). */
    double work = 0.0;
};

/**
 * In-memory span recorder. Disabled, begin() returns -1 without reading
 * the clock, so the untimed path costs one branch per call site. Spans are
 * only recorded from the program's main thread.
 */
class Tracer
{
  public:
    void enable(bool on) { on_ = on; }
    bool on() const { return on_; }
    void setJob(int job) { job_ = job; }

    int begin(std::string name);
    void end(int id, double work = 0.0);
    void rename(int id, std::string name);

    const std::deque<Span> &spans() const { return spans_; }

  private:
    bool on_ = false;
    int job_ = -1;
    // A deque never moves recorded spans, so growing it costs no more
    // inside one job than in another.
    std::deque<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: records [construction, destruction) under @p name. */
class Scope
{
  public:
    Scope(Tracer &tracer, std::string name)
        : tracer_(tracer), id_(tracer.begin(std::move(name)))
    {
    }
    ~Scope() { tracer_.end(id_, work_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void setWork(double work) { work_ = work; }
    void rename(std::string name) { tracer_.rename(id_, std::move(name)); }

  private:
    Tracer &tracer_;
    int id_;
    double work_ = 0.0;
};

/** One generated on-disk trace of a workload. Its events stay in memory
 *  only until the reference results are pinned (see buildJobs). */
struct TraceFile
{
    std::string name;
    std::string path;
    mbp::sbbt::Header header;
    std::size_t branches = 0;
    Events events;
};

/** Measured-window counts that every path must agree on. */
struct Counts
{
    std::uint64_t mispredictions = 0;
    std::uint64_t instructions = 0;
    std::uint64_t conditional = 0;
};

/**
 * Correctness registry of one run. A (predictor, trace) key is pinned to a
 * reference result where one exists (testkit's RefBimodal/RefGshare);
 * otherwise the first path that reports it pins it. Every later report,
 * from any access mode or simulator path, must match exactly.
 */
class Expectations
{
  public:
    void pin(const std::string &key, const Counts &counts,
             const std::string &source);
    bool contains(const std::string &key) const
    {
        return entries_.count(key) != 0;
    }
    /** @return "" when @p got matches, else a description. */
    std::string check(const std::string &key, const Counts &got,
                      const std::string &source);

  private:
    struct Entry
    {
        Counts counts;
        std::string source;
    };
    std::map<std::string, Entry> entries_;
};

/** Per-class front-end counters as the reference computes them. */
struct FrontendCounts
{
    std::vector<std::uint64_t> count, taken, direction, target;
};

/** Counts of simulate()/simulateMany() document @p doc; @p index selects
 *  predictor i of a simulateMany() document (-1 for simulate()). */
bool countsOf(const json_t &doc, int index, Counts &out, std::string &error);

/** Drives @p reference over @p events with the simulator's calling
 *  convention (predict+train conditionals, track every branch). */
Counts referenceCounts(mbp::Predictor &reference, const TraceFile &trace);

/** Reference front-end counters of the testkit RefFrontEnd. */
FrontendCounts referenceFrontend(const std::string &conditional,
                                 bool planted_bug, const TraceFile &trace);

/** Checks a frontend::simulate() document: classes sum to the branch
 *  total and every class counter equals the reference. */
std::string checkFrontendDoc(const json_t &doc, const FrontendCounts &ref);

/** Builds the predictor @p name. With @p planted_bug, "gshare" becomes
 *  testkit's BrokenGshare and "tage" a TAGE whose every 1024th
 *  conditional prediction is inverted. */
std::unique_ptr<mbp::Predictor> makePredictor(const std::string &name,
                                              bool planted_bug);

/** Runs @p name fused over @p args (the planted predictors run virtual). */
json_t runFused(const std::string &name, bool planted_bug,
                const mbp::SimArgs &args);

/** Run-wide options and shared state. */
struct Context
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double scale = 1.0;
    bool planted_bug = false;
    std::string work_dir;
    Tracer tracer;
    Expectations expect;
};

/** One user-visible call of a workload and how to check its result. */
struct Job
{
    std::string kind;  //!< "simulate", "simulateMany", "sweep::run", ...
    std::string mode;  //!< trace-access mode, "" when not applicable
    std::string label; //!< predictor@trace, for failure messages
    /** Σ over traces of branches × predictors the call simulates. */
    double branch_predictions = 0.0;
    /** Untimed preparation (for example emptying an arena store). */
    std::function<void()> prepare;
    /** The timed call; records its own module spans. */
    std::function<json_t(Tracer &)> run;
    /** @return "" when the document is correct, else why not. */
    std::function<std::string(const json_t &)> check;
};

/** A workload after set-up: its traces and its job list. */
struct Workload
{
    std::vector<TraceFile> traces;
    std::vector<Job> jobs;
    /** Arenas the set-up prepared, by trace index (may be empty). */
    std::vector<std::shared_ptr<const mbp::sbbt::MemTrace>> arenas;
};

/** Generates, writes and prepares the traces of @p ctx.workload under
 *  @p dir. Timed as set-up. Returns false (with @p error) on failure. */
bool setUp(Context &ctx, const std::string &dir, Workload &out,
           std::string &error);

/** Pins the reference result of every (predictor, trace) pair the run
 *  checks, builds the job list of a set-up workload, then frees the
 *  traces' events, which only the references read. */
void buildJobs(Context &ctx, const std::string &dir, Workload &workload);

/** Jobs the traced run adds so that every layer is measured on this
 *  workload's traces: the four access modes and a small sweep, where the
 *  workload's own jobs do not already make those calls. */
std::vector<Job> probeJobs(Context &ctx, const std::string &dir,
                           Workload &workload);

/** The traced run's layer probe: times each module's public calls on
 *  the workload's own traces and returns the per-layer values it alone
 *  measures. Appends failures to @p failures. */
std::map<std::string, double> probeLayers(Context &ctx,
                                          const std::string &dir,
                                          Workload &workload,
                                          std::vector<std::string> &failures);

/** Every workload the program runs; BENCHMARK.json gates a subset. */
const std::vector<std::string> &workloadNames();

/** Roster names whose per-layer predictor metrics are reported. */
const std::vector<std::string> &probedPredictors();

/** The expensive predictors of hot-predictor and sim.many. */
const std::vector<std::string> &heavyPredictors();

/** Trace-access modes of a cold-trace job, in round order. */
const std::vector<std::string> &accessModes();

/** Generates the first @p branches branches of @p spec's program and
 *  writes them (spans tracegen.generate and tracegen.write). */
bool writeGenerated(Tracer &tracer, mbp::tracegen::WorkloadSpec spec,
                    std::size_t branches, const std::string &path,
                    TraceFile &out, std::string &error);

/** Writes an in-memory event stream (span tracegen.write). */
bool writeEvents(Tracer &tracer, Events events, const std::string &name,
                 const std::string &path, TraceFile &out,
                 std::string &error);

/** Opens the store at @p store_dir and acquires @p path under a span
 *  named by how it was served (`.materialize`, `.map` or `.decode`);
 *  counts sidecar rejects. */
std::shared_ptr<const mbp::sbbt::MemTrace>
acquireArena(Tracer &tracer, const std::string &store_dir,
             const std::string &path, std::string &error);

/** Sidecars ArenaStore rejected during this run. */
std::uint64_t &sidecarRejects();

void removeTree(const std::string &path);
void makeDirs(const std::string &path);

} // namespace layerbench

#endif // LAYERBENCH_BENCH_HPP
