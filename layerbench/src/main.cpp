/**
 * @file
 * The layered MBPlib benchmark program: one workload per invocation.
 *
 *   mbp_layerbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--work-dir DIR] [--scale X] [--plant-bug]
 *
 * The run sets the workload up several times (set-up time is the median),
 * then repeats rounds of the workload's job list for --seconds and checks
 * every result. --trace 0 reports the end-to-end metrics. --trace 1
 * alternates untraced and traced rounds, then runs the layer probe, and
 * reports the per-layer metrics; its spans go to
 * <work-dir>/spans-<workload>-<seed>.json. --scale shrinks every trace
 * (the self-test uses it). --plant-bug swaps in testkit's BrokenGshare, a
 * TAGE with inverted predictions and a broken reference front end, so the
 * checks must fail.
 *
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics. The exit code is 0 when every check
 * passed, 1 when a check failed, 2 on usage errors and 3 when the build
 * is not an optimized, sanitizer-free one.
 */
#include <sys/resource.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "mbp/sim/simulator.hpp"

namespace layerbench
{
namespace
{

constexpr int kSetUps = 9;

/** One finished job of a round. */
struct Record
{
    std::size_t job = 0; //!< index into the job list
    int id = -1;         //!< job id of its spans
    bool probe = false;
    double wall = 0.0;      //!< call + json emit
    double call_wall = 0.0; //!< the user-visible call alone
    bool ok = true;
    json_t doc; //!< kept for traced runs only
};

struct Phase
{
    std::vector<double> round_walls;
    std::vector<double> round_peaks; //!< peak RSS of each round, MiB
    std::vector<Record> records;
    std::vector<std::string> failures;
};

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t", colon + 1));
        }
    }
    return "unknown";
}

#if defined(__has_feature)
#define LB_HAS_FEATURE(x) __has_feature(x)
#else
#define LB_HAS_FEATURE(x) 0
#endif

json_t
fingerprint()
{
#if defined(__SANITIZE_ADDRESS__) || LB_HAS_FEATURE(address_sanitizer)
    const char *sanitizer = "address";
#elif defined(__SANITIZE_THREAD__) || LB_HAS_FEATURE(thread_sanitizer)
    const char *sanitizer = "thread";
#else
    // UBSan defines no macro; its flag is in the build's flags.
    const char *sanitizer = std::strstr(LB_CXX_FLAGS, "-fsanitize") != nullptr
                                ? "-fsanitize in flags"
                                : "none";
#endif
#if defined(__OPTIMIZE__)
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    return json_t::object({
        {"cpu_model", cpuModel()},
        {"nproc", std::uint64_t(std::thread::hardware_concurrency())},
        {"compiler", std::string(LB_COMPILER) + " (" + __VERSION__ + ")"},
        {"build_type", LB_BUILD_TYPE},
        {"cxx_flags", LB_CXX_FLAGS},
        {"sanitizer", sanitizer},
        {"optimized", optimized},
        {"mbp_version", mbp::kMbpVersion},
    });
}

/** Runs one job, timing the call and the emit of its document. */
Record
runJob(Context &ctx, const Job &job, std::size_t index, int job_id,
       bool probe, std::vector<std::string> &failures)
{
    if (job.prepare)
        job.prepare();
    Record rec;
    rec.job = index;
    rec.id = job_id;
    rec.probe = probe;
    ctx.tracer.setJob(job_id);
    const double t0 = nowSeconds();
    json_t doc = job.run(ctx.tracer);
    const double t1 = nowSeconds();
    {
        Scope span(ctx.tracer, "json.dump");
        const std::string text = doc.dump();
        span.setWork(double(text.size()));
    }
    const double t2 = nowSeconds();
    ctx.tracer.setJob(-1);
    rec.call_wall = t1 - t0;
    rec.wall = t2 - t0;
    std::string error;
    if (const json_t *e = doc.find("error"))
        error = "error document: " + e->asString();
    else
        error = job.check(doc);
    if (!error.empty()) {
        rec.ok = false;
        failures.push_back(job.label + ": " + error);
    }
    if (ctx.tracer.on())
        rec.doc = std::move(doc);
    return rec;
}

/**
 * Returns the memory the allocator holds but the program has freed, then
 * resets the process's resident-memory high-water mark to what is left,
 * so that a later peakRssMiB() covers what the program holds and what
 * follows, not what earlier phases left behind.
 */
void
resetPeakRss()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
    std::ofstream("/proc/self/clear_refs") << "5\n";
}

/** VmHWM of the process in MiB; getrusage's max RSS where it is missing. */
double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;
}

/**
 * Repeats rounds of the job list until @p seconds have passed. With
 * @p traced, rounds alternate between untraced and traced, so that both
 * sample the same host conditions and their ratio is the tracing cost.
 */
void
runRounds(Context &ctx, const Workload &w, double seconds, Phase &untraced,
          Phase *traced, int &next_job_id)
{
    const double deadline = nowSeconds() + seconds;
    bool trace_round = false;
    do {
        Phase &phase = trace_round ? *traced : untraced;
        ctx.tracer.enable(trace_round);
        resetPeakRss();
        const double start = nowSeconds();
        for (std::size_t i = 0; i < w.jobs.size(); ++i)
            phase.records.push_back(runJob(ctx, w.jobs[i], i, next_job_id++,
                                           false, phase.failures));
        phase.round_walls.push_back(nowSeconds() - start);
        phase.round_peaks.push_back(peakRssMiB());
        trace_round = traced != nullptr && !trace_round;
    } while (nowSeconds() < deadline || trace_round);
    ctx.tracer.enable(false);
}


struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::vector<Metric>
endToEnd(const Workload &w, const Phase &phase, double setup_s,
         json_t &details)
{
    double round_work = 0.0;
    for (const Job &job : w.jobs)
        round_work += job.branch_predictions;
    // The timed phase's wall time per round, as the median over rounds, so
    // that a burst of host contention in a few rounds does not move it.
    const double wall = median(phase.round_walls);
    // A round runs every job type once, so jobs form one cluster per type.
    // The pooled median of an even number of equally frequent clusters
    // sits between two of them, at the extremes of both; the median over
    // rounds of each round's median stays inside the clusters.
    std::vector<double> jobs, round_jobs, round_medians;
    std::size_t failed = 0;
    for (const Record &r : phase.records) {
        jobs.push_back(r.wall);
        round_jobs.push_back(r.wall);
        failed += r.ok ? 0 : 1;
        if (round_jobs.size() == w.jobs.size()) {
            round_medians.push_back(median(round_jobs));
            round_jobs.clear();
        }
    }
    std::sort(jobs.begin(), jobs.end());
    // The highest percentile with at least ten samples beyond it, but
    // never below the median (a run with few jobs reports its median).
    const std::size_t n = jobs.size();
    const std::size_t tail_index = std::max(n > 10 ? n - 11 : 0, n / 2);
    const double tail_pct = 100.0 * double(tail_index + 1) / double(n);
    details["job_s_tail_percentile"] = tail_pct;
    details["job_samples"] = std::uint64_t(n);
    details["rounds"] = std::uint64_t(phase.round_walls.size());
    json_t walls = json_t::array();
    for (double v : phase.round_walls)
        walls.push_back(v);
    details["round_walls"] = std::move(walls);
    json_t peaks = json_t::array();
    for (double v : phase.round_peaks)
        peaks.push_back(v);
    details["round_peaks_mb"] = std::move(peaks);
    details["jobs_per_round"] = std::uint64_t(w.jobs.size());
    details["failed_share"] = double(failed) / double(n);
    return {
        {"setup_s", setup_s, "s"},
        {"wall_s", wall, "s"},
        {"branches_per_s", round_work / wall, "1/s"},
        {"job_s_p50", median(round_medians), "s"},
        {"job_s_tail", jobs[tail_index], "s"},
        {"peak_rss_mb", median(phase.round_peaks), "MiB"},
        {"ok_share", double(n - failed) / double(n), "ratio"},
    };
}

/** Aggregates of the spans named @p name. */
struct SpanSum
{
    double seconds = 0.0;
    double work = 0.0;
    std::vector<double> durations;
    std::vector<double> works;
};

SpanSum
sumSpans(const Tracer &tracer, const std::string &name)
{
    SpanSum s;
    for (const Span &span : tracer.spans()) {
        if (span.name != name)
            continue;
        s.seconds += span.end - span.start;
        s.work += span.work;
        s.durations.push_back(span.end - span.start);
        s.works.push_back(span.work);
    }
    return s;
}

double
rate(const SpanSum &s)
{
    return s.seconds > 0.0 ? s.work / s.seconds : 0.0;
}

double
nsPer(const SpanSum &s)
{
    return s.work > 0.0 ? s.seconds / s.work * 1e9 : 0.0;
}

/** Median over the spans of nanoseconds per unit of work. */
double
medianNsPer(const SpanSum &s)
{
    std::vector<double> ns;
    for (std::size_t i = 0; i < s.durations.size(); ++i)
        if (s.works[i] > 0.0)
            ns.push_back(s.durations[i] / s.works[i] * 1e9);
    return median(ns);
}

double
metricOf(const json_t &doc, const char *key)
{
    const json_t *m = doc.find("metrics");
    const json_t *v = m != nullptr ? m->find(key) : nullptr;
    return v != nullptr ? v->asDouble() : 0.0;
}

std::vector<Metric>
perLayer(const Context &ctx, const Workload &w, const Workload &probe,
         const Phase &untraced, const Phase &traced,
         const std::map<std::string, double> &probed)
{
    const Tracer &t = ctx.tracer;
    std::vector<Metric> out;
    auto add = [&out](std::string name, double value, const char *unit) {
        out.push_back({std::move(name), value, unit});
    };
    add("tracegen.generate_s",
        sumSpans(t, "tracegen.generate").seconds / kSetUps, "s");
    add("tracegen.write_s", sumSpans(t, "tracegen.write").seconds / kSetUps,
        "s");
    add("compress.flz_gbps", rate(sumSpans(t, "compress.openInput.flz")) / 1e9,
        "GB/s");
    add("compress.gzip_gbps",
        rate(sumSpans(t, "compress.openInput.gzip")) / 1e9, "GB/s");

    // Per access mode: the call's wall time minus what its document
    // accounts for (simulation_time + trace_load_seconds).
    std::map<std::string, std::vector<double>> gaps;
    std::vector<double> stalls, busy;
    std::map<std::string, double> cache;
    std::size_t sweeps = 0;
    for (const Record &r : traced.records) {
        const Job &job = r.probe ? probe.jobs[r.job] : w.jobs[r.job];
        if (!r.ok)
            continue;
        if (job.kind == "simulate" && !job.mode.empty()) {
            gaps[job.mode].push_back(
                r.call_wall - metricOf(r.doc, "simulation_time") -
                metricOf(r.doc, "trace_load_seconds"));
            if (job.mode == "streaming")
                stalls.push_back(metricOf(r.doc, "prefetch_stall_seconds"));
        }
        if (job.kind == "sweep::run") {
            const json_t &agg = *r.doc.find("aggregate");
            const json_t &tc = *agg.find("trace_cache");
            for (const auto &member : tc.members())
                cache[member.first] += member.second.asDouble();
            double cell_seconds = 0.0;
            for (const json_t &cell : r.doc.find("cells")->elements()) {
                const json_t &res = *cell.find("result");
                cell_seconds += metricOf(res, "simulation_time") +
                                metricOf(res, "trace_load_seconds");
            }
            const double jobs =
                r.doc.find("metadata")->find("jobs")->asDouble();
            busy.push_back(cell_seconds /
                           (jobs * agg.find("wall_time_seconds")->asDouble()));
            ++sweeps;
        }
    }
    const SpanSum dumps = sumSpans(t, "json.dump");
    add("compress.prefetch_stall_s", median(stalls), "s");
    add("sbbt.decode_branches_per_s", rate(sumSpans(t, "sbbt.SbbtReader")),
        "1/s");
    add("sbbt.arena_build_branches_per_s",
        rate(sumSpans(t, "sbbt.MemTrace::load")), "1/s");
    add("sbbt.materialize_s",
        median(sumSpans(t, "sbbt.ArenaStore::acquire.materialize").durations),
        "s");
    add("sbbt.map_verify_s",
        median(sumSpans(t, "sbbt.MemTrace::mapFile").durations), "s");
    add("sbbt.sidecar_rejects", double(sidecarRejects()), "count");
    add("sbbt.arena_bytes_per_branch",
        probed.count("sbbt.arena_bytes_per_branch")
            ? probed.at("sbbt.arena_bytes_per_branch")
            : 0.0,
        "B");
    // The probe repeats each predictor run; medians damp host noise.
    double collect_gap = 0.0;
    for (const std::string &name : probedPredictors()) {
        const double fused =
            medianNsPer(sumSpans(t, "predictors." + name + ".fused"));
        add("predictors." + name + ".fused_ns_per_branch", fused, "ns");
        add("predictors." + name + ".virtual_ns_per_branch",
            medianNsPer(sumSpans(t, "predictors." + name + ".virtual")),
            "ns");
        collect_gap +=
            medianNsPer(sumSpans(t, "predictors." + name + ".fused_collect")) -
            fused;
    }
    add("sim.accounting_ns_per_branch",
        collect_gap / double(probedPredictors().size()), "ns");
    add("sim.many_ns_per_branch_predictor",
        nsPer(sumSpans(t, "sim.simulateMany")), "ns");
    for (const std::string &mode : accessModes())
        add("sim.unattributed_s." + mode, median(gaps[mode]), "s");
    add("json.emit_s", median(dumps.durations), "s");
    add("json.doc_bytes", median(dumps.works), "B");
    const double n_sweeps = sweeps > 0 ? double(sweeps) : 1.0;
    add("sweep.busy_share", median(busy), "ratio");
    add("sweep.cache_hits", cache["hits"] / n_sweeps, "count");
    add("sweep.cache_misses", cache["misses"] / n_sweeps, "count");
    add("sweep.hit_share",
        cache["hits"] + cache["misses"] > 0.0
            ? cache["hits"] / (cache["hits"] + cache["misses"])
            : 0.0,
        "ratio");
    add("sweep.evictions", cache["evictions"] / n_sweeps, "count");
    add("sweep.mapped_loads", cache["mapped_loads"] / n_sweeps, "count");
    add("sweep.streamed_fallbacks", cache["streamed_fallbacks"] / n_sweeps,
        "count");
    add("sweep.failed_waits", cache["failed_waits"] / n_sweeps, "count");
    add("frontend.ns_per_branch", nsPer(sumSpans(t, "frontend.simulate")),
        "ns");
    add("frontend.overhead_ns_per_branch",
        probed.count("frontend.overhead_ns_per_branch")
            ? probed.at("frontend.overhead_ns_per_branch")
            : 0.0,
        "ns");
    add("trace.overhead_share",
        median(traced.round_walls) / median(untraced.round_walls) - 1.0,
        "ratio");
    return out;
}

bool
writeSpans(const std::string &path, const Context &ctx, const Workload &w,
           const Workload &probe, const Phase &traced, const json_t &fp)
{
    json_t jobs = json_t::array();
    for (const Record &r : traced.records) {
        const Job &job = r.probe ? probe.jobs[r.job] : w.jobs[r.job];
        jobs.push_back(json_t::object({
            {"id", std::int64_t(r.id)},
            {"kind", job.kind},
            {"mode", job.mode},
            {"label", job.label},
            {"probe", r.probe},
            {"wall_s", r.wall},
            {"ok", r.ok},
        }));
    }
    json_t spans = json_t::array();
    for (const Span &s : ctx.tracer.spans()) {
        spans.push_back(json_t::object({
            {"name", s.name},
            {"start", s.start},
            {"end", s.end},
            {"parent", std::int64_t(s.parent)},
            {"job", std::int64_t(s.job)},
            {"work", s.work},
        }));
    }
    json_t doc = json_t::object({
        {"workload", ctx.workload},
        {"seed", ctx.seed},
        {"fingerprint", fp},
        {"jobs", std::move(jobs)},
        {"spans", std::move(spans)},
    });
    std::ofstream out(path);
    out << doc.dump() << '\n';
    return bool(out);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR] [--scale X] [--plant-bug]\n",
                 argv0);
    return 2;
}

bool
parseArgs(int argc, char **argv, Context &ctx)
{
    ctx.work_dir = ".bench_build/layerbench-work";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--plant-bug") {
            ctx.planted_bug = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            ctx.workload = value;
        } else if (arg == "--seed") {
            ctx.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            ctx.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            ctx.trace = value == "1";
            if (value != "0" && value != "1")
                return false;
        } else if (arg == "--scale") {
            ctx.scale = std::strtod(value.c_str(), &end);
        } else if (arg == "--work-dir") {
            ctx.work_dir = value;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    const auto &names = workloadNames();
    return std::find(names.begin(), names.end(), ctx.workload) !=
               names.end() &&
           ctx.seconds > 0.0 && ctx.scale > 0.0;
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    json_t m = json_t::object();
    for (const Metric &metric : metrics)
        m[metric.name] =
            json_t::object({{"value", metric.value}, {"unit", metric.unit}});
    json_t result = json_t::object({
        {"correct", correct},
        {"attempted", std::uint64_t(attempted)},
        {"failed", std::uint64_t(failed)},
        {"metrics", std::move(m)},
    });
    std::printf("%s\n", result.dump().c_str());
}

int
run(int argc, char **argv)
{
    Context ctx;
    if (!parseArgs(argc, argv, ctx))
        return usage(argv[0]);
#if defined(__GLIBC__)
    // Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, it
    // rises after the first large free, later arena-sized buffers come from
    // the heap and stay resident after they are freed, and peak RSS then
    // measures which thread's heap kept them rather than what the library
    // holds (the sweep's figure jumped between about 80 and 100 MiB from
    // run to run; pinned, it holds at about 31 MiB).
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
    const json_t fp = fingerprint();
    if (std::string(fp.find("sanitizer")->asString()) != "none" ||
        !fp.find("optimized")->asBool() ||
        (std::strcmp(LB_BUILD_TYPE, "Release") != 0 &&
         std::strcmp(LB_BUILD_TYPE, "RelWithDebInfo") != 0)) {
        std::fprintf(stderr,
                     "refusing to report timings from this build: %s\n",
                     fp.dump().c_str());
        return 3;
    }
    const std::string run_dir = ctx.work_dir + "/" + ctx.workload + "-" +
                                std::to_string(ctx.seed) + "-" +
                                std::to_string(::getpid());
    const std::string spans_path = ctx.work_dir + "/spans-" + ctx.workload +
                                   "-" + std::to_string(ctx.seed) + ".json";
    removeTree(run_dir);
    makeDirs(run_dir);

    // Set-up, several times; set-up time is the median.
    ctx.tracer.enable(ctx.trace);
    Workload workload;
    std::vector<double> setups;
    std::string dir;
    for (int i = 0; i < kSetUps; ++i) {
        // Each set-up starts from nothing, as a user's first run would.
        workload = Workload{};
        removeTree(dir);
        dir = run_dir + "/setup-" + std::to_string(i);
        std::string error;
        const double t0 = nowSeconds();
        const bool ok = setUp(ctx, dir, workload, error);
        setups.push_back(nowSeconds() - t0);
        if (!ok) {
            std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
            removeTree(run_dir);
            return 1;
        }
    }
    buildJobs(ctx, dir, workload);

    // Untimed warm-up round: page cache, lazy statics, first allocations.
    ctx.tracer.enable(false);
    Phase warm, untraced, traced;
    int job_id = 0;
    for (std::size_t i = 0; i < workload.jobs.size(); ++i)
        warm.records.push_back(
            runJob(ctx, workload.jobs[i], i, -1, false, warm.failures));

    runRounds(ctx, workload, ctx.seconds, untraced,
              ctx.trace ? &traced : nullptr, job_id);

    Workload probe;
    std::map<std::string, double> probed;
    if (ctx.trace) {
        ctx.tracer.enable(true);
        probe.jobs = probeJobs(ctx, dir, workload);
        for (std::size_t i = 0; i < probe.jobs.size(); ++i)
            traced.records.push_back(runJob(ctx, probe.jobs[i], i, job_id++,
                                            true, traced.failures));
        ctx.tracer.setJob(-1);
        probed = probeLayers(ctx, dir, workload, traced.failures);
        ctx.tracer.enable(false);
    }

    std::vector<std::string> failures = warm.failures;
    failures.insert(failures.end(), untraced.failures.begin(),
                    untraced.failures.end());
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());
    json_t details = json_t::object();
    std::vector<Metric> metrics =
        endToEnd(workload, untraced, median(setups), details);
    if (ctx.trace) {
        metrics = perLayer(ctx, workload, probe, untraced, traced, probed);
        if (!writeSpans(spans_path, ctx, workload, probe, traced, fp))
            failures.push_back("cannot write span file " + spans_path);
        details["spans"] = spans_path;
    }
    removeTree(run_dir);

    for (std::size_t i = 0; i < failures.size() && i < 20; ++i)
        std::fprintf(stderr, "FAILED: %s\n", failures[i].c_str());
    std::size_t attempted = untraced.records.size();
    std::size_t failed = 0;
    for (const Record &r : untraced.records)
        failed += r.ok ? 0 : 1;
    // Failures outside the timed rounds (warm-up, traced run, probe) also
    // make the run incorrect; count each as one failed attempt.
    const std::size_t other = failures.size() - failed;
    attempted += other;
    failed += other;
    for (const Metric &m : metrics)
        std::printf("%-44s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    std::printf("%s\n", json_t::object({{"fingerprint", fp},
                                        {"details", std::move(details)}})
                            .dump()
                            .c_str());
    printResult(failures.empty(), attempted, failed, metrics);
    return failures.empty() ? 0 : 1;
}

} // namespace
} // namespace layerbench

int
main(int argc, char **argv)
{
    return layerbench::run(argc, argv);
}
