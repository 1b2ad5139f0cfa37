/**
 * @file
 * The traced run's layer probe: direct calls into each module's public
 * API on the workload's own traces, each under its own span, so that
 * every per-layer metric has a measurement on every workload.
 */
#include <string>
#include <vector>

#include "bench.hpp"
#include "mbp/compress/streams.hpp"
#include "mbp/frontend/frontend.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/sbbt/arena_store.hpp"
#include "mbp/sbbt/reader.hpp"
#include "mbp/sim/kernels.hpp"

namespace layerbench
{

namespace
{

constexpr int kProbeReps = 3;

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** Decompresses the whole file; span compress.openInput.<codec>. */
void
drainCompressed(Tracer &tracer, const TraceFile &trace,
                std::vector<std::string> &failures)
{
    const char *codec = endsWith(trace.path, ".flz") ? "flz"
                        : endsWith(trace.path, ".gz") ? "gzip"
                                                      : "raw";
    Scope span(tracer, std::string("compress.openInput.") + codec);
    auto input = mbp::compress::openInput(trace.path);
    if (input == nullptr) {
        failures.push_back(trace.path + ": openInput failed");
        return;
    }
    std::vector<char> buffer(1 << 20);
    std::uint64_t bytes = 0;
    while (std::size_t n = input->read(buffer.data(), buffer.size()))
        bytes += n;
    if (input->failed())
        failures.push_back(trace.path + ": decompression failed");
    span.setWork(double(bytes));
}

/** Decodes every packet with the prefetch thread on; span
 *  sbbt.SbbtReader. */
void
drainReader(Tracer &tracer, const TraceFile &trace,
            std::vector<std::string> &failures)
{
    Scope span(tracer, "sbbt.SbbtReader");
    mbp::sbbt::ReaderOptions options;
    options.prefetch = true;
    mbp::sbbt::SbbtReader reader(trace.path, options);
    mbp::sbbt::PacketData packet;
    while (reader.next(packet)) {
    }
    if (!reader.exhausted() || reader.branchesRead() != trace.branches)
        failures.push_back(trace.path + ": reader stopped after " +
                           std::to_string(reader.branchesRead()) +
                           " branches: " + reader.error());
    span.setWork(double(reader.branchesRead()));
}

/** Runs @p run under a span; @p seconds receives its duration. */
json_t
timedRun(Tracer &tracer, const std::string &span_name, double work,
         const std::function<json_t()> &run, double &seconds)
{
    Scope span(tracer, span_name);
    span.setWork(work);
    const double start = nowSeconds();
    json_t doc = run();
    seconds = nowSeconds() - start;
    return doc;
}

/** Checks a probe document's counts against the run's registry. */
void
checkProbe(Context &ctx, const json_t &doc, int index,
           const std::string &name, const TraceFile &trace,
           std::vector<std::string> &failures)
{
    Counts got;
    std::string e;
    if (!countsOf(doc, index, got, e))
        e = name + "@" + trace.name + " (layer probe): " + e;
    else
        e = ctx.expect.check(name + "@" + trace.name, got, "layer probe");
    if (!e.empty())
        failures.push_back(e);
}

} // namespace

std::map<std::string, double>
probeLayers(Context &ctx, const std::string &dir, Workload &workload,
            std::vector<std::string> &failures)
{
    Tracer &tracer = ctx.tracer;
    std::map<std::string, double> values;
    for (const TraceFile &trace : workload.traces) {
        drainCompressed(tracer, trace, failures);
        drainReader(tracer, trace, failures);
    }

    // Arena build, materialize and map of the first trace.
    const TraceFile &trace = workload.traces[0];
    std::string error;
    std::shared_ptr<const mbp::sbbt::MemTrace> arena;
    {
        Scope span(tracer, "sbbt.MemTrace::load");
        mbp::sbbt::ReaderOptions options;
        options.prefetch = true;
        arena = mbp::sbbt::MemTrace::load(trace.path, options, &error);
        if (arena != nullptr)
            span.setWork(double(arena->size()));
    }
    if (arena == nullptr || arena->size() != trace.branches) {
        failures.push_back(trace.path + ": MemTrace::load: " + error);
        return values;
    }
    values["sbbt.arena_bytes_per_branch"] =
        double(arena->memoryBytes()) / double(arena->size());
    const std::string store_dir = dir + "/probe-map-store";
    removeTree(store_dir);
    mbp::sbbt::ArenaStore store(store_dir);
    mbp::sbbt::ArenaStore::Info info;
    if (store.acquire(trace.path, {}, &error, &info) == nullptr ||
        info.sidecar.empty()) {
        failures.push_back(trace.path + ": no sidecar materialized: " +
                           error);
    } else {
        for (int rep = 0; rep < 3; ++rep) {
            Scope span(tracer, "sbbt.MemTrace::mapFile");
            auto mapped = mbp::sbbt::MemTrace::mapFile(info.sidecar, &error);
            if (mapped == nullptr || mapped->size() != arena->size())
                failures.push_back(info.sidecar + ": mapFile: " + error);
            else
                span.setWork(double(mapped->size()));
        }
    }
    removeTree(store_dir);

    // Predictor steps on the preloaded arena: fused with and without the
    // per-branch accounting, and the virtual path, each kProbeReps times
    // (the per-layer figures are medians). For the front end's conditional
    // predictors, the front end runs right after the virtual
    // conditional-only run it is compared with.
    const double branches = double(arena->size());
    mbp::SimArgs base;
    base.trace_path = trace.path;
    base.preloaded = arena;
    base.in_memory = true;
    mbp::SimArgs off = base;
    off.collect_most_failed = false;
    double overhead = 0.0;
    int pairs = 0;
    for (const std::string &name : probedPredictors()) {
        const auto fused = mbp::pred::fusedRunnerByName(name);
        const bool front = name == "gshare" || name == "tage";
        std::vector<double> virtual_s, front_s;
        for (int rep = 0; rep < kProbeReps; ++rep) {
            double seconds = 0.0;
            checkProbe(ctx,
                       timedRun(tracer, "predictors." + name + ".fused",
                                branches, [&] { return fused(off); },
                                seconds),
                       -1, name, trace, failures);
            checkProbe(ctx,
                       timedRun(tracer,
                                "predictors." + name + ".fused_collect",
                                branches, [&] { return fused(base); },
                                seconds),
                       -1, name, trace, failures);
            auto virt = mbp::pred::makeByName(name);
            checkProbe(ctx,
                       timedRun(tracer, "predictors." + name + ".virtual",
                                branches,
                                [&] { return mbp::simulate(*virt, off); },
                                seconds),
                       -1, name, trace, failures);
            virtual_s.push_back(seconds);
            if (!front)
                continue;
            mbp::frontend::FrontEnd front_end(mbp::pred::makeByName(name));
            checkProbe(ctx,
                       timedRun(tracer, "frontend.simulate", branches,
                                [&] {
                                    return mbp::frontend::simulate(front_end,
                                                                   off);
                                },
                                seconds),
                       -1, name, trace, failures);
            front_s.push_back(seconds);
        }
        if (front) {
            overhead += (median(front_s) - median(virtual_s)) / branches * 1e9;
            ++pairs;
        }
    }
    if (pairs > 0)
        values["frontend.overhead_ns_per_branch"] = overhead / pairs;

    // The N-ary fused kernels with the four expensive predictors.
    std::vector<std::unique_ptr<mbp::BlockKernel>> owned;
    std::vector<mbp::BlockKernel *> kernels;
    for (const std::string &name : heavyPredictors()) {
        owned.push_back(mbp::pred::fusedKernelByName(name));
        kernels.push_back(owned.back().get());
    }
    double seconds = 0.0;
    const json_t doc = timedRun(
        tracer, "sim.simulateMany", branches * double(kernels.size()),
        [&] { return mbp::simulateManyFused(kernels, base); }, seconds);
    for (std::size_t i = 0; i < kernels.size(); ++i)
        checkProbe(ctx, doc, int(i), heavyPredictors()[i], trace, failures);
    return values;
}

} // namespace layerbench
