/**
 * @file
 * Spans, the correctness registry, the reference results and the trace
 * writers of the layered benchmark.
 */
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "bench.hpp"
#include "mbp/frontend/frontend.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/sbbt/arena_store.hpp"
#include "mbp/sbbt/writer.hpp"
#include "mbp/testkit/frontend_oracle.hpp"
#include "mbp/testkit/reference.hpp"
#include "mbp/tracegen/adversarial.hpp"

namespace layerbench
{

double
nowSeconds()
{
    static const auto kStart = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         kStart)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int
Tracer::begin(std::string name)
{
    if (!on_)
        return -1;
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.job = job_;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
    open_.push_back(id);
    spans_.back().start = nowSeconds();
    return id;
}

void
Tracer::end(int id, double work)
{
    if (id < 0)
        return;
    spans_[std::size_t(id)].end = nowSeconds();
    spans_[std::size_t(id)].work = work;
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

void
Tracer::rename(int id, std::string name)
{
    if (id >= 0)
        spans_[std::size_t(id)].name = std::move(name);
}

void
Expectations::pin(const std::string &key, const Counts &counts,
                  const std::string &source)
{
    entries_[key] = Entry{counts, source};
}

std::string
Expectations::check(const std::string &key, const Counts &got,
                    const std::string &source)
{
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        entries_.emplace(key, Entry{got, source});
        return "";
    }
    const Counts &want = it->second.counts;
    if (got.mispredictions == want.mispredictions &&
        got.instructions == want.instructions &&
        got.conditional == want.conditional)
        return "";
    return key + ": " + source + " reports mispredictions/instructions/"
           "conditional " + std::to_string(got.mispredictions) + "/" +
           std::to_string(got.instructions) + "/" +
           std::to_string(got.conditional) + " but " + it->second.source +
           " reported " + std::to_string(want.mispredictions) + "/" +
           std::to_string(want.instructions) + "/" +
           std::to_string(want.conditional);
}

namespace
{

const json_t *
field(const json_t &doc, const char *section, const std::string &key)
{
    const json_t *s = doc.find(section);
    return s != nullptr ? s->find(key) : nullptr;
}

} // namespace

bool
countsOf(const json_t &doc, int index, Counts &out, std::string &error)
{
    if (const json_t *e = doc.find("error")) {
        error = "error document: " + e->asString();
        return false;
    }
    std::string key = "mispredictions";
    if (index >= 0) {
        key += '_';
        key += std::to_string(index);
    }
    const json_t *misp = field(doc, "metrics", key);
    const json_t *instr = field(doc, "metadata", "simulation_instr");
    const json_t *cond = field(doc, "metadata", "num_conditional_branches");
    if (misp == nullptr || instr == nullptr || cond == nullptr) {
        error = "document lacks " + key +
                "/simulation_instr/num_conditional_branches";
        return false;
    }
    out = Counts{misp->asUint(), instr->asUint(), cond->asUint()};
    return true;
}

Counts
referenceCounts(mbp::Predictor &reference, const TraceFile &trace)
{
    Counts counts;
    std::uint64_t instr = 0;
    for (const auto &ev : trace.events) {
        const mbp::Branch &b = ev.branch;
        instr += ev.instr_gap + 1;
        if (b.isConditional()) {
            ++counts.conditional;
            if (reference.predict(b.ip()) != b.isTaken())
                ++counts.mispredictions;
            reference.train(b);
        }
        reference.track(b);
    }
    counts.instructions = instr;
    return counts;
}

FrontendCounts
referenceFrontend(const std::string &conditional, bool planted_bug,
                  const TraceFile &trace)
{
    mbp::testkit::FrontendDiffTarget target;
    if (planted_bug && conditional == "gshare") {
        target = mbp::testkit::brokenFrontendTarget();
    } else {
        for (auto &t : mbp::testkit::frontendDiffTargets({conditional}))
            if (t.name.find("-default-") != std::string::npos)
                target = std::move(t);
    }
    std::unique_ptr<mbp::testkit::RefFrontEnd> ref = target.reference();
    const std::size_t n = mbp::frontend::kNumBranchClasses;
    FrontendCounts out{std::vector<std::uint64_t>(n),
                       std::vector<std::uint64_t>(n),
                       std::vector<std::uint64_t>(n),
                       std::vector<std::uint64_t>(n)};
    for (const auto &ev : trace.events) {
        const mbp::Branch &b = ev.branch;
        const auto p = ref->step(b);
        const auto cls =
            static_cast<std::size_t>(mbp::frontend::classify(b.opcode()));
        ++out.count[cls];
        if (b.isTaken()) {
            ++out.taken[cls];
            if (p.target != b.target())
                ++out.target[cls];
        }
        if (b.isConditional() && p.taken != b.isTaken())
            ++out.direction[cls];
    }
    return out;
}

std::string
checkFrontendDoc(const json_t &doc, const FrontendCounts &ref)
{
    if (const json_t *e = doc.find("error"))
        return "error document: " + e->asString();
    const json_t *fe = doc.find("frontend");
    const json_t *classes = fe != nullptr ? fe->find("classes") : nullptr;
    const json_t *rollups = fe != nullptr ? fe->find("rollups") : nullptr;
    const json_t *total =
        rollups != nullptr ? rollups->find("total_branches") : nullptr;
    if (classes == nullptr || total == nullptr)
        return "document lacks frontend classes/rollups";
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < mbp::frontend::kNumBranchClasses; ++i) {
        const char *name = mbp::frontend::className(
            static_cast<mbp::frontend::BranchClass>(i));
        const json_t *c = classes->find(name);
        if (c == nullptr)
            return std::string("document lacks class ") + name;
        auto get = [c](const char *key) {
            const json_t *v = c->find(key);
            return v != nullptr ? v->asUint() : 0;
        };
        sum += get("count");
        if (get("count") != ref.count[i] || get("taken") != ref.taken[i] ||
            get("target_mispredictions") != ref.target[i] ||
            get("direction_mispredictions") != ref.direction[i])
            return std::string("class ") + name + " count/taken/target/"
                   "direction " + std::to_string(get("count")) + "/" +
                   std::to_string(get("taken")) + "/" +
                   std::to_string(get("target_mispredictions")) + "/" +
                   std::to_string(get("direction_mispredictions")) +
                   " differ from the reference front end " +
                   std::to_string(ref.count[i]) + "/" +
                   std::to_string(ref.taken[i]) + "/" +
                   std::to_string(ref.target[i]) + "/" +
                   std::to_string(ref.direction[i]);
    }
    if (sum != total->asUint())
        return "class counts sum to " + std::to_string(sum) +
               ", total_branches is " + std::to_string(total->asUint());
    return "";
}

namespace
{

/** A predictor that inverts every 1024th conditional prediction of the
 *  one it wraps: a kernel bug that stays deterministic. */
class FlippedPredictor : public mbp::Predictor
{
  public:
    explicit FlippedPredictor(std::unique_ptr<mbp::Predictor> inner)
        : inner_(std::move(inner))
    {
    }
    bool predict(std::uint64_t ip) override
    {
        return inner_->predict(ip) != (trained_ % 1024 == 1023);
    }
    void train(const mbp::Branch &b) override
    {
        inner_->train(b);
        ++trained_;
    }
    void track(const mbp::Branch &b) override { inner_->track(b); }

  private:
    std::unique_ptr<mbp::Predictor> inner_;
    std::uint64_t trained_ = 0;
};

/** The planted stand-in for @p name, or nullptr when it has none. */
std::unique_ptr<mbp::Predictor>
plantedPredictor(const std::string &name)
{
    if (name == "gshare")
        return std::make_unique<mbp::testkit::BrokenGshare>();
    if (name == "tage")
        return std::make_unique<FlippedPredictor>(
            mbp::pred::makeByName("tage"));
    return nullptr;
}

} // namespace

std::unique_ptr<mbp::Predictor>
makePredictor(const std::string &name, bool planted_bug)
{
    if (planted_bug)
        if (auto planted = plantedPredictor(name))
            return planted;
    return mbp::pred::makeByName(name);
}

json_t
runFused(const std::string &name, bool planted_bug, const mbp::SimArgs &args)
{
    if (planted_bug)
        if (auto planted = plantedPredictor(name))
            return mbp::simulate(*planted, args);
    return mbp::pred::fusedRunnerByName(name)(args);
}

bool
writeEvents(Tracer &tracer, Events events, const std::string &name,
            const std::string &path, TraceFile &out, std::string &error)
{
    out.name = name;
    out.path = path;
    out.header = mbp::sbbt::Header{};
    out.header.instruction_count = mbp::tracegen::streamInstructions(events);
    out.header.branch_count = events.size();
    out.branches = events.size();
    {
        Scope span(tracer, "tracegen.write");
        span.setWork(double(events.size()));
        mbp::sbbt::SbbtWriter writer(path, out.header);
        for (const auto &ev : events) {
            if (!writer.append(ev.branch, ev.instr_gap)) {
                error = path + ": " + writer.error();
                return false;
            }
        }
        if (!writer.close()) {
            error = path + ": " + writer.error();
            return false;
        }
    }
    out.events = std::move(events);
    return true;
}

bool
writeGenerated(Tracer &tracer, mbp::tracegen::WorkloadSpec spec,
               std::size_t branches, const std::string &path, TraceFile &out,
               std::string &error)
{
    // Sized in branches, not instructions: how many instructions a branch
    // stands for depends on the generated program, so a fixed instruction
    // count would make each seed simulate a different number of branches.
    const double instr_per_branch = double(spec.avg_block_len) + 1.0;
    spec.num_instr = std::uint64_t(1) << 62;
    if (spec.phase_length != 0)
        spec.phase_length =
            std::uint64_t(double(branches) * instr_per_branch / 4.0);
    Events events;
    events.reserve(branches);
    {
        Scope span(tracer, "tracegen.generate");
        mbp::tracegen::TraceGenerator gen(spec);
        mbp::tracegen::TraceEvent ev;
        while (events.size() < branches && gen.next(ev))
            events.push_back(ev);
        span.setWork(double(events.size()));
    }
    return writeEvents(tracer, std::move(events), spec.name, path, out,
                       error);
}

std::shared_ptr<const mbp::sbbt::MemTrace>
acquireArena(Tracer &tracer, const std::string &store_dir,
             const std::string &path, std::string &error)
{
    Scope span(tracer, "sbbt.ArenaStore::acquire");
    mbp::sbbt::ArenaStore store(store_dir);
    mbp::sbbt::ArenaStore::Info info;
    mbp::sbbt::ReaderOptions options;
    options.prefetch = true;
    auto arena = store.acquire(path, options, &error, &info);
    if (!info.rejected.empty())
        ++sidecarRejects();
    span.rename(info.materialized ? "sbbt.ArenaStore::acquire.materialize"
                : info.mapped     ? "sbbt.ArenaStore::acquire.map"
                                  : "sbbt.ArenaStore::acquire.decode");
    if (arena != nullptr)
        span.setWork(double(arena->size()));
    return arena;
}

std::uint64_t &
sidecarRejects()
{
    static std::uint64_t rejects = 0;
    return rejects;
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

void
makeDirs(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
}

} // namespace layerbench
