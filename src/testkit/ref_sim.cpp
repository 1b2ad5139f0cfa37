/**
 * @file
 * The reference simulator: per-branch, std::map accounting, no shared
 * simulator internals.
 */
#include "mbp/testkit/ref_sim.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "mbp/sbbt/reader.hpp"

namespace mbp::testkit
{

namespace
{

struct SiteCounts
{
    std::uint64_t occurrences = 0;
    std::vector<std::uint64_t> mispredictions;
};

std::uint64_t
spreadOf(const std::vector<std::uint64_t> &counts)
{
    const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
    return *hi - *lo;
}

/** The run itself; @p single selects simulate()'s ranking rule. */
RefSimResult
run(const std::vector<Predictor *> &predictors, const SimArgs &args,
    bool single)
{
    RefSimResult result;
    const std::size_t n = predictors.size();
    sbbt::SbbtReader reader(args.trace_path);
    const std::uint64_t limit =
        args.sim_instr > UINT64_MAX - args.warmup_instr
            ? UINT64_MAX
            : args.warmup_instr + args.sim_instr;
    result.mispredictions.assign(n, 0);
    std::map<std::uint64_t, SiteCounts> sites;
    std::set<std::uint64_t> seen;
    std::vector<bool> guesses(n);
    std::uint64_t last_instr = 0;
    bool stopped = false;
    sbbt::PacketData packet;
    while (reader.next(packet)) {
        const Branch &b = packet.branch;
        last_instr = reader.instrNumber();
        if (last_instr > limit) {
            stopped = true;
            break;
        }
        seen.insert(b.ip());
        const bool measured = last_instr > args.warmup_instr;
        if (b.isConditional()) {
            for (std::size_t k = 0; k < n; ++k)
                guesses[k] = predictors[k]->predict(b.ip());
            if (measured) {
                ++result.num_conditional_branches;
                SiteCounts &site = sites[b.ip()];
                site.mispredictions.resize(n, 0);
                ++site.occurrences;
                for (std::size_t k = 0; k < n; ++k) {
                    if (guesses[k] != b.isTaken()) {
                        ++result.mispredictions[k];
                        ++site.mispredictions[k];
                    }
                }
            }
            for (Predictor *p : predictors)
                p->train(b);
        }
        if (!args.track_only_conditional || b.isConditional()) {
            for (Predictor *p : predictors)
                p->track(b);
        }
    }
    if (!reader.error().empty()) {
        result.error = reader.error();
        return result;
    }

    // The tail after an exhausted trace's last branch still counts; a
    // limit-stopped run counts up to the limit.
    result.exhausted_trace = !stopped && reader.exhausted();
    const std::uint64_t end =
        result.exhausted_trace
            ? std::max(reader.header().instruction_count, last_instr)
            : std::min(last_instr, limit);
    result.simulation_instr =
        end > args.warmup_instr ? end - args.warmup_instr : 0;
    result.num_branch_instructions = seen.size();

    // Rank: simulate() by mispredictions, simulateMany() by the spread
    // across predictors; ties broken by ascending address (std::map
    // order plus a stable sort).
    std::vector<RefSimResult::Site> ranked;
    for (const auto &[ip, counts] : sites) {
        const std::uint64_t key = single ? counts.mispredictions[0]
                                         : spreadOf(counts.mispredictions);
        if (key > 0)
            ranked.push_back({ip, counts.occurrences, counts.mispredictions});
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [single](const auto &x, const auto &y) {
                         return single ? x.mispredictions[0] >
                                             y.mispredictions[0]
                                       : spreadOf(x.mispredictions) >
                                             spreadOf(y.mispredictions);
                     });
    std::size_t keep = ranked.size();
    if (single) {
        // The fewest top sites accounting for half the mispredictions.
        const std::uint64_t half = (result.mispredictions[0] + 1) / 2;
        std::uint64_t covered = 0;
        keep = 0;
        while (keep < ranked.size() && covered < half)
            covered += ranked[keep++].mispredictions[0];
        result.num_most_failed_branches = keep;
    }
    ranked.resize(std::min(keep, args.most_failed_cap));
    result.most_failed = std::move(ranked);
    return result;
}

double
mpki(std::uint64_t count, std::uint64_t instructions)
{
    return instructions == 0 ? 0.0
                             : double(count) * 1000.0 / double(instructions);
}

/** Appends "what: got X, want Y" to @p out when the values differ. */
template <typename T>
void
expect(std::string &out, const std::string &what, const T &got,
       const T &want)
{
    if (out.empty() && !(got == want))
        out = what + ": driver " + std::to_string(got) + ", reference " +
              std::to_string(want);
}

void
expectNear(std::string &out, const std::string &what, double got,
           double want)
{
    if (out.empty() && std::fabs(got - want) > 1e-9 * (1.0 + std::fabs(want)))
        out = what + ": driver " + std::to_string(got) + ", reference " +
              std::to_string(want);
}

/**
 * The diff of either document shape; "" when they agree. simulate()
 * documents carry unsuffixed counters, simulateMany() ones a `_k`
 * suffix per predictor.
 */
std::string
diffDoc(const json_t &doc, const RefSimResult &ref, const SimArgs &args,
        bool many)
{
    if (!ref.error.empty()) {
        const json_t *error = doc.find("error");
        return error != nullptr && error->asString() == ref.error
                   ? ""
                   : "driver did not report the reference error '" +
                         ref.error + "'";
    }
    const json_t *md = doc.find("metadata");
    const json_t *metrics = doc.find("metrics");
    if (doc.contains("error") || md == nullptr || metrics == nullptr)
        return "driver failed: " + doc.dump(2);
    std::string out;
    expect(out, "simulation_instr", md->find("simulation_instr")->asUint(),
           ref.simulation_instr);
    expect(out, "exhausted_trace",
           std::uint64_t(md->find("exhausted_trace")->asBool()),
           std::uint64_t(ref.exhausted_trace));
    expect(out, "num_conditional_branches",
           md->find("num_conditional_branches")->asUint(),
           ref.num_conditional_branches);
    expect(out, "num_branch_instructions",
           md->find("num_branch_instructions")->asUint(),
           ref.num_branch_instructions);
    const auto key = [many](const char *stem, std::size_t k) {
        std::string name(stem);
        if (many) {
            name += '_';
            name += std::to_string(k);
        }
        return name;
    };
    for (std::size_t k = 0; k < ref.mispredictions.size(); ++k)
        expect(out, key("mispredictions", k),
               metrics->find(key("mispredictions", k))->asUint(),
               ref.mispredictions[k]);
    if (!args.collect_most_failed || !out.empty())
        return out;
    if (!many)
        expect(out, "num_most_failed_branches",
               metrics->find("num_most_failed_branches")->asUint(),
               ref.num_most_failed_branches);
    const json_t *ranked_doc = doc.find("most_failed");
    if (ranked_doc == nullptr)
        return "driver omitted most_failed";
    const json_t &ranked = *ranked_doc;
    expect(out, "most_failed size", std::uint64_t(ranked.size()),
           std::uint64_t(ref.most_failed.size()));
    for (std::size_t i = 0; out.empty() && i < ref.most_failed.size(); ++i) {
        const RefSimResult::Site &want = ref.most_failed[i];
        const std::string at = "most_failed[" + std::to_string(i) + "].";
        expect(out, at + "ip", ranked[i].find("ip")->asUint(), want.ip);
        expect(out, at + "occurrences",
               ranked[i].find("occurrences")->asUint(), want.occurrences);
        for (std::size_t k = 0; k < want.mispredictions.size(); ++k)
            expectNear(out, at + key("mpki", k),
                       ranked[i].find(key("mpki", k))->asDouble(),
                       mpki(want.mispredictions[k], ref.simulation_instr));
    }
    return out;
}

} // namespace

RefSimResult
referenceSimulate(Predictor &predictor, const SimArgs &args)
{
    return run({&predictor}, args, true);
}

RefSimResult
referenceSimulateMany(const std::vector<Predictor *> &predictors,
                      const SimArgs &args)
{
    return run(predictors, args, false);
}

std::string
diffSimulate(const json_t &doc, const RefSimResult &ref, const SimArgs &args)
{
    return diffDoc(doc, ref, args, false);
}

std::string
diffMany(const json_t &doc, const RefSimResult &ref, const SimArgs &args)
{
    return diffDoc(doc, ref, args, true);
}

} // namespace mbp::testkit
