/**
 * @file
 * mbp_tracegen: generates the synthetic trace corpora from the command
 * line. Substitute for downloading the CBP5/DPC3 trace sets (see
 * DESIGN.md).
 *
 * Usage:
 *   mbp_tracegen suite <cbp5-train|cbp5-eval|dpc3> <dir> [scale] [formats]
 *   mbp_tracegen one <dir> <name> <seed> <num_instr> [formats]
 *   mbp_tracegen stress <dir> [seed] [num_branches]
 *
 * formats is a comma list of: sbbt,sbbt-raw,btt,btt-flz,champsim
 * (default: sbbt); exactly the named formats are written. An unknown
 * format, a malformed count or a non-positive scale is a usage error
 * (exit 2). The stress mode renders the front-end stress
 * workloads (interpreter-dispatch indirect storms, megamorphic virtual
 * call sites, deep-recursion RAS pressure) as SBBT traces.
 */
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "mbp/testkit/oracle.hpp"
#include "mbp/tools/cli.hpp"
#include "mbp/tools/corpus.hpp"
#include "mbp/tracegen/adversarial.hpp"
#include "mbp/tracegen/suite.hpp"

namespace
{

/**
 * Parses a comma list of format names into exactly the formats it names.
 * @return false (after naming the culprit) on an unknown or empty name.
 */
bool
parseFormats(const char *arg, mbp::tools::CorpusFormats &formats)
{
    formats = {.sbbt_flz = false}; // the list replaces the default
    const std::string list = arg;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string item = list.substr(pos, comma - pos);
        if (item == "sbbt")
            formats.sbbt_flz = true;
        else if (item == "sbbt-raw")
            formats.sbbt_raw = true;
        else if (item == "btt")
            formats.btt_gz = true;
        else if (item == "btt-flz")
            formats.btt_flz = true;
        else if (item == "champsim")
            formats.champsim = true;
        else {
            std::fprintf(stderr, "unknown format: '%s'\n", item.c_str());
            return false;
        }
        pos = comma + 1;
    }
    return true;
}

/** Parses a finite, strictly positive, fully consumed scale factor. */
bool
parseScale(const char *text, double &out)
{
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno != 0 || !std::isfinite(value) ||
        value <= 0.0)
        return false;
    out = value;
    return true;
}

int
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s suite <cbp5-train|cbp5-eval|dpc3> <dir> "
                 "[scale] [formats]\n"
                 "       %s one <dir> <name> <seed> <num_instr> [formats]\n"
                 "       %s stress <dir> [seed] [num_branches]\n",
                 prog, prog, prog);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage(argv[0]);
    std::string mode = argv[1];
    if (mode == "suite") {
        if (argc < 4)
            return usage(argv[0]);
        std::string which = argv[2];
        std::string dir = argv[3];
        double scale = 1.0;
        if (argc > 4 && !parseScale(argv[4], scale)) {
            std::fprintf(stderr, "bad scale: '%s'\n", argv[4]);
            return usage(argv[0]);
        }
        mbp::tools::CorpusFormats formats;
        if (argc > 5 && !parseFormats(argv[5], formats))
            return usage(argv[0]);
        std::vector<mbp::tracegen::WorkloadSpec> suite;
        if (which == "cbp5-train")
            suite = mbp::tracegen::cbp5TrainMini(scale);
        else if (which == "cbp5-eval")
            suite = mbp::tracegen::cbp5EvalMini(scale);
        else if (which == "dpc3")
            suite = mbp::tracegen::dpc3Mini(scale);
        else
            return usage(argv[0]);
        auto entries = mbp::tools::materialize(dir, suite, formats);
        for (const auto &entry : entries)
            std::printf("%-16s %12llu instructions\n", entry.name.c_str(),
                        (unsigned long long)entry.num_instr);
        return 0;
    }
    if (mode == "stress") {
        std::string dir = argv[2];
        std::uint64_t seed = 1;
        std::uint64_t num_branches = 100000;
        if (argc > 3 && !mbp::tools::parseCount(argv[3], seed)) {
            std::fprintf(stderr, "bad seed: '%s'\n", argv[3]);
            return usage(argv[0]);
        }
        if (argc > 4 && !mbp::tools::parseCount(argv[4], num_branches)) {
            std::fprintf(stderr, "bad num_branches: '%s'\n", argv[4]);
            return usage(argv[0]);
        }
        if (num_branches < 16) {
            std::fprintf(stderr, "num_branches must be >= 16\n");
            return 2;
        }
        std::error_code dir_error;
        std::filesystem::create_directories(dir, dir_error);
        if (dir_error) {
            std::fprintf(stderr, "cannot create dir '%s': %s\n",
                         dir.c_str(), dir_error.message().c_str());
            return 2;
        }
        struct StressWorkload
        {
            const char *name;
            std::vector<mbp::tracegen::TraceEvent> events;
        };
        const StressWorkload workloads[] = {
            {"stress-indirect",
             mbp::tracegen::indirectStorm(seed, num_branches, 8, 31)},
            {"stress-megamorphic",
             mbp::tracegen::megamorphicSites(seed, num_branches, 40)},
            {"stress-recursion",
             mbp::tracegen::deepRecursion(seed, num_branches, 70)},
        };
        for (const StressWorkload &w : workloads) {
            std::string path = dir + "/" + w.name + ".sbbt";
            std::string err = mbp::testkit::writeSbbtFile(w.events, path);
            if (!err.empty()) {
                std::fprintf(stderr, "%s: %s\n", path.c_str(),
                             err.c_str());
                return 1;
            }
            std::printf(
                "%-20s %10zu branches %12llu instructions\n", w.name,
                w.events.size(),
                (unsigned long long)mbp::tracegen::streamInstructions(
                    w.events));
        }
        return 0;
    }
    if (mode == "one") {
        if (argc < 6)
            return usage(argv[0]);
        mbp::tracegen::WorkloadSpec spec;
        spec.name = argv[3];
        if (!mbp::tools::parseCount(argv[4], spec.seed)) {
            std::fprintf(stderr, "bad seed: '%s'\n", argv[4]);
            return usage(argv[0]);
        }
        if (!mbp::tools::parseCount(argv[5], spec.num_instr)) {
            std::fprintf(stderr, "bad num_instr: '%s'\n", argv[5]);
            return usage(argv[0]);
        }
        mbp::tools::CorpusFormats formats;
        if (argc > 6 && !parseFormats(argv[6], formats))
            return usage(argv[0]);
        auto entries = mbp::tools::materialize(argv[2], {spec}, formats);
        std::printf("%s: %llu instructions\n", entries[0].name.c_str(),
                    (unsigned long long)entries[0].num_instr);
        return 0;
    }
    return usage(argv[0]);
}
