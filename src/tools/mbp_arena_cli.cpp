/**
 * @file
 * mbp_arena: manage the persistent SBBT-A arena store (sbbt::ArenaStore)
 * from the command line — pre-materialize a corpus before a campaign,
 * verify the sidecars it left behind, list what the store holds, and
 * garbage-collect sidecars the corpus no longer references.
 *
 * Usage:
 *   mbp_arena [--dir DIR] [--out FILE] materialize <trace...>
 *   mbp_arena [--dir DIR] [--out FILE] verify <trace...>
 *   mbp_arena [--dir DIR] [--out FILE] list
 *   mbp_arena [--dir DIR] [--out FILE] gc [trace...]
 *
 * The store directory is DIR, else $MBP_ARENA_CACHE, else the user cache
 * directory (~/.cache/mbp). Every command prints a JSON manifest:
 *
 *   materialize  one entry per trace: "mapped" (a valid sidecar already
 *                existed), "materialized" (decoded and written now) or
 *                "failed" (trace unreadable/corrupt; "error" says why).
 *                A sidecar of an older format version is rewritten
 *                ("materialized").
 *   verify       one entry per trace: "ok", "missing" (no sidecar),
 *                "stale" (sidecar records a different source hash),
 *                "outdated" (an older SBBT-A format version; the next
 *                materialize or acquire rewrites it) or "corrupt" (bad
 *                header/checksum). Never writes anything.
 *   list         every sidecar in the store with its header facts, or
 *                its status when it is "outdated" or "corrupt".
 *   gc           removes sidecars NOT matching any given trace (all of
 *                them when none is given), outdated sidecars even when
 *                their trace is given, plus abandoned temp files.
 *
 * Exit status: 0 all entries healthy, 1 some entry failed/corrupt/stale/
 * outdated, 2 usage or store errors.
 */
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "mbp/json/json.hpp"
#include "mbp/sbbt/arena_file.hpp"
#include "mbp/sbbt/arena_store.hpp"
#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sim/simulator.hpp" // kMbpVersion
#include "mbp/tools/cli.hpp"

namespace
{

int
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [--dir DIR] [--out FILE] materialize <trace...>\n"
        "       %s [--dir DIR] [--out FILE] verify <trace...>\n"
        "       %s [--dir DIR] [--out FILE] list\n"
        "       %s [--dir DIR] [--out FILE] gc [trace...]\n",
        prog, prog, prog, prog);
    return 2;
}

/**
 * @return Whether the sidecar at @p path is an SBBT-A file of an older
 *         format version than this build reads (it is rewritten, never
 *         parsed).
 */
bool
outdated(const std::string &path)
{
    mbp::sbbt::ArenaHeader header;
    return !mbp::sbbt::readArenaHeader(path, header) &&
           header.version < mbp::sbbt::kArenaFormatVersion;
}

/** Classifies the sidecar for one source trace; shared by verify. */
mbp::json_t
verifyTrace(const mbp::sbbt::ArenaStore &store, const std::string &trace,
            bool &healthy)
{
    using namespace mbp;
    json_t entry = json_t::object({{"trace", trace}});
    std::uint64_t hash = 0;
    std::string error;
    if (!sbbt::fileContentHash(trace, hash, &error)) {
        entry["status"] = "failed";
        entry["error"] = error;
        healthy = false;
        return entry;
    }
    const std::string sidecar = store.sidecarPathFor(hash);
    entry["sidecar"] = sidecar;
    std::error_code ec;
    if (!std::filesystem::exists(sidecar, ec)) {
        entry["status"] = "missing";
        healthy = false;
        return entry;
    }
    // mapFile replays the full integrity pipeline (magic, header and
    // payload checksums, column bounds); the recorded source hash then
    // distinguishes a stale sidecar from a healthy one.
    std::uint64_t recorded = 0;
    auto mapped = sbbt::MemTrace::mapFile(sidecar, &error, &recorded);
    if (mapped == nullptr) {
        entry["status"] = outdated(sidecar) ? "outdated" : "corrupt";
        entry["error"] = error;
        healthy = false;
    } else if (recorded != hash) {
        entry["status"] = "stale";
        healthy = false;
    } else {
        entry["status"] = "ok";
        entry["branches"] = mapped->size();
    }
    return entry;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mbp;

    std::string dir, out_path, command;
    std::vector<std::string> traces;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--dir") == 0) {
            if (i + 1 >= argc)
                return usage(argv[0]);
            dir = argv[++i];
        } else if (std::strcmp(argv[i], "--out") == 0) {
            if (i + 1 >= argc)
                return usage(argv[0]);
            out_path = argv[++i];
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return usage(argv[0]);
        } else if (command.empty()) {
            command = argv[i];
        } else {
            traces.push_back(argv[i]);
        }
    }
    const bool needs_traces =
        command == "materialize" || command == "verify";
    const bool known = needs_traces || command == "list" || command == "gc";
    if (!known || (needs_traces && traces.empty()))
        return usage(argv[0]);

    sbbt::ArenaStore store(dir);
    if (!store.ok()) {
        std::fprintf(stderr, "cannot open arena store '%s'\n",
                     store.dir().empty() ? "<unresolved>"
                                         : store.dir().c_str());
        return 2;
    }

    bool healthy = true;
    json_t entries = json_t::array();

    if (command == "materialize") {
        for (const std::string &trace : traces) {
            json_t entry = json_t::object({{"trace", trace}});
            std::string error;
            sbbt::ArenaStore::Info info;
            auto arena = store.acquire(trace, {}, &error, &info);
            if (arena == nullptr) {
                entry["status"] = "failed";
                entry["error"] = error;
                healthy = false;
            } else {
                entry["status"] = info.mapped ? "mapped" : "materialized";
                entry["content_hash"] = info.content_hash;
                entry["sidecar"] = info.sidecar;
                entry["branches"] = arena->size();
                entry["arena_bytes"] = arena->memoryBytes();
                if (!info.materialized && !info.mapped) {
                    // Decoded fine but the sidecar could not be written
                    // (full disk, races): the corpus is usable but not
                    // persisted — surface it without failing the run.
                    entry["status"] = "unpersisted";
                    entry["error"] = info.rejected;
                    healthy = false;
                }
            }
            entries.push_back(std::move(entry));
        }
    } else if (command == "verify") {
        for (const std::string &trace : traces)
            entries.push_back(verifyTrace(store, trace, healthy));
    } else if (command == "list") {
        std::error_code ec;
        for (const auto &file :
             std::filesystem::directory_iterator(store.dir(), ec)) {
            if (file.path().extension() != ".sbbta")
                continue;
            json_t entry =
                json_t::object({{"sidecar", file.path().string()}});
            sbbt::ArenaHeader header;
            std::string error;
            if (sbbt::readArenaHeader(file.path().string(), header,
                                      &error)) {
                entry["branches"] = header.trace.branch_count;
                entry["instructions"] = header.trace.instruction_count;
                entry["sites"] = std::uint64_t(header.num_sites);
                entry["file_bytes"] = header.file_bytes;
                entry["source_hash"] = header.source_hash;
            } else {
                entry["status"] =
                    header.version < sbbt::kArenaFormatVersion ? "outdated"
                                                               : "corrupt";
                entry["error"] = error;
                healthy = false;
            }
            entries.push_back(std::move(entry));
        }
        if (ec) {
            std::fprintf(stderr, "cannot list '%s'\n", store.dir().c_str());
            return 2;
        }
    } else { // gc
        std::set<std::string> keep;
        for (const std::string &trace : traces) {
            std::uint64_t hash = 0;
            if (sbbt::fileContentHash(trace, hash))
                keep.insert(store.sidecarPathFor(hash));
        }
        std::error_code ec;
        for (const auto &file :
             std::filesystem::directory_iterator(store.dir(), ec)) {
            const std::string path = file.path().string();
            const std::string name = file.path().filename().string();
            const bool temp = name.rfind(".tmp-", 0) == 0;
            const bool sidecar = file.path().extension() == ".sbbta" &&
                                 !temp &&
                                 (keep.find(path) == keep.end() ||
                                  outdated(path));
            if (!temp && !sidecar)
                continue;
            json_t entry = json_t::object(
                {{"sidecar", path}, {"status", "removed"}});
            if (!std::filesystem::remove(path, ec) || ec) {
                entry["status"] = "unremovable";
                healthy = false;
                ec.clear();
            }
            entries.push_back(std::move(entry));
        }
        if (ec) {
            std::fprintf(stderr, "cannot list '%s'\n", store.dir().c_str());
            return 2;
        }
    }

    json_t manifest = json_t::object({
        {"tool", "mbp_arena"},
        {"version", kMbpVersion},
        {"store_dir", store.dir()},
        {"command", command},
    });
    manifest["entries"] = std::move(entries);
    const std::string text = manifest.dump(2) + "\n";
    if (!out_path.empty()) {
        std::FILE *out = std::fopen(out_path.c_str(), "wb");
        if (out == nullptr ||
            std::fwrite(text.data(), 1, text.size(), out) != text.size()) {
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
            if (out)
                std::fclose(out);
            return 2;
        }
        std::fclose(out);
    } else {
        std::fwrite(text.data(), 1, text.size(), stdout);
    }
    return healthy ? 0 : 1;
}
