/**
 * @file
 * gpuscale-lint — static analyzer for the gpuscale tree itself.
 *
 * Scans every .cc/.hh under the repo root's src/ (plus the CMake
 * lists, for compiler-flag rules) and enforces the invariants
 * described in docs/static_analysis.md: layering, concurrency
 * hygiene, locale safety, telemetry naming, error-code use,
 * instrument descriptions, floating-point determinism, fault
 * coverage, and lock discipline.
 *
 * One policy: every finding fails the run.  The only exception is
 * an `// gpuscale-lint: allow(rule): reason` marker on the line.
 *
 * Usage:
 *   gpuscale-lint [--root=DIR] [--rule=NAME ...] [--list-rules]
 *                 [--bench-json=FILE]
 *
 *   --root=DIR       repository root; defaults to the nearest
 *                    ancestor of the current directory containing
 *                    src/workloads.
 *   --rule=NAME      run only the named rule (repeatable).
 *   --list-rules     print every rule with its summary and exit.
 *   --bench-json=FILE
 *                    write {files, findings, suppressed, duration_s}
 *                    for the CI wall-time gate.
 *
 * Exit codes mirror the gpuscale CLI: 0 clean, 1 findings reported,
 * 3 bad arguments.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/rules.hh"
#include "obs/json.hh"

namespace {

using namespace gpuscale;

constexpr int kExitClean = 0;
constexpr int kExitFindings = 1;
constexpr int kExitBadArguments = 3;

/**
 * Walk upward from the current directory to the first ancestor that
 * looks like a gpuscale checkout; empty string if none does.
 */
std::string
discoverRoot()
{
    namespace fs = std::filesystem;
    fs::path dir = fs::current_path();
    while (true) {
        if (fs::is_directory(dir / "src" / "workloads"))
            return dir.string();
        if (dir == dir.parent_path())
            return "";
        dir = dir.parent_path();
    }
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: gpuscale-lint [--root=DIR] [--rule=NAME ...]\n"
        "                     [--list-rules] [--bench-json=FILE]\n"
        "exit codes: 0 clean, 1 findings, 3 bad arguments\n");
}

void
printRules(std::FILE *to,
           const std::vector<std::unique_ptr<analysis::Rule>> &rules)
{
    for (const auto &rule : rules)
        std::fprintf(to, "%-16s %s\n", rule->name().c_str(),
                     rule->description().c_str());
}

/**
 * The bench JSON is tool output, not census data: a failed write is
 * reported and fatal, but it is not a crash-consistency surface the
 * fault harness needs to reach.
 */
bool
writeFile(const std::string &path, const std::string &contents)
{
    // gpuscale-lint: allow(fault-coverage): lint report artifacts
    // are outside the census crash-consistency envelope.
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        return false;
    os << contents;
    os.flush();
    return static_cast<bool>(os);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root;
    std::vector<std::string> only_rules;
    std::string bench_json_path;
    bool list_rules = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--root=", 0) == 0) {
            root = arg.substr(7);
        } else if (arg.rfind("--rule=", 0) == 0) {
            only_rules.push_back(arg.substr(7));
        } else if (arg == "--list-rules") {
            list_rules = true;
        } else if (arg.rfind("--bench-json=", 0) == 0) {
            bench_json_path = arg.substr(13);
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n",
                         arg.c_str());
            usage();
            return kExitBadArguments;
        }
    }

    const auto rules = analysis::allRules();

    if (list_rules) {
        printRules(stdout, rules);
        return kExitClean;
    }

    for (const auto &wanted : only_rules) {
        bool known = false;
        for (const auto &rule : rules)
            known = known || rule->name() == wanted;
        if (!known) {
            std::fprintf(stderr,
                         "unknown rule '%s'; known rules:\n",
                         wanted.c_str());
            printRules(stderr, rules);
            return kExitBadArguments;
        }
    }

    if (root.empty())
        root = discoverRoot();
    if (root.empty()) {
        std::fprintf(stderr,
                     "cannot find a gpuscale checkout above the "
                     "current directory; pass --root=DIR\n");
        usage();
        return kExitBadArguments;
    }

    const auto start = std::chrono::steady_clock::now();

    const analysis::SourceRepo repo = analysis::loadRepo(root);
    analysis::Report report;

    for (const auto &rule : rules) {
        if (!only_rules.empty()) {
            bool wanted = false;
            for (const auto &name : only_rules)
                wanted = wanted || name == rule->name();
            if (!wanted)
                continue;
        }
        rule->run(repo, report);
    }

    const double duration_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    const size_t findings = report.findings().size();
    std::fputs(report.render().c_str(), stdout);
    std::printf("gpuscale-lint: %zu files, %zu findings, %zu "
                "suppressed (%.3fs)\n",
                repo.files.size(), findings, report.suppressedCount(),
                duration_s);

    if (!bench_json_path.empty()) {
        std::ostringstream os;
        {
            obs::JsonWriter w(os);
            w.beginObject();
            w.key("files")
                .value(static_cast<uint64_t>(repo.files.size()));
            w.key("findings").value(static_cast<uint64_t>(findings));
            w.key("suppressed")
                .value(static_cast<uint64_t>(
                    report.suppressedCount()));
            w.key("duration_s").value(duration_s);
            w.endObject();
        }
        os << '\n';
        if (!writeFile(bench_json_path, os.str())) {
            std::fprintf(stderr, "cannot write bench JSON '%s'\n",
                         bench_json_path.c_str());
            return kExitBadArguments;
        }
    }

    return findings > 0 ? kExitFindings : kExitClean;
}
