/**
 * @file
 * perfbench: one operation loop per workload, timed from the
 * benchmark's side of the program's public calls.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --result FILE [--setup-only]
 *
 * Runs from the repository root (it reads classifications.csv and
 * writes under .bench_build/perfbench/).  The result file holds one
 * process's numbers; run.py adds the median set-up time over several
 * processes and prints the reported metrics.  Exit 0
 * on a clean run, 1 when an output was wrong or the run failed, 3 on
 * bad arguments.  GPUSCALE_FAULTS plans are honoured, as in the CLI.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench.hh"
#include "obs/fault_telemetry.hh"
#include "obs/json.hh"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

struct Options {
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;
    std::string result;
};

const char *const kUsage =
    "usage: perfbench --workload census_cold|census_resume|service_mix|"
    "sparse_census --seed N --seconds S --trace 0|1 --result FILE "
    "[--setup-only]\n";

template <typename T>
bool
parseNumber(const std::string &text, T &out)
{
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), out);
    return ec == std::errc() && end == text.data() + text.size();
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--setup-only") {
            o.setup_only = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        int trace = 0;
        if (arg == "--workload")
            o.workload = value;
        else if (arg == "--seed" && parseNumber(value, o.seed))
            continue;
        else if (arg == "--seconds" && parseNumber(value, o.seconds) &&
                 o.seconds > 0.0)
            continue;
        else if (arg == "--trace" && parseNumber(value, trace) &&
                 (trace == 0 || trace == 1))
            o.trace = trace == 1;
        else if (arg == "--result")
            o.result = value;
        else
            return false;
    }
    return !o.workload.empty() && !o.result.empty();
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "census_cold")
        return makeCensusCold();
    if (name == "census_resume")
        return makeCensusResume();
    if (name == "service_mix")
        return makeServiceMix();
    if (name == "sparse_census")
        return makeSparseCensus();
    return nullptr;
}

/** What each workload takes from the seed. */
const char *
inputOf(const std::string &workload)
{
    if (workload == "service_mix")
        return "seeded: Poisson arrivals, op mix, kernels and grid points";
    if (workload == "sparse_census")
        return "fixed zoo on the paper grid; plan seed per op from the seed";
    return "fixed: the 267-kernel zoo on the 891-point paper grid; "
           "the seed is recorded but unused";
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

bool
writeResult(const Options &o, double setup_s, double spawn_ms,
            const Measurement &m, const std::map<std::string, double> &layer)
{
    std::ofstream os(o.result);
    gs::obs::JsonWriter w(os);
    w.beginObject();
    w.key("workload").value(o.workload);
    w.key("seed").value(o.seed);
    w.key("input").value(inputOf(o.workload));
    w.key("setup_s").value(setup_s);
    w.key("pool_spawn_ms").value(spawn_ms);
    w.key("peak_rss_mb").value(peakRssMb());
    w.key("attempted").value(static_cast<uint64_t>(m.attempted));
    w.key("failed").value(static_cast<uint64_t>(m.failed));
    w.key("wrong_outputs").value(static_cast<uint64_t>(m.wrong));
    w.key("error_share")
        .value(m.attempted > 0 ? static_cast<double>(m.failed) /
                                     static_cast<double>(m.attempted)
                               : 0.0);
    w.key("wall_s").value(m.wall_s);
    w.key("ops_per_s")
        .value(m.wall_s > 0.0
                   ? static_cast<double>(m.attempted - m.failed) / m.wall_s
                   : 0.0);
    w.key("latency_ms_p50").value(median(m.latency_ms));
    const TailPick tail = tailPick(m.latency_ms);
    w.key("latency_ms_tail").beginObject();
    w.key("value").value(tail.value);
    w.key("percentile").value(tail.percentile);
    w.key("beyond").value(static_cast<uint64_t>(tail.beyond));
    w.key("samples").value(static_cast<uint64_t>(tail.samples));
    w.endObject();
    w.key("facts").beginObject();
    for (const auto &[k, v] : m.facts)
        w.key(k).value(v);
    w.endObject();
    w.key("layer").beginObject();
    for (const auto &[k, v] : layer)
        w.key(k).value(v);
    w.endObject();
    w.endObject();
    os << '\n';
    return static_cast<bool>(os);
}

} // namespace

int
main(int argc, char **argv)
{
    // One malloc arena for every thread, set before any thread starts.
    // With glibc's default of one arena per thread, peak RSS depends on
    // which worker happened to run which shard and varied by 15-20% from
    // run to run; with one arena it reflects what the program holds.
    mallopt(M_ARENA_MAX, 1);
    gs::obs::armFaultsFromEnv();
    Options o;
    if (!parseArgs(argc, argv, o)) {
        std::fputs(kUsage, stderr);
        return 3;
    }
    std::unique_ptr<Workload> workload = makeWorkload(o.workload);
    if (workload == nullptr) {
        std::fputs(kUsage, stderr);
        return 3;
    }

    Bench bench;
    bench.seed = o.seed;
    bench.scratch = ".bench_build/perfbench/scratch-" +
                    std::to_string(::getpid());
    int status = 0;
    try {
        fs::create_directories(bench.scratch);
        if (!loadGolden("classifications.csv", bench.golden))
            throw std::runtime_error("cannot read classifications.csv");

        const int64_t t0 = nowNs();
        workload->setUp(bench);
        const int64_t t1 = nowNs();
        Bench::spawnPool();
        const double setup_s = static_cast<double>(t1 - t0) * 1e-9;
        const double spawn_ms = static_cast<double>(nowNs() - t1) * 1e-6;

        Measurement m;
        std::map<std::string, double> layer;
        if (!o.setup_only) {
            SpanRecorder workload_spans;
            SpanRecorder probe_spans;
            m = workload->measure(bench, o.seconds,
                                  o.trace ? &workload_spans : nullptr);
            if (o.trace) {
                runLayerProbes(bench, probe_spans, layer);
                layer.insert(m.layer.begin(), m.layer.end());
                std::ofstream os(".bench_build/perfbench/trace-" +
                                 o.workload + "-" +
                                 std::to_string(o.seed) + ".json");
                gs::obs::JsonWriter w(os);
                w.beginObject().key("workload");
                workload_spans.write(w);
                w.key("probes");
                probe_spans.write(w);
                w.endObject();
                os << '\n';
            }
        }
        if (!writeResult(o, setup_s, spawn_ms, m, layer))
            throw std::runtime_error("cannot write " + o.result);
        status = m.wrong == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        status = 1;
    }
    workload.reset(); // stop the daemon before the model goes away
    std::error_code ec;
    fs::remove_all(bench.scratch, ec);
    return status;
}
