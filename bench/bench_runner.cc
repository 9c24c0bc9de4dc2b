/**
 * @file
 * bench_runner: the A/B timing ratios no other tool measures.
 *
 * perfbench (BENCHMARK.json) times the census end to end and layer
 * by layer, and ctest holds every contract that needs no timer.
 * What is left here are ratios between two timed sides of one run,
 * each side min-of-N after warmup:
 *
 *  - BENCH_census.json: the batched sharded census against the
 *    legacy scalar single-thread walk it replaced (speedup), and the
 *    single-thread SoA batched walk against the same scalar walk
 *    (speedup_single_core, the like-for-like >= 8x SIMD gate).  It
 *    also records harness_vs_bare_1t (the pooled sweep over the bare
 *    one-thread model) next to a calibration of how many cores the
 *    run actually had, so a thread-scaling figure can be read
 *    against the machine it ran on.
 *  - BENCH_resilience.json: the census with a crash-safe checkpoint
 *    journal attached against the unjournaled run; the journal's
 *    write overhead is the resilience perf gate (<= 5%).
 *  - BENCH_telemetry.json: the hot sweep with every counter and
 *    histogram recording against the same sweep quiesced; the
 *    recording overhead is the instrumentation perf gate (<= 2%).
 *
 * Usage: bench_runner [--runs=N] [--warmup=N] [--output=FILE]
 *                     [--resilience-output=FILE]
 *                     [--telemetry-output=FILE] [--test-grid]
 *
 * --test-grid shrinks the sweep to the 27-point grid so smoke jobs
 * stay fast; the emitted JSON records which grid ran.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "base/string_util.hh"
#include "bench_common.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "harness/sweep.hh"
#include "harness/sweep_cache.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "workloads/registry.hh"

namespace {

using namespace gpuscale;

struct RunnerOptions {
    int runs = 5;
    int warmup = 1;
    std::string output = "BENCH_census.json";
    std::string resilience_output = "BENCH_resilience.json";
    std::string telemetry_output = "BENCH_telemetry.json";
    bool test_grid = false;
};

using bench::writeTiming;

/** Work items of the core-count calibration. */
constexpr size_t kCalibrationChunks = 64;

/**
 * One calibration work item: a dependent multiply-add chain that
 * stays in registers, so it measures cores, not memory.  All
 * kCalibrationChunks of them take about 100 ms on one core.
 */
double
calibrationChunk(size_t chunk)
{
    double x = 1.0 + 1e-3 * static_cast<double>(chunk);
    for (int i = 0; i < 600000; ++i)
        x = x * 0.999999 + 1e-6;
    return x;
}

int
run(const RunnerOptions &opts)
{
    const gpu::AnalyticModel model;
    const auto space = opts.test_grid
                           ? scaling::ConfigSpace::testGrid()
                           : scaling::ConfigSpace::paperGrid();
    const gpu::ConfigGrid &grid = space.grid();
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();
    const double estimates =
        static_cast<double>(kernels.size()) *
        static_cast<double>(space.size());
    const unsigned threads =
        std::max<unsigned>(1u, std::thread::hardware_concurrency());

    bench::banner("BENCH", "batched sharded census engine");
    std::printf("%zu kernels x %zu configs = %.0f estimates, "
                "%u hardware threads\n",
                kernels.size(), space.size(), estimates, threads);

    //
    // 1. The engine under test: batched evaluateGridRuntimes + kernel
    //    shards across the worker pool.  The cache is dropped per run
    //    so the number is compute, not lookups.
    //
    const bench::TimingStats batched =
        bench::minOfN(opts.warmup, opts.runs, [&] {
            harness::SweepCache::instance().clear();
            const auto surfaces =
                harness::sweepKernels(model, kernels, space);
            fatal_if(surfaces.size() != kernels.size(),
                     "census produced %zu surfaces for %zu kernels",
                     surfaces.size(), kernels.size());
        });
    std::printf("batched parallel census: %.4f s min-of-%d "
                "(%.0f estimates/s)\n",
                batched.min_s, batched.runs, estimates / batched.min_s);

    //
    // 2. The baseline it replaced: one scalar estimate() per point on
    //    the calling thread.
    //
    const bench::TimingStats scalar =
        bench::minOfN(std::min(opts.warmup, 1), opts.runs, [&] {
            double sink = 0.0;
            for (const auto *kernel : kernels) {
                for (size_t i = 0; i < space.size(); ++i)
                    sink += model.estimate(*kernel, space.at(i)).time_s;
            }
            fatal_if(sink <= 0, "scalar walk produced no time");
        });
    const double speedup =
        batched.min_s > 0 ? scalar.min_s / batched.min_s : 0.0;
    std::printf("scalar 1-thread census:  %.4f s min-of-%d "
                "(%.0f estimates/s)\n",
                scalar.min_s, scalar.runs, estimates / scalar.min_s);
    std::printf("speedup: %.2fx\n", speedup);

    //
    // 3. The like-for-like SIMD gate: one thread, no cache, no pool —
    //    the SoA batched kernel against the scalar walk above.  This
    //    is the number the >= 8x CI gate checks; the parallel figure
    //    in section 1 folds thread scaling in on top and is reported
    //    separately.
    //
    const bench::TimingStats batched_single =
        bench::minOfN(std::min(opts.warmup, 1), opts.runs, [&] {
            double sink = 0.0;
            for (const auto *kernel : kernels)
                sink += model.evaluateGridRuntimes(*kernel, grid)[0];
            fatal_if(sink <= 0, "batched walk produced no time");
        });
    const double speedup_single_core =
        batched_single.min_s > 0 ? scalar.min_s / batched_single.min_s
                                 : 0.0;
    std::printf("batched 1-thread census: %.4f s min-of-%d "
                "(%.0f estimates/s)\n",
                batched_single.min_s, batched_single.runs,
                estimates / batched_single.min_s);
    std::printf("single-core speedup: %.2fx (gate: >= 8x)\n",
                speedup_single_core);
    // Below 1 the pooled harness beats the bare model on one thread;
    // above 1 the harness costs more than the threads win.
    const double harness_vs_bare_1t =
        batched_single.min_s > 0 ? batched.min_s / batched_single.min_s
                                 : 0.0;
    std::printf("harness vs bare 1-thread model: %.2fx\n",
                harness_vs_bare_1t);

    //
    // 4. Calibration: the same fixed compute work on this thread and
    //    then across the pool.  The ratio is how many cores this run
    //    had; a thread-scaling figure means little without it.
    //
    std::vector<double> calibration_sink(kCalibrationChunks);
    const bench::TimingStats calib_serial =
        bench::minOfN(std::min(opts.warmup, 1), opts.runs, [&] {
            for (size_t c = 0; c < kCalibrationChunks; ++c)
                calibration_sink[c] = calibrationChunk(c);
        });
    const bench::TimingStats calib_pool =
        bench::minOfN(std::min(opts.warmup, 1), opts.runs, [&] {
            harness::parallelFor(kCalibrationChunks, [&](size_t c) {
                calibration_sink[c] = calibrationChunk(c);
            });
        });
    fatal_if(calibration_sink.back() <= 0,
             "calibration loop produced nothing");
    const double effective_cores =
        calib_pool.min_s > 0 ? calib_serial.min_s / calib_pool.min_s
                             : 0.0;
    std::printf("calibration: %.4f s on 1 thread, %.4f s on the pool "
                "(%.2f effective cores)\n",
                calib_serial.min_s, calib_pool.min_s, effective_cores);

    //
    // 5. Resilience gate: the full census (sweep + classification —
    //    what `gpuscale census` runs and what a user checkpoints)
    //    with and without the crash-safe journal.  The journal's
    //    write overhead against its own unjournaled baseline must
    //    stay <= 5%.
    //
    auto &registry = obs::Registry::instance();
    const bench::TimingStats census_plain =
        bench::minOfN(opts.warmup, opts.runs, [&] {
            harness::SweepCache::instance().clear();
            const auto census = harness::runCensus(
                model, space, scaling::TaxonomyParams{});
            fatal_if(census.classifications.size() != kernels.size(),
                     "census classified %zu of %zu kernels",
                     census.classifications.size(), kernels.size());
        });
    const std::string journal_dir = "bench-checkpoint-journal";
    std::filesystem::remove_all(journal_dir);
    const uint64_t records0 =
        registry.counter("checkpoint.records").value();
    // A fresh journal per run (a pre-existing one would replay
    // instead of write), constructed up front: journal setup is
    // once-per-census, the gate measures steady-state record() write
    // overhead.
    std::vector<std::unique_ptr<harness::CensusJournal>> journals;
    for (int i = 0; i < opts.warmup + opts.runs; ++i) {
        journals.push_back(std::make_unique<harness::CensusJournal>(
            journal_dir + "/" + std::to_string(i),
            model.fingerprint(), space.grid().fingerprint()));
    }
    size_t ck_run = 0;
    const bench::TimingStats checkpointed =
        bench::minOfN(opts.warmup, opts.runs, [&] {
            harness::SweepCache::instance().clear();
            const auto census = harness::runCensus(
                model, space, scaling::TaxonomyParams{}, nullptr,
                journals[ck_run++].get());
            fatal_if(census.classifications.size() != kernels.size(),
                     "checkpointed census classified %zu of %zu "
                     "kernels",
                     census.classifications.size(), kernels.size());
        });
    journals.clear();
    std::filesystem::remove_all(journal_dir);
    const uint64_t journal_records =
        registry.counter("checkpoint.records").value() - records0;
    const double overhead_pct =
        census_plain.min_s > 0
            ? (checkpointed.min_s / census_plain.min_s - 1.0) * 100.0
            : 0.0;
    std::printf("census (no journal):     %.4f s min-of-%d\n",
                census_plain.min_s, census_plain.runs);
    std::printf("census (journaled):      %.4f s min-of-%d "
                "(journal overhead %+.2f%%)\n",
                checkpointed.min_s, checkpointed.runs, overhead_pct);

    std::ofstream os(opts.output);
    fatal_if(!os, "cannot write %s", opts.output.c_str());
    obs::JsonWriter w(os);
    w.beginObject();
    w.key("schema_version").value(2);
    w.key("benchmark").value("census");
    w.key("grid").value(opts.test_grid ? "test" : "paper");
    w.key("kernels").value(static_cast<uint64_t>(kernels.size()));
    w.key("configs").value(static_cast<uint64_t>(space.size()));
    w.key("estimates_per_run").value(estimates);
    w.key("threads").value(static_cast<uint64_t>(threads));
    w.key("warmup").value(opts.warmup);
    w.key("batched_parallel");
    writeTiming(w, batched, estimates);
    w.key("scalar_single_thread");
    writeTiming(w, scalar, estimates);
    w.key("speedup").value(speedup);
    w.key("batched_single_thread");
    writeTiming(w, batched_single, estimates);
    w.key("speedup_single_core").value(speedup_single_core);
    w.key("harness_vs_bare_1t").value(harness_vs_bare_1t);
    w.key("calibration");
    w.beginObject();
    w.key("effective_cores").value(effective_cores);
    w.key("serial_min_s").value(calib_serial.min_s);
    w.key("serial_max_s").value(calib_serial.max_s);
    w.key("pool_min_s").value(calib_pool.min_s);
    w.key("pool_max_s").value(calib_pool.max_s);
    w.key("runs").value(calib_serial.runs);
    w.endObject();
    w.endObject();
    os << '\n';
    fatal_if(!w.complete(), "BENCH JSON incomplete");
    inform("wrote %s", opts.output.c_str());

    std::ofstream ros(opts.resilience_output);
    fatal_if(!ros, "cannot write %s", opts.resilience_output.c_str());
    obs::JsonWriter rw(ros);
    rw.beginObject();
    rw.key("schema_version").value(1);
    rw.key("benchmark").value("resilience");
    rw.key("grid").value(opts.test_grid ? "test" : "paper");
    rw.key("threads").value(static_cast<uint64_t>(threads));
    rw.key("checkpointed");
    writeTiming(rw, checkpointed, estimates);
    rw.key("baseline_min_s").value(census_plain.min_s);
    rw.key("overhead_pct").value(overhead_pct);
    rw.key("journal_records_per_run")
        .value(static_cast<uint64_t>(kernels.size()));
    rw.key("journal_records_total").value(journal_records);
    rw.endObject();
    ros << '\n';
    fatal_if(!rw.complete(), "resilience BENCH JSON incomplete");
    inform("wrote %s", opts.resilience_output.c_str());

    //
    // 6. Telemetry gate: the same hot sweep with every counter and
    //    histogram quiesced (inc()/record() return after one
    //    relaxed load — the zero-cost baseline) vs fully recording.
    //    The recording overhead must stay <= 2%.
    //
    obs::Registry::setQuiesced(true);
    const bench::TimingStats quiesced =
        bench::minOfN(opts.warmup, opts.runs, [&] {
            harness::SweepCache::instance().clear();
            const auto surfaces =
                harness::sweepKernels(model, kernels, space);
            fatal_if(surfaces.size() != kernels.size(),
                     "quiesced census produced %zu surfaces",
                     surfaces.size());
        });
    obs::Registry::setQuiesced(false);
    const bench::TimingStats instrumented =
        bench::minOfN(opts.warmup, opts.runs, [&] {
            harness::SweepCache::instance().clear();
            const auto surfaces =
                harness::sweepKernels(model, kernels, space);
            fatal_if(surfaces.size() != kernels.size(),
                     "instrumented census produced %zu surfaces",
                     surfaces.size());
        });
    const double telemetry_overhead_pct =
        quiesced.min_s > 0
            ? (instrumented.min_s / quiesced.min_s - 1.0) * 100.0
            : 0.0;
    std::printf("census (quiesced):       %.4f s min-of-%d\n",
                quiesced.min_s, quiesced.runs);
    std::printf("census (instrumented):   %.4f s min-of-%d "
                "(telemetry overhead %+.2f%%)\n",
                instrumented.min_s, instrumented.runs,
                telemetry_overhead_pct);

    const auto shard_values =
        registry.counter("sweep.estimates.count").shardValues();
    std::ofstream tos(opts.telemetry_output);
    fatal_if(!tos, "cannot write %s", opts.telemetry_output.c_str());
    obs::JsonWriter tw(tos);
    tw.beginObject();
    tw.key("schema_version").value(1);
    tw.key("benchmark").value("telemetry");
    tw.key("grid").value(opts.test_grid ? "test" : "paper");
    tw.key("threads").value(static_cast<uint64_t>(threads));
    tw.key("shard_count")
        .value(static_cast<uint64_t>(obs::shardCount()));
    tw.key("quiesced");
    writeTiming(tw, quiesced, estimates);
    tw.key("instrumented");
    writeTiming(tw, instrumented, estimates);
    tw.key("overhead_pct").value(telemetry_overhead_pct);
    tw.key("shard_values").beginArray();
    for (const uint64_t v : shard_values)
        tw.value(v);
    tw.endArray();
    tw.endObject();
    tos << '\n';
    fatal_if(!tw.complete(), "telemetry BENCH JSON incomplete");
    inform("wrote %s", opts.telemetry_output.c_str());


    bench::emitInstrumentation();
    return 0;
}

} // namespace
int
main(int argc, char **argv)
{
    RunnerOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto intFlag = [&](const char *prefix,
                           int &out) -> bool {
            const size_t n = std::strlen(prefix);
            if (arg.rfind(prefix, 0) != 0)
                return false;
            const auto parsed = parseInteger<int>(arg.substr(n));
            fatal_if(!parsed || *parsed < 0, "bad value in '%s'",
                     arg.c_str());
            out = *parsed;
            return true;
        };
        if (intFlag("--runs=", opts.runs)) {
            continue;
        } else if (intFlag("--warmup=", opts.warmup)) {
            continue;
        } else if (arg.rfind("--resilience-output=", 0) == 0) {
            opts.resilience_output = arg.substr(20);
        } else if (arg.rfind("--telemetry-output=", 0) == 0) {
            opts.telemetry_output = arg.substr(19);
        } else if (arg.rfind("--output=", 0) == 0) {
            opts.output = arg.substr(9);
        } else if (arg == "--test-grid") {
            opts.test_grid = true;
        } else {
            std::fprintf(
                stderr,
                "usage: bench_runner [--runs=N] [--warmup=N] "
                "[--output=FILE] [--resilience-output=FILE] "
                "[--telemetry-output=FILE] [--test-grid]\n");
            return 1;
        }
    }
    fatal_if(opts.runs < 1, "--runs must be >= 1");
    return run(opts);
}
