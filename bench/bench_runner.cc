/**
 * @file
 * Census benchmark runner: the repo's perf gate.
 *
 * Times the batched, sharded census engine end to end (min-of-N with
 * warmup), the legacy scalar single-thread walk it replaced, the
 * single-thread SoA batched walk (the like-for-like >= 8x SIMD gate),
 * the per-stage split of the batched path (plan preparation vs the
 * vectorized clock-pair kernel), and a warm repeat that exercises the
 * sweep cache, then emits BENCH_census.json so CI can archive wall
 * time, estimates/s, thread count, speedups, and cache hit rate per
 * commit.  The same file records harness_vs_bare_1t (the pooled
 * sweep over the bare one-thread model) next to a calibration of how
 * many cores the run actually had, so a thread-scaling figure can be
 * read against the machine it ran on.
 *
 * Also times the census with a crash-safe checkpoint journal attached
 * and emits BENCH_resilience.json; the journal's write overhead vs
 * the unjournaled run is the resilience perf gate (<= 5%).
 *
 * Also times the hot sweep with every counter and histogram
 * quiesced vs recording and emits BENCH_telemetry.json; the recording
 * overhead is the instrumentation perf gate (<= 2%).
 *
 * Also sweeps the sparse census over a ladder of sample budgets for
 * both samplers and emits BENCH_sparse.json: classification-agreement
 * vs budget curves against the dense census, plus the
 * agreement_at_10pct_{lhs,active} fields the >= 0.95 accuracy gate
 * checks (docs/prediction.md).
 *
 * Also drives an in-process gpuscaled service over its Unix socket
 * (docs/service.md) and emits BENCH_service.json: a latency phase
 * (p50/p99/qps across concurrent clients) and a saturation phase
 * against a deliberately tiny admission bound, whose gates are
 * sheds > 0 (overload is shed, not queued) and stalls == 0 (no call
 * ever outlives its deadline plus grace).
 *
 * Usage: bench_runner [--runs=N] [--warmup=N] [--output=FILE]
 *                     [--resilience-output=FILE]
 *                     [--telemetry-output=FILE]
 *                     [--sparse-output=FILE]
 *                     [--service-output=FILE] [--test-grid]
 *
 * --test-grid shrinks the sweep to the 27-point grid so smoke jobs
 * stay fast; the emitted JSON records which grid ran.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "base/string_util.hh"
#include "bench_common.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "harness/sparse.hh"
#include "harness/sweep.hh"
#include "harness/sweep_cache.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "workloads/registry.hh"

namespace {

using namespace gpuscale;

struct RunnerOptions {
    int runs = 5;
    int warmup = 1;
    std::string output = "BENCH_census.json";
    std::string resilience_output = "BENCH_resilience.json";
    std::string telemetry_output = "BENCH_telemetry.json";
    std::string sparse_output = "BENCH_sparse.json";
    std::string service_output = "BENCH_service.json";
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
    const gpu::ConfigGrid grid = space.grid();
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
    // 2b. The like-for-like SIMD gate: one thread, no cache, no pool —
    //     the SoA batched kernel against the scalar walk above.  This
    //     is the number the >= 8x CI gate checks; the parallel figure
    //     in section 1 folds thread scaling in on top and is reported
    //     separately.
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
    // 2c. Stage split: stages 1-2 hoist kernel invariants and per-CU
    //     state into the flat SoA plan (prepareBatch); stage 3 is the
    //     vectorized clock-pair loop (runBatch).  Timing them apart
    //     shows where a regression landed.
    //
    const bench::TimingStats stage12 =
        bench::minOfN(std::min(opts.warmup, 1), opts.runs, [&] {
            for (const auto *kernel : kernels) {
                const auto plan = model.prepareBatch(*kernel, grid);
                fatal_if(plan.cu.empty(), "empty batch plan");
            }
        });
    std::vector<gpu::batch::BatchPlan> plans;
    plans.reserve(kernels.size());
    for (const auto *kernel : kernels)
        plans.push_back(model.prepareBatch(*kernel, grid));
    std::vector<double> scratch(space.size());
    const bench::TimingStats stage3 =
        bench::minOfN(std::min(opts.warmup, 1), opts.runs, [&] {
            for (const auto &plan : plans)
                gpu::batch::runBatch(plan, scratch.data());
            fatal_if(scratch[0] <= 0,
                     "stage-3 kernel produced no time");
        });
    plans.clear();
    std::printf("  stage 1-2 (prepare):   %.4f s min-of-%d\n",
                stage12.min_s, stage12.runs);
    std::printf("  stage 3 (SIMD kernel): %.4f s min-of-%d "
                "(%.1f ns/point)\n",
                stage3.min_s, stage3.runs,
                stage3.min_s / estimates * 1e9);

    //
    // 2d. Calibration: the same fixed compute work on this thread and
    //     then across the pool.  The ratio is how many cores this run
    //     had; a thread-scaling figure means little without it.
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
    // 3. Warm repeat: every sweep should be served by the cache the
    //    last timed run populated.
    //
    auto &registry = obs::Registry::instance();
    const double hits0 = static_cast<double>(
        registry.counter("sweep.cache.hits").value());
    const double misses0 = static_cast<double>(
        registry.counter("sweep.cache.misses").value());
    const auto warm = bench::minOfN(0, 1, [&] {
        const auto surfaces =
            harness::sweepKernels(model, kernels, space);
        fatal_if(surfaces.empty(), "warm census produced nothing");
    });
    const double hits = static_cast<double>(
        registry.counter("sweep.cache.hits").value()) - hits0;
    const double misses = static_cast<double>(
        registry.counter("sweep.cache.misses").value()) - misses0;
    const double lookups = hits + misses;
    const double hit_rate = lookups > 0 ? hits / lookups : 0.0;
    std::printf("warm repeat: %.4f s, cache hit rate %.3f "
                "(%.0f/%.0f)\n",
                warm.min_s, hit_rate, hits, lookups);

    //
    // 4. Resilience gate: the full census (sweep + classification —
    //    what `gpuscale census` runs and what a user checkpoints)
    //    with and without the crash-safe journal.  The journal's
    //    write overhead against its own unjournaled baseline must
    //    stay <= 5%.
    //
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
    w.key("schema_version").value(1);
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
    w.key("stage12_prepare");
    writeTiming(w, stage12, estimates);
    w.key("stage3_kernel");
    writeTiming(w, stage3, estimates);
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
    w.key("cache");
    w.beginObject();
    w.key("warm_run_s").value(warm.min_s);
    w.key("hits").value(hits);
    w.key("misses").value(misses);
    w.key("hit_rate").value(hit_rate);
    w.key("entries").value(static_cast<uint64_t>(
        harness::SweepCache::instance().entries()));
    w.endObject();
    // Registry counters carry the engine's own telemetry: estimate
    // counts, shard geometry, and cache traffic for the whole process.
    w.key("metrics");
    w.beginObject();
    w.key("sweep.estimates.count").value(static_cast<uint64_t>(
        registry.counter("sweep.estimates.count").value()));
    w.key("sweep.cache.hits").value(static_cast<uint64_t>(
        registry.counter("sweep.cache.hits").value()));
    w.key("sweep.cache.misses").value(static_cast<uint64_t>(
        registry.counter("sweep.cache.misses").value()));
    w.key("census.shard.count")
        .value(registry.gauge("census.shard.count").value());
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
    // 5. Telemetry gate: the same hot sweep with every counter and
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

    //
    // 6. Sparse-census accuracy curves: reconstruct the census from a
    //    ladder of sample budgets with both samplers and score each
    //    against the dense census.  The 10%-budget agreement is the
    //    CI accuracy gate (>= 0.95); the curve around it shows how
    //    much margin the estimator has.
    //
    const auto dense = harness::runCensus(
        model, space, scaling::TaxonomyParams{});
    const scaling::SparsePredictor sparse_predictor(space);
    const std::vector<double> fractions =
        opts.test_grid ? std::vector<double>{0.35, 0.5, 0.8}
                       : std::vector<double>{0.04, 0.06, 0.08, 0.10,
                                             0.15};
    auto budgetFor = [&](double fraction) {
        const double raw =
            fraction * static_cast<double>(space.size());
        size_t k = static_cast<size_t>(raw + 0.5);
        k = std::max(k, sparse_predictor.minSamples());
        return std::min(k, space.size());
    };

    struct SparseCurvePoint {
        std::string sampler;
        size_t samples;
        double fraction;
        double agreement;
        double mean_confidence;
        uint64_t disagreements;
        uint64_t disagreements_banded;
        double wall_s;
    };
    std::vector<SparseCurvePoint> curve;
    double agreement_10pct_lhs = 0.0, agreement_10pct_active = 0.0;
    std::printf("\nsparse census accuracy vs budget:\n");
    for (const auto sampler :
         {scaling::SamplerKind::Lhs, scaling::SamplerKind::Active})
    {
        for (const double fraction : fractions) {
            harness::SparseCensusOptions so;
            so.samples = budgetFor(fraction);
            so.sampler = sampler;
            const auto timing = bench::minOfN(0, 1, [&] {
                harness::SweepCache::instance().clear();
                const auto sparse = harness::runSparseCensus(
                    model, space, so, scaling::TaxonomyParams{});
                const double agreement = harness::sparseAgreement(
                    sparse, dense.classifications);
                double mean_confidence = 0.0;
                uint64_t disagreements = 0, banded = 0;
                for (size_t k = 0;
                     k < sparse.classifications.size(); ++k)
                {
                    mean_confidence +=
                        sparse.reconstructions[k].confidence;
                    const auto *dc = harness::findClassification(
                        dense, sparse.classifications[k].kernel);
                    if (dc == nullptr ||
                        dc->cls == sparse.classifications[k].cls)
                    {
                        continue;
                    }
                    ++disagreements;
                    banded += sparse.reconstructions[k]
                                  .band_crosses_boundary;
                }
                if (!sparse.classifications.empty()) {
                    mean_confidence /= static_cast<double>(
                        sparse.classifications.size());
                }
                curve.push_back({scaling::samplerKindName(sampler),
                                 so.samples, fraction, agreement,
                                 mean_confidence, disagreements,
                                 banded, 0.0});
            });
            curve.back().wall_s = timing.min_s;
            if (fraction == 0.10 &&
                sampler == scaling::SamplerKind::Lhs)
            {
                agreement_10pct_lhs = curve.back().agreement;
            }
            if (fraction == 0.10 &&
                sampler == scaling::SamplerKind::Active)
            {
                agreement_10pct_active = curve.back().agreement;
            }
            std::printf("  %-6s k=%4zu (%4.1f%%): agreement %.4f, "
                        "confidence %.3f, %llu/%llu disagreements "
                        "banded, %.3f s\n",
                        curve.back().sampler.c_str(),
                        curve.back().samples, 100.0 * fraction,
                        curve.back().agreement,
                        curve.back().mean_confidence,
                        static_cast<unsigned long long>(
                            curve.back().disagreements_banded),
                        static_cast<unsigned long long>(
                            curve.back().disagreements),
                        curve.back().wall_s);
        }
    }

    std::ofstream sos(opts.sparse_output);
    fatal_if(!sos, "cannot write %s", opts.sparse_output.c_str());
    obs::JsonWriter sw(sos);
    sw.beginObject();
    sw.key("schema_version").value(1);
    sw.key("benchmark").value("sparse");
    sw.key("grid").value(opts.test_grid ? "test" : "paper");
    sw.key("kernels").value(static_cast<uint64_t>(kernels.size()));
    sw.key("configs").value(static_cast<uint64_t>(space.size()));
    sw.key("min_samples").value(
        static_cast<uint64_t>(sparse_predictor.minSamples()));
    sw.key("curves").beginArray();
    for (const auto &p : curve) {
        sw.beginObject();
        sw.key("sampler").value(p.sampler);
        sw.key("samples").value(static_cast<uint64_t>(p.samples));
        sw.key("fraction").value(p.fraction);
        sw.key("agreement").value(p.agreement);
        sw.key("mean_confidence").value(p.mean_confidence);
        sw.key("disagreements").value(p.disagreements);
        sw.key("disagreements_banded").value(p.disagreements_banded);
        sw.key("wall_s").value(p.wall_s);
        sw.endObject();
    }
    sw.endArray();
    // The jq gate's fields: agreement at the 10% budget (0 on the
    // test grid, whose ladder has no 10% point — the gate only runs
    // on the paper grid).
    sw.key("agreement_at_10pct_lhs").value(agreement_10pct_lhs);
    sw.key("agreement_at_10pct_active").value(agreement_10pct_active);
    sw.key("metrics");
    sw.beginObject();
    sw.key("sparse.samples.count").value(static_cast<uint64_t>(
        registry.counter("sparse.samples.count").value()));
    sw.endObject();
    sw.endObject();
    sos << '\n';
    fatal_if(!sw.complete(), "sparse BENCH JSON incomplete");
    inform("wrote %s", opts.sparse_output.c_str());

    //
    // 7. Service latency and saturation: gpuscaled in-process over its
    //    Unix socket.  The latency phase measures p50/p99/qps with the
    //    admission bound wide open; the saturation phase squeezes the
    //    bound to two slots under eight hammering clients and checks
    //    the robustness contract the CI gates enforce — overload is
    //    shed with typed RETRY_AFTER frames (sheds > 0) and no call
    //    ever outlives its deadline plus grace (stalls == 0).
    //
    struct ServicePhase {
        uint64_t calls = 0;
        uint64_t ok_frames = 0;
        uint64_t sheds = 0;
        uint64_t stalls = 0;
        uint64_t errors = 0;
        double wall_s = 0.0;
        std::vector<double> latencies_ms;
    };
    constexpr double kStallGraceMs = 500.0;

    const std::filesystem::path service_dir =
        std::filesystem::temp_directory_path() /
        ("gpuscaled-bench-" + std::to_string(::getpid()));
    std::filesystem::create_directories(service_dir);

    auto runServicePhase = [&](const service::ServiceOptions &sopts,
                               int nthreads, int per_thread,
                               double deadline_ms,
                               bool predict_only) {
        ServicePhase phase;
        service::Service svc(sopts, model);
        fatal_if(!svc.start(), "bench service failed to start on %s",
                 sopts.socket_path.c_str());
        std::thread server([&svc] {
            svc.loadCensus();
            svc.serve();
        });
        // Wait for the census so the numbers measure steady state.
        {
            service::Client warm(sopts.socket_path);
            fatal_if(!warm.connect(30000.0),
                     "bench client cannot connect");
            for (;;) {
                std::string resp;
                if (warm.call("{\"id\":1,\"op\":\"health\"}", 5000.0,
                              &resp) &&
                    resp.find("\"census_loaded\":true") !=
                        std::string::npos)
                {
                    break;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            }
        }

        std::mutex merge_mutex;
        std::atomic<uint64_t> ok_frames{0}, sheds{0}, stalls{0},
            errors{0};
        const auto phase_start = std::chrono::steady_clock::now();
        std::vector<std::thread> workers;
        for (int t = 0; t < nthreads; ++t) {
            workers.emplace_back([&, t] {
                const std::string client_name =
                    "bench-" + std::to_string(t);
                service::Client client(sopts.socket_path);
                client.connect(5000.0);
                std::vector<double> local;
                local.reserve(static_cast<size_t>(per_thread));
                for (int i = 0; i < per_thread; ++i) {
                    const gpu::KernelDesc *k =
                        kernels[(static_cast<size_t>(t) * 131 +
                                 static_cast<size_t>(i)) %
                                kernels.size()];
                    std::string req = "{\"id\":" + std::to_string(i) +
                                      ",\"client\":\"" + client_name +
                                      "\",\"deadline_ms\":" +
                                      std::to_string(deadline_ms);
                    switch (predict_only ? 1 : i % 4) {
                    case 0:
                        req += ",\"op\":\"classify\",\"params\":"
                               "{\"kernel\":\"" + k->name + "\"}}";
                        break;
                    case 1:
                        req += ",\"op\":\"predict\",\"params\":"
                               "{\"kernel\":\"" + k->name +
                               "\",\"cu\":8,\"core_clk_mhz\":800,"
                               "\"mem_clk_mhz\":1000}}";
                        break;
                    case 2:
                        req += ",\"op\":\"health\"}";
                        break;
                    default:
                        req += ",\"op\":\"stats\"}";
                        break;
                    }
                    const auto t0 = std::chrono::steady_clock::now();
                    std::string resp;
                    const bool transported = client.call(
                        req, deadline_ms + 2000.0, &resp);
                    const double ms =
                        std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
                    if (ms > deadline_ms + kStallGraceMs)
                        stalls.fetch_add(1);
                    if (!transported) {
                        errors.fetch_add(1);
                        client.close();
                        client.connect(5000.0);
                        continue;
                    }
                    local.push_back(ms);
                    try {
                        const obs::JsonValue doc = obs::parseJson(resp);
                        if (doc.at("ok").boolean) {
                            ok_frames.fetch_add(1);
                        } else if (doc.at("error").at("code").str ==
                                   "RETRY_AFTER") {
                            sheds.fetch_add(1);
                        }
                    } catch (const std::exception &) {
                        errors.fetch_add(1); // torn frame
                    }
                }
                std::lock_guard<std::mutex> lock(merge_mutex);
                phase.latencies_ms.insert(phase.latencies_ms.end(),
                                          local.begin(), local.end());
            });
        }
        for (auto &w : workers)
            w.join();
        phase.wall_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() -
                           phase_start)
                           .count();
        svc.requestDrain();
        server.join();
        phase.calls = static_cast<uint64_t>(nthreads) *
                      static_cast<uint64_t>(per_thread);
        phase.ok_frames = ok_frames.load();
        phase.sheds = sheds.load();
        phase.stalls = stalls.load();
        phase.errors = errors.load();
        std::sort(phase.latencies_ms.begin(),
                  phase.latencies_ms.end());
        return phase;
    };
    auto percentile = [](const std::vector<double> &sorted,
                         double p) {
        if (sorted.empty())
            return 0.0;
        const size_t idx = std::min(
            sorted.size() - 1,
            static_cast<size_t>(p * static_cast<double>(
                                        sorted.size())));
        return sorted[idx];
    };

    service::ServiceOptions latency_opts;
    latency_opts.socket_path = (service_dir / "latency.sock").string();
    latency_opts.test_grid = opts.test_grid;
    latency_opts.max_inflight = 64;
    latency_opts.client_quota = 16;
    bench::banner("BENCH", "gpuscaled service latency");
    const ServicePhase latency =
        runServicePhase(latency_opts, 4, 200, 2000.0, false);
    const double p50 = percentile(latency.latencies_ms, 0.50);
    const double p99 = percentile(latency.latencies_ms, 0.99);
    const double qps =
        static_cast<double>(latency.calls) / latency.wall_s;
    std::printf("service latency: %" PRIu64 " calls, p50 %.3f ms, "
                "p99 %.3f ms, %.0f qps, %" PRIu64 " errors\n",
                latency.calls, p50, p99, qps, latency.errors);

    service::ServiceOptions sat_opts;
    sat_opts.socket_path = (service_dir / "saturate.sock").string();
    sat_opts.test_grid = opts.test_grid;
    sat_opts.max_inflight = 2;
    sat_opts.client_quota = 1;
    bench::banner("BENCH", "gpuscaled service saturation");
    const ServicePhase sat =
        runServicePhase(sat_opts, 8, 50, 1000.0, true);
    std::printf("service saturation: %" PRIu64 " calls, %" PRIu64
                " ok, %" PRIu64 " shed, %" PRIu64 " stalls, %" PRIu64
                " errors\n",
                sat.calls, sat.ok_frames, sat.sheds, sat.stalls,
                sat.errors);

    std::error_code cleanup_ec;
    std::filesystem::remove_all(service_dir, cleanup_ec);

    std::ofstream svos(opts.service_output);
    fatal_if(!svos, "cannot write %s", opts.service_output.c_str());
    obs::JsonWriter svw(svos);
    svw.beginObject();
    svw.key("schema_version").value(1);
    svw.key("benchmark").value("service");
    svw.key("grid").value(opts.test_grid ? "test" : "paper");
    svw.key("calls").value(latency.calls + sat.calls);
    svw.key("qps").value(qps);
    svw.key("p50_ms").value(p50);
    svw.key("p99_ms").value(p99);
    svw.key("sheds").value(latency.sheds + sat.sheds);
    svw.key("stalls").value(latency.stalls + sat.stalls);
    svw.key("errors").value(latency.errors + sat.errors);
    svw.key("latency");
    svw.beginObject();
    svw.key("threads").value(static_cast<uint64_t>(4));
    svw.key("calls").value(latency.calls);
    svw.key("ok_frames").value(latency.ok_frames);
    svw.key("sheds").value(latency.sheds);
    svw.key("stalls").value(latency.stalls);
    svw.key("errors").value(latency.errors);
    svw.key("wall_s").value(latency.wall_s);
    svw.endObject();
    svw.key("saturation");
    svw.beginObject();
    svw.key("threads").value(static_cast<uint64_t>(8));
    svw.key("max_inflight").value(static_cast<uint64_t>(2));
    svw.key("calls").value(sat.calls);
    svw.key("ok_frames").value(sat.ok_frames);
    svw.key("sheds").value(sat.sheds);
    svw.key("stalls").value(sat.stalls);
    svw.key("errors").value(sat.errors);
    svw.key("wall_s").value(sat.wall_s);
    svw.endObject();
    svw.key("metrics");
    svw.beginObject();
    svw.key("service.admitted").value(static_cast<uint64_t>(
        registry.counter("service.admitted").value()));
    svw.key("service.shed").value(static_cast<uint64_t>(
        registry.counter("service.shed").value()));
    svw.key("service.predict.batches").value(static_cast<uint64_t>(
        registry.counter("service.predict.batches").value()));
    svw.key("service.predict.coalesced").value(static_cast<uint64_t>(
        registry.counter("service.predict.coalesced").value()));
    svw.endObject();
    svw.endObject();
    svos << '\n';
    fatal_if(!svw.complete(), "service BENCH JSON incomplete");
    inform("wrote %s", opts.service_output.c_str());

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
            const auto parsed = parseDouble(arg.substr(n));
            fatal_if(!parsed || *parsed < 0 ||
                         *parsed != static_cast<int>(*parsed),
                     "bad value in '%s'", arg.c_str());
            out = static_cast<int>(*parsed);
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
        } else if (arg.rfind("--sparse-output=", 0) == 0) {
            opts.sparse_output = arg.substr(16);
        } else if (arg.rfind("--service-output=", 0) == 0) {
            opts.service_output = arg.substr(17);
        } else if (arg.rfind("--output=", 0) == 0) {
            opts.output = arg.substr(9);
        } else if (arg == "--test-grid") {
            opts.test_grid = true;
        } else {
            std::fprintf(
                stderr,
                "usage: bench_runner [--runs=N] [--warmup=N] "
                "[--output=FILE] [--resilience-output=FILE] "
                "[--telemetry-output=FILE] [--sparse-output=FILE] "
                "[--service-output=FILE] [--test-grid]\n");
            return 1;
        }
    }
    fatal_if(opts.runs < 1, "--runs must be >= 1");
    return run(opts);
}
