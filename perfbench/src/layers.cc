/**
 * @file
 * Layer probes: each layer's public calls timed directly, one span
 * per call, on fixed inputs.  They run on every traced run, whatever
 * the workload, so each traced run reports every per-layer metric and
 * the numbers compare across workloads and commits.  Each metric is
 * the median of its spans unless noted.
 */

#include <filesystem>
#include <thread>

#include "bench.hh"
#include "gpu/analytic_batch.hh"
#include "harness/checkpoint.hh"
#include "harness/parallel.hh"
#include "harness/sparse.hh"
#include "harness/sweep.hh"
#include "harness/sweep_cache.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "scaling/sparse_predictor.hh"
#include "scaling/taxonomy.hh"
#include "service/admission.hh"
#include "service/batcher.hh"
#include "service/protocol.hh"
#include "workloads/registry.hh"

namespace perfbench {

namespace fs = std::filesystem;
using gs::harness::SweepCache;

namespace {

/** Op id of probe spans: the probe's repetition number. */
constexpr uint64_t kReps = 10;
constexpr uint64_t kCalls = 2000;

class Probes
{
  public:
    Probes(Bench &bench, SpanRecorder &spans,
           std::map<std::string, double> &out)
        : b_(bench), spans_(spans), out_(out)
    {
    }

    void
    run()
    {
        zoo();
        model();
        harnessCalls();
        sweepCache();
        checkpoint();
        sweeps();
        surfaces();
        sparse();
        serviceCalls();
        serviceSession();
    }

  private:
    double
    med(const char *name) const
    {
        return median(spans_.durationsMs(name));
    }

    void
    zoo()
    {
        // The calls WorkloadRegistry's constructor makes; the registry
        // itself is built once per process.
        size_t programs = 0;
        for (uint64_t rep = 0; rep < 5; ++rep) {
            SpanScope s(&spans_, "workloads.load", rep);
            namespace w = gs::workloads;
            for (auto make :
                 {w::makeRodiniaSuite, w::makeParboilSuite, w::makeShocSuite,
                  w::makeAmdSdkSuite, w::makePolybenchSuite,
                  w::makeOpenDwarfsSuite, w::makePannotiaSuite})
                programs += make().size();
        }
        out_["workloads.load_ms"] = med("workloads.load");
    }

    void
    model()
    {
        const size_t k = b_.kernels.size();
        runtimes_.assign(k, std::vector<double>(b_.grid.size()));
        std::vector<gs::gpu::batch::BatchPlan> plans(k);
        for (uint64_t rep = 0; rep < kReps; ++rep) {
            {
                SpanScope s(&spans_, "gpu.prepare", rep);
                for (size_t i = 0; i < k; ++i)
                    plans[i] = b_.model.prepareBatch(*b_.kernels[i], b_.grid);
            }
            SpanScope s(&spans_, "gpu.kernel", rep);
            for (size_t i = 0; i < k; ++i)
                gs::gpu::batch::runBatch(plans[i], runtimes_[i].data());
        }
        for (uint64_t rep = 0; rep < kReps; ++rep) {
            SpanScope s(&spans_, "gpu.serial_zoo", rep);
            for (size_t i = 0; i < k; ++i)
                runtimes_[i] =
                    b_.model.evaluateGridRuntimes(*b_.kernels[i], b_.grid);
        }
        out_["gpu.prepare_ms"] = med("gpu.prepare");
        out_["gpu.kernel_ms"] = med("gpu.kernel");
        out_["gpu.ns_per_point"] =
            (out_["gpu.prepare_ms"] + out_["gpu.kernel_ms"]) * 1e6 /
            static_cast<double>(k * b_.grid.size());

        gs::Rng rng(mixSeed(b_.seed, 1));
        gs::gpu::ConfigGrid point;
        point.base = b_.grid.base;
        for (uint64_t call = 0; call < kCalls; ++call) {
            point.cu_values = {b_.space.cuValues()[call % b_.space.numCu()]};
            point.core_clks_mhz = {
                b_.space.coreClks()[call % b_.space.numCoreClk()]};
            point.mem_clks_mhz = {
                b_.space.memClks()[call % b_.space.numMemClk()]};
            const auto &kernel = *b_.kernels[static_cast<size_t>(
                rng.uniformInt(0, static_cast<int64_t>(k) - 1))];
            SpanScope s(&spans_, "gpu.point_eval", call);
            b_.model.evaluateGridRuntimes(kernel, point);
        }
        out_["gpu.point_eval_us"] = med("gpu.point_eval") * 1e3;
    }

    void
    harnessCalls()
    {
        // sweepKernels' own shard count for this machine.
        const size_t workers =
            std::max<unsigned>(1u, std::thread::hardware_concurrency());
        const size_t shards = std::min(b_.kernels.size(), workers * 4);
        for (uint64_t call = 0; call < kCalls; ++call) {
            SpanScope s(&spans_, "harness.parallel.dispatch", call);
            gs::harness::parallelFor(shards, [](size_t) {});
        }
        out_["harness.parallel.dispatch_us"] =
            med("harness.parallel.dispatch") * 1e3;
    }

    void
    sweepCache()
    {
        const size_t k = b_.kernels.size();
        keys_.assign(k, std::string());
        for (uint64_t rep = 0; rep < kReps; ++rep) {
            SpanScope s(&spans_, "harness.sweep_cache.key", rep);
            for (size_t i = 0; i < k; ++i)
                keys_[i] = SweepCache::keyFor(b_.model, *b_.kernels[i], b_.grid);
        }
        SweepCache &cache = SweepCache::instance();
        std::vector<double> got;
        for (uint64_t rep = 0; rep < kReps; ++rep) {
            cache.clear();
            {
                SpanScope s(&spans_, "harness.sweep_cache.insert", rep);
                for (size_t i = 0; i < k; ++i)
                    cache.insert(keys_[i], runtimes_[i]);
            }
            SpanScope s(&spans_, "harness.sweep_cache.lookup", rep);
            for (size_t i = 0; i < k; ++i)
                cache.lookup(keys_[i], got);
        }
        for (uint64_t rep = 0; rep < 3; ++rep) {
            const std::string dir =
                b_.scratch + "/probe-cache-" + std::to_string(rep);
            fs::remove_all(dir);
            cache.clear();
            cache.setDirectory(dir);
            {
                SpanScope s(&spans_, "harness.sweep_cache.disk_write", rep);
                for (size_t i = 0; i < k; ++i)
                    cache.insert(keys_[i], runtimes_[i]);
            }
            cache.clear();
            {
                SpanScope s(&spans_, "harness.sweep_cache.disk_read", rep);
                for (size_t i = 0; i < k; ++i)
                    cache.lookup(keys_[i], got);
            }
            cache.setDirectory("");
            cache.clear();
            fs::remove_all(dir);
        }
        out_["harness.sweep_cache.key_ms"] = med("harness.sweep_cache.key");
        out_["harness.sweep_cache.insert_ms"] =
            med("harness.sweep_cache.insert");
        out_["harness.sweep_cache.lookup_ms"] =
            med("harness.sweep_cache.lookup");
        out_["harness.sweep_cache.disk_write_ms"] =
            med("harness.sweep_cache.disk_write");
        out_["harness.sweep_cache.disk_read_ms"] =
            med("harness.sweep_cache.disk_read");
    }

    void
    checkpoint()
    {
        const size_t k = b_.kernels.size();
        std::vector<double> got;
        double bytes = 0.0;
        for (uint64_t rep = 0; rep < 3; ++rep) {
            const std::string dir =
                b_.scratch + "/probe-journal-" + std::to_string(rep);
            fs::remove_all(dir);
            {
                gs::harness::CensusJournal journal(dir, b_.model_fp,
                                                   b_.grid_fp);
                SpanScope s(&spans_, "harness.checkpoint.record", rep);
                for (size_t i = 0; i < k; ++i)
                    journal.record(b_.kernels[i]->name, runtimes_[i]);
                journal.flush();
                bytes = static_cast<double>(fs::file_size(journal.path()));
            }
            std::optional<gs::harness::CensusJournal> journal;
            {
                SpanScope s(&spans_, "harness.checkpoint.open", rep);
                journal.emplace(dir, b_.model_fp, b_.grid_fp);
            }
            {
                SpanScope s(&spans_, "harness.checkpoint.lookup", rep);
                for (size_t i = 0; i < k; ++i)
                    journal->lookup(b_.kernels[i]->name, got);
            }
            journal.reset();
            fs::remove_all(dir);
        }
        out_["harness.checkpoint.open_ms"] = med("harness.checkpoint.open");
        out_["harness.checkpoint.record_ms"] =
            med("harness.checkpoint.record");
        out_["harness.checkpoint.lookup_ms"] =
            med("harness.checkpoint.lookup");
        out_["harness.checkpoint.journal_bytes"] = bytes;
    }

    void
    sweeps()
    {
        for (uint64_t rep = 0; rep < kReps; ++rep) {
            SweepCache::instance().clear();
            SpanScope s(&spans_, "harness.sweep.cold", rep);
            gs::harness::sweepKernels(b_.model, b_.kernels, b_.space);
        }
        for (uint64_t rep = 0; rep < 3; ++rep) {
            const std::string dir =
                b_.scratch + "/probe-cycle-" + std::to_string(rep);
            fs::remove_all(dir);
            fs::create_directories(dir);
            durableCycle(b_, dir, &spans_, rep);
            fs::remove_all(dir);
        }
        SweepCache::instance().clear();
        out_["harness.sweep.cold_ms"] = med("harness.sweep.cold");
        out_["harness.sweep.write_ms"] = med("harness.sweep.write");
        out_["harness.sweep.replay_ms"] = med("harness.sweep.replay");
        out_["harness.sweep.disk_ms"] = med("harness.sweep.disk");
        out_["harness.sweep.warm_ms"] = med("harness.sweep.warm");
        // The harness around the model against the bare model: cold
        // sweepKernels on the pool over a one-thread
        // evaluateGridRuntimes loop, both over the whole zoo.
        out_["harness.sweep.vs_serial_model"] =
            out_["harness.sweep.cold_ms"] / med("gpu.serial_zoo");
    }

    void
    surfaces()
    {
        for (uint64_t rep = 0; rep < kReps; ++rep) {
            std::vector<gs::scaling::ScalingSurface> built;
            built.reserve(b_.kernels.size());
            {
                SpanScope s(&spans_, "scaling.surface", rep);
                for (size_t i = 0; i < b_.kernels.size(); ++i)
                    built.emplace_back(b_.kernels[i]->name, b_.space,
                                       runtimes_[i]);
            }
            SpanScope s(&spans_, "scaling.classify", rep);
            gs::scaling::classifyAll(built);
        }
        out_["scaling.surface_ms"] = med("scaling.surface");
        out_["scaling.classify_ms"] = med("scaling.classify");
    }

    void
    sparse()
    {
        const size_t budget = b_.sparseBudget();
        gs::scaling::SparseFitOptions fit;
        fit.seed = mixSeed(b_.seed, 2);
        const gs::scaling::SparsePredictor predictor(b_.space, fit);
        std::vector<size_t> plan;
        // Every tenth kernel: fitting all 267 would take seconds.
        for (size_t i = 0; i < b_.kernels.size(); i += 10) {
            {
                SpanScope s(&spans_, "scaling.sparse.plan", i);
                plan = predictor.lhsPlan(budget);
            }
            std::vector<double> measured;
            for (const size_t flat : plan)
                measured.push_back(runtimes_[i][flat]);
            SpanScope s(&spans_, "scaling.sparse.fit", i);
            predictor.reconstruct(b_.kernels[i]->name, plan, measured);
        }
        const double fit_ms = med("scaling.sparse.fit");
        const double dense_ms =
            med("gpu.serial_zoo") / static_cast<double>(b_.kernels.size());
        out_["scaling.sparse.plan_ms"] = med("scaling.sparse.plan");
        out_["scaling.sparse.fit_ms"] = fit_ms;
        out_["scaling.sparse.fit_vs_dense"] = fit_ms / dense_ms;
        // Per-point measurement cost above which sampling 10% and
        // fitting beats measuring every point.
        out_["scaling.sparse.breakeven_point_us"] =
            fit_ms * 1e3 / static_cast<double>(b_.space.size() - budget);

        gs::harness::SparseCensusOptions opts;
        opts.samples = budget;
        opts.seed = mixSeed(b_.seed, 3);
        size_t samples = 0;
        size_t agree = 0;
        size_t kernels = 0;
        for (uint64_t rep = 0; rep < 2; ++rep) {
            SweepCache::instance().clear();
            std::optional<gs::harness::SparseCensusResult> census;
            {
                SpanScope s(&spans_, "harness.sparse.census", rep);
                census.emplace(
                    gs::harness::runSparseCensus(b_.model, b_.space, opts));
            }
            for (const auto &rec : census->reconstructions) {
                samples += rec.samples;
                ++kernels;
                const auto it = b_.golden.cls.find(rec.cls.kernel);
                agree += it != b_.golden.cls.end() &&
                         it->second ==
                             gs::scaling::taxonomyClassName(rec.cls.cls);
            }
        }
        SweepCache::instance().clear();
        out_["harness.sparse.census_ms"] = med("harness.sparse.census");
        out_["harness.sparse.samples"] =
            static_cast<double>(samples) / static_cast<double>(kernels);
        out_["harness.sparse.agreement"] =
            static_cast<double>(agree) / static_cast<double>(kernels);
    }

    void
    serviceCalls()
    {
        gs::Rng rng(mixSeed(b_.seed, 4));
        const Traffic traffic = makeTraffic(b_, 2000.0, 1.0, rng);
        std::vector<std::string> lines;
        for (size_t i = 0; i < traffic.requests.size() && i < kCalls; ++i) {
            std::string f = renderFrame(b_, traffic.requests[i], i + 1);
            f.pop_back(); // the daemon strips the newline before parsing
            lines.push_back(std::move(f));
        }
        std::string error;
        for (uint64_t i = 0; i < lines.size(); ++i) {
            gs::service::Request req;
            SpanScope s(&spans_, "service.protocol.parse", i);
            gs::service::parseRequest(lines[i], &req, &error);
        }
        std::string frame;
        for (uint64_t i = 0; i < kCalls; ++i) {
            SpanScope s(&spans_, "service.protocol.render", i);
            frame = gs::service::renderResult(i, [&](gs::obs::JsonWriter &w) {
                w.beginObject();
                w.key("kernel").value(b_.kernels[i % b_.kernels.size()]->name);
                w.key("cu").value(static_cast<int64_t>(32));
                w.key("core_clk_mhz").value(1000.0);
                w.key("mem_clk_mhz").value(1375.0);
                w.key("runtime_s").value(runtimes_[i % runtimes_.size()][i % b_.grid.size()]);
                w.endObject();
            });
        }
        frame.pop_back();
        for (uint64_t i = 0; i < kCalls; ++i) {
            SpanScope s(&spans_, "obs.json.parse", i);
            gs::obs::parseJson(frame);
        }
        gs::service::AdmissionControl admission(64, 16);
        for (uint64_t i = 0; i < kCalls; ++i) {
            SpanScope s(&spans_, "service.admission.admit", i);
            if (admission.admit("probe").admitted)
                admission.release("probe");
        }
        for (uint64_t i = 0; i < 200; ++i) {
            SpanScope s(&spans_, "obs.stats_snapshot", i);
            gs::obs::Registry::instance().snapshotJson();
        }
        {
            gs::service::PredictBatcher batcher(b_.model, b_.grid.base);
            for (uint64_t i = 0; i < kCalls; ++i) {
                const MixRequest &r =
                    traffic.requests[i % traffic.requests.size()];
                gs::service::PredictRequest ask;
                ask.kernel = b_.kernels[r.kernel];
                ask.num_cus = r.cu;
                ask.core_clk_mhz = r.core_mhz;
                ask.mem_clk_mhz = r.mem_mhz;
                ask.deadline =
                    std::chrono::steady_clock::now() + std::chrono::seconds(5);
                SpanScope s(&spans_, "service.batcher.predict", i);
                batcher.predict(ask);
            }
        }
        out_["service.protocol.parse_us"] = med("service.protocol.parse") * 1e3;
        out_["service.protocol.render_us"] =
            med("service.protocol.render") * 1e3;
        out_["obs.json.parse_us"] = med("obs.json.parse") * 1e3;
        out_["service.admission.admit_us"] =
            med("service.admission.admit") * 1e3;
        out_["obs.stats_snapshot_us"] = med("obs.stats_snapshot") * 1e3;
        out_["service.batcher.predict_us"] =
            med("service.batcher.predict") * 1e3;
    }

    /** A short service_mix at the workload's rate on its own daemon. */
    void
    serviceSession()
    {
        const std::string socket = b_.scratch + "/probe.sock";
        Daemon daemon(b_, socket);
        const uint64_t shed0 = counterValue("service.shed");
        const uint64_t admitted0 = counterValue("service.admitted");
        const uint64_t coalesced0 = counterValue("service.predict.coalesced");
        const uint64_t batches0 = counterValue("service.predict.batches");

        gs::Rng rng(mixSeed(b_.seed, 5));
        const Traffic traffic = makeTraffic(b_, kServiceRatePerS, 2.0, rng);
        const TrafficRun run =
            driveTraffic(b_, socket, traffic, kServiceConnections);

        std::map<std::string, std::vector<double>> roundtrip_us;
        std::vector<double> lag_ms;
        for (size_t i = 0; i < run.timings.size(); ++i) {
            const RequestTiming &t = run.timings[i];
            if (t.sent_ns != 0)
                lag_ms.push_back(static_cast<double>(t.sent_ns - t.due_ns) *
                                 1e-6);
            if (t.outcome == Outcome::Ok)
                roundtrip_us[opName(traffic.requests[i].op)].push_back(
                    static_cast<double>(t.done_ns - t.sent_ns) * 1e-3);
        }
        for (const char *op : {"classify", "predict", "census", "stats"})
            out_[std::string("service.roundtrip_us.") + op] =
                median(roundtrip_us[op]);
        out_["bench.generator.lag_ms"] = tailPick(lag_ms).value;
        out_["service.shed"] =
            static_cast<double>(counterValue("service.shed") - shed0);
        out_["service.admitted"] =
            static_cast<double>(counterValue("service.admitted") - admitted0);
        const double batches = static_cast<double>(
            counterValue("service.predict.batches") - batches0);
        out_["service.batcher.coalesce_ratio"] =
            batches > 0.0
                ? static_cast<double>(
                      counterValue("service.predict.coalesced") - coalesced0) /
                      batches
                : 0.0;
    }

    Bench &b_;
    SpanRecorder &spans_;
    std::map<std::string, double> &out_;
    std::vector<std::vector<double>> runtimes_;
    std::vector<std::string> keys_;
};

} // namespace

void
runLayerProbes(Bench &bench, SpanRecorder &spans,
               std::map<std::string, double> &out)
{
    Probes(bench, spans, out).run();
}

} // namespace perfbench
