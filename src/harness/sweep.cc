/**
 * @file
 * Sweep harness implementation.
 *
 * The hot path is batched and sharded: each kernel is one
 * PerfModel::evaluateGridRuntimes() call (the model hoists
 * grid-invariant work into a flat SoA plan and returns the runtime
 * vector directly — no KernelPerf materialization), consulted
 * through the SweepCache first, and kernels are distributed across
 * the worker pool in contiguous shards rather than one dispatch per
 * kernel.  The flat vector feeds the sweep cache as-is.
 */

#include "sweep.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "base/fault.hh"
#include "base/logging.hh"
#include "checkpoint.hh"
#include "gpu/kernel_desc.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/sharded.hh"
#include "obs/trace.hh"
#include "parallel.hh"
#include "sweep_cache.hh"

namespace gpuscale {
namespace harness {

namespace {

/**
 * Cached instrument references for the estimate hot loop.  The
 * instruments every worker updates per kernel or per estimate are
 * sharded (obs/sharded.hh) so pool workers never contend on a shared
 * cache line; the once-per-call shard-count gauge stays plain.
 */
struct SweepMetrics {
    obs::ShardedCounter &estimates;
    obs::ShardedCounter &kernels;
    obs::ShardedHistogram &latency;
    obs::Gauge &shards;
    obs::ShardedHistogram &shard_latency;

    static SweepMetrics &
    get()
    {
        static SweepMetrics m{
            obs::Registry::instance().shardedCounter(
                "sweep.estimates.count",
                "model estimates issued by the sweep harness"),
            obs::Registry::instance().shardedCounter(
                "sweep.kernels.count", "kernels swept"),
            obs::Registry::instance().shardedHistogram(
                "sweep.estimate.latency",
                "seconds per model estimate"),
            obs::Registry::instance().gauge(
                "census.shard.count",
                "kernel shards in the last sweepKernels call"),
            obs::Registry::instance().shardedHistogram(
                "census.shard.latency",
                "seconds per kernel shard"),
        };
        return m;
    }
};

/**
 * Sweep one kernel over the whole grid: build its cache key, one
 * cache probe, then one batched model evaluation on a miss.  Under
 * sweepKernels it runs in a shard, so key building is spread over the
 * pool and a journal-replayed kernel never builds a key.  The
 * per-estimate latency histogram is fed the batch's amortized
 * per-point cost, and sweep.estimates.count advances only for
 * estimates actually computed (cache hits are free and are counted by
 * sweep.cache.hits).
 */
std::vector<double>
sweepOne(const gpu::PerfModel &model, const gpu::KernelDesc &kernel,
         const gpu::ConfigGrid &grid)
{
    SweepMetrics &metrics = SweepMetrics::get();
    GPUSCALE_TRACE_SCOPE("sweep/" + kernel.name);
    metrics.kernels.inc();
    // Injection site: a Delay fault here slows every kernel sweep
    // (how the kill/resume tests keep a census mid-flight); Exception
    // models a crashing worker.
    faultPoint("sweep.kernel");

    const std::string key = SweepCache::keyFor(model, kernel, grid);
    std::vector<double> runtimes;
    if (SweepCache::instance().lookup(key, runtimes)) {
        debuglog("swept %s: %zu configs (cached)", kernel.name.c_str(),
                 runtimes.size());
        return runtimes;
    }

    const auto t0 = std::chrono::steady_clock::now();
    runtimes = model.evaluateGridRuntimes(kernel, grid);
    const auto t1 = std::chrono::steady_clock::now();

    metrics.estimates.inc(runtimes.size());
    metrics.latency.record(
        std::chrono::duration<double>(t1 - t0).count() /
        static_cast<double>(std::max<size_t>(1, runtimes.size())));

    SweepCache::instance().insert(key, runtimes);
    debuglog("swept %s: %zu configs", kernel.name.c_str(),
             runtimes.size());
    return runtimes;
}

} // namespace

scaling::ScalingSurface
sweepKernel(const gpu::PerfModel &model, const gpu::KernelDesc &kernel,
            const scaling::ConfigSpace &space)
{
    const gpu::ConfigGrid grid = space.grid();
    return scaling::ScalingSurface(kernel.name, space,
                                   sweepOne(model, kernel, grid));
}

std::vector<scaling::ScalingSurface>
sweepKernels(const gpu::PerfModel &model,
             const std::vector<const gpu::KernelDesc *> &kernels,
             const scaling::ConfigSpace &space,
             obs::ProgressReporter *progress, CensusJournal *journal,
             const CancelToken *cancel)
{
    for (const auto *kernel : kernels)
        panic_if(kernel == nullptr, "sweepKernels: null kernel");

    SweepMetrics &metrics = SweepMetrics::get();
    const gpu::ConfigGrid grid = space.grid();

    //
    // Shard kernels into contiguous slices, several per worker so a
    // slow kernel (or a run of cache hits) cannot stall the tail.
    // Each shard is one pool dispatch instead of one per kernel.
    //
    const size_t workers =
        std::max<unsigned>(1u, std::thread::hardware_concurrency());
    const size_t num_shards =
        std::min(kernels.size(), std::max<size_t>(1, workers * 4));
    metrics.shards.set(static_cast<double>(num_shards));

    // Build surfaces into pre-sized slots so workers never contend.
    std::vector<std::vector<double>> runtimes(kernels.size());
    parallelFor(num_shards, [&](size_t shard) {
        const auto t0 = std::chrono::steady_clock::now();
        // Balanced contiguous partition of [0, n) into num_shards.
        const size_t n = kernels.size();
        const size_t begin = shard * n / num_shards;
        const size_t end = (shard + 1) * n / num_shards;
        for (size_t k = begin; k < end; ++k) {
            // Journal first: a replayed kernel skips the sweep (and
            // the cache) entirely, and is not re-recorded.
            if (journal != nullptr &&
                journal->lookup(kernels[k]->name, runtimes[k])) {
                if (progress != nullptr)
                    progress->tick();
                continue;
            }
            runtimes[k] = sweepOne(model, *kernels[k], grid);
            if (journal != nullptr)
                journal->record(kernels[k]->name, runtimes[k]);
            if (progress != nullptr)
                progress->tick();
        }
        const auto t1 = std::chrono::steady_clock::now();
        metrics.shard_latency.record(
            std::chrono::duration<double>(t1 - t0).count());
    }, 0, cancel);

    std::vector<scaling::ScalingSurface> surfaces;
    surfaces.reserve(kernels.size());
    for (size_t k = 0; k < kernels.size(); ++k) {
        surfaces.emplace_back(kernels[k]->name, space,
                              std::move(runtimes[k]));
    }
    return surfaces;
}

} // namespace harness
} // namespace gpuscale
