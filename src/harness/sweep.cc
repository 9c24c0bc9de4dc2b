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
 * kernel.  The flat vector becomes one immutable shared vector that
 * the sweep cache and the kernel's ScalingSurface both hold, so it is
 * never copied; keys come from model and grid fingerprints taken
 * once per sweepKernels() call.  A shard stages its misses and
 * inserts them in one batch, so the cache lock is taken for lookups
 * and once per shard, never around an allocation.
 */

#include "sweep.hh"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "base/fault.hh"
#include "base/logging.hh"
#include "checkpoint.hh"
#include "gpu/kernel_desc.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/trace.hh"
#include "parallel.hh"
#include "sweep_cache.hh"

namespace gpuscale {
namespace harness {

namespace {

/**
 * Cached instrument references for the estimate hot loop.  Counters
 * and histograms are striped per thread (obs/metrics.hh), so pool
 * workers never contend on a shared cache line.
 */
struct SweepMetrics {
    obs::Counter &estimates;
    obs::Counter &kernels;
    obs::Histogram &latency;
    obs::Gauge &shards;
    obs::Histogram &shard_latency;

    static SweepMetrics &
    get()
    {
        static SweepMetrics m{
            obs::Registry::instance().counter(
                "sweep.estimates.count",
                "model estimates issued by the sweep harness"),
            obs::Registry::instance().counter(
                "sweep.kernels.count", "kernels swept"),
            obs::Registry::instance().histogram(
                "sweep.estimate.latency",
                "seconds per model estimate"),
            obs::Registry::instance().gauge(
                "census.shard.count",
                "kernel shards in the last sweepKernels call"),
            obs::Registry::instance().histogram(
                "census.shard.latency",
                "seconds per kernel shard"),
        };
        return m;
    }
};

/**
 * Sweep one kernel over the whole grid: one cache probe under its
 * SweepCache::keyFor key, then one batched model evaluation on a
 * miss.  A hit returns the vector the cache holds; a miss returns the
 * fresh vector and sets `computed`, and the caller stores it.  The
 * per-estimate latency histogram is fed the batch's amortized
 * per-point cost, and sweep.estimates.count advances only for
 * estimates actually computed (cache hits are free and are counted by
 * sweep.cache.hits).
 */
SweepCache::Runtimes
sweepOne(const gpu::PerfModel &model, const gpu::KernelDesc &kernel,
         const gpu::ConfigGrid &grid, const std::string &key,
         bool &computed)
{
    SweepMetrics &metrics = SweepMetrics::get();
    GPUSCALE_TRACE_SCOPE("sweep/", kernel.name);
    metrics.kernels.inc();
    // Injection site: a Delay fault here slows every kernel sweep
    // (how the kill/resume tests keep a census mid-flight); Exception
    // models a crashing worker.
    faultPoint("sweep.kernel");

    computed = false;
    SweepCache &cache = SweepCache::instance();
    if (SweepCache::Runtimes hit = cache.lookupShared(key)) {
        debuglog("swept %s: %zu configs (cached)", kernel.name.c_str(),
                 hit->size());
        return hit;
    }

    const auto t0 = std::chrono::steady_clock::now();
    SweepCache::Runtimes runtimes =
        std::make_shared<const std::vector<double>>(
            model.evaluateGridRuntimes(kernel, grid));
    const auto t1 = std::chrono::steady_clock::now();

    metrics.estimates.inc(runtimes->size());
    metrics.latency.record(
        std::chrono::duration<double>(t1 - t0).count() /
        static_cast<double>(std::max<size_t>(1, runtimes->size())));

    computed = true;
    debuglog("swept %s: %zu configs", kernel.name.c_str(),
             runtimes->size());
    return runtimes;
}

} // namespace

scaling::ScalingSurface
sweepKernel(const gpu::PerfModel &model, const gpu::KernelDesc &kernel,
            const scaling::ConfigSpace &space)
{
    const gpu::ConfigGrid &grid = space.grid();
    const std::string key = SweepCache::keyFor(model, kernel, grid);
    bool computed = false;
    SweepCache::Runtimes runtimes =
        sweepOne(model, kernel, grid, key, computed);
    if (computed)
        SweepCache::instance().insertShared(key, runtimes);
    return scaling::ScalingSurface(kernel.name, space, std::move(runtimes));
}

std::vector<scaling::ScalingSurface>
sweepKernels(const gpu::PerfModel &model,
             const std::vector<const gpu::KernelDesc *> &kernels,
             const scaling::ConfigSpace &space,
             obs::ProgressReporter *progress, CensusJournal *journal,
             const CancelToken *cancel,
             std::vector<scaling::KernelClassification> *classifications,
             const scaling::TaxonomyParams &params)
{
    for (const auto *kernel : kernels)
        panic_if(kernel == nullptr, "sweepKernels: null kernel");

    SweepMetrics &metrics = SweepMetrics::get();
    SweepCache &cache = SweepCache::instance();
    const gpu::ConfigGrid &grid = space.grid();
    // The model and the grid are the same for every kernel, so their
    // fingerprints are taken once here, not once per key.
    const std::string model_fp = model.fingerprint();
    const std::string grid_fp = grid.fingerprint();

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

    // Each shard builds (and, when asked, classifies) its kernels'
    // surfaces, checks included, into pre-sized slots so workers
    // never contend.
    std::vector<std::optional<scaling::ScalingSurface>> built(kernels.size());
    if (classifications != nullptr)
        classifications->assign(kernels.size(), {});
    parallelFor(num_shards, [&](size_t shard) {
        const auto t0 = std::chrono::steady_clock::now();
        // Balanced contiguous partition of [0, n) into num_shards.
        const size_t n = kernels.size();
        const size_t begin = shard * n / num_shards;
        const size_t end = (shard + 1) * n / num_shards;
        // The shard's misses, keys and nodes allocated here rather
        // than under the cache lock, and inserted in one batch
        // however the shard ends.
        SweepCache::Batch staged;
        staged.reserve(end - begin);
        try {
            for (size_t k = begin; k < end; ++k) {
                const gpu::KernelDesc &kernel = *kernels[k];
                // One identity for the journal and the cache, built
                // in the shard: a kernel that changed under the same
                // name misses both.
                std::string key =
                    SweepCache::keyFor(model_fp, kernel, grid_fp);
                // Journal first: a replayed kernel skips the sweep
                // (and the cache) entirely, and is not re-recorded.
                std::vector<double> replayed;
                if (journal != nullptr && journal->lookup(key, replayed)) {
                    built[k].emplace(kernel.name, space,
                                     std::move(replayed));
                } else {
                    bool computed = false;
                    SweepCache::Runtimes runtimes =
                        sweepOne(model, kernel, grid, key, computed);
                    if (journal != nullptr)
                        journal->record(key, *runtimes);
                    if (computed)
                        SweepCache::stage(staged, std::move(key), runtimes);
                    built[k].emplace(kernel.name, space,
                                     std::move(runtimes));
                }
                if (classifications != nullptr) {
                    (*classifications)[k] =
                        scaling::classifySurface(*built[k], params);
                }
                if (progress != nullptr)
                    progress->tick();
            }
        } catch (...) {
            cache.insertBatch(staged);
            throw;
        }
        cache.insertBatch(staged);
        const auto t1 = std::chrono::steady_clock::now();
        metrics.shard_latency.record(
            std::chrono::duration<double>(t1 - t0).count());
    }, 0, cancel);

    std::vector<scaling::ScalingSurface> surfaces;
    surfaces.reserve(kernels.size());
    for (auto &surface : built)
        surfaces.push_back(std::move(*surface));
    return surfaces;
}

} // namespace harness
} // namespace gpuscale
