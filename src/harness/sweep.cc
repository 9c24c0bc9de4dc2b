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
 * once per sweepKernels() call.  A shard keeps the vectors it
 * computes in one store (SweepCache::Shard), stages their entries and
 * inserts them in one batch, so the cache lock is taken for lookups
 * and once per shard, never around an allocation or a hash.
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
 * miss.  A hit returns the vector the cache holds; a miss keeps the
 * fresh vector in `shard`, which stages it for the cache.  The
 * per-estimate latency histogram is fed the batch's amortized
 * per-point cost, and sweep.estimates.count advances only for
 * estimates actually computed (cache hits are free and are counted by
 * sweep.cache.hits).
 */
SweepCache::Runtimes
sweepOne(const gpu::PerfModel &model, const gpu::KernelDesc &kernel,
         const gpu::ConfigGrid &grid, const SweepCache::KeyView &key,
         SweepCache::Shard &shard)
{
    SweepMetrics &metrics = SweepMetrics::get();
    GPUSCALE_TRACE_SCOPE("sweep/", kernel.name);
    metrics.kernels.inc();
    // Injection site: a Delay fault here slows every kernel sweep
    // (how the kill/resume tests keep a census mid-flight); Exception
    // models a crashing worker.
    faultPoint("sweep.kernel");

    SweepCache &cache = SweepCache::instance();
    if (SweepCache::Runtimes hit = cache.lookupShared(key)) {
        debuglog("swept %s: %zu configs (cached)", kernel.name.c_str(),
                 hit->size());
        return hit;
    }

    const auto t0 = std::chrono::steady_clock::now();
    SweepCache::Runtimes runtimes =
        shard.keep(key, model.evaluateGridRuntimes(kernel, grid));
    const auto t1 = std::chrono::steady_clock::now();

    metrics.estimates.inc(runtimes->size());
    metrics.latency.record(
        std::chrono::duration<double>(t1 - t0).count() /
        static_cast<double>(std::max<size_t>(1, runtimes->size())));

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
    SweepCache::Shard shard(1);
    SweepCache::Runtimes runtimes =
        sweepOne(model, kernel, grid, SweepCache::KeyView(key), shard);
    SweepCache::instance().insertBatch(shard);
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
    // never contend.  The kernel names the surfaces and the
    // classifications keep are copied here, before the region, and
    // the shards move them in: the workers allocate only what the
    // cache keeps.
    std::vector<std::optional<scaling::ScalingSurface>> built(kernels.size());
    std::vector<std::string> names;
    names.reserve(kernels.size());
    for (const auto *kernel : kernels)
        names.push_back(kernel->name);
    if (classifications != nullptr) {
        classifications->assign(kernels.size(), {});
        for (size_t k = 0; k < kernels.size(); ++k)
            (*classifications)[k].kernel = kernels[k]->name;
    }
    parallelFor(num_shards, [&](size_t shard_index) {
        const auto t0 = std::chrono::steady_clock::now();
        // Balanced contiguous partition of [0, n) into num_shards.
        const size_t n = kernels.size();
        const size_t begin = shard_index * n / num_shards;
        const size_t end = (shard_index + 1) * n / num_shards;
        // The vectors the shard computes and their cache entries,
        // allocated here rather than under the cache lock, and
        // inserted in one batch however the shard ends.
        SweepCache::Shard shard(end - begin);
        // Each kernel's key is built into this thread's buffer, so
        // a key allocates only when the cache keeps it.
        thread_local std::string key;
        try {
            for (size_t k = begin; k < end; ++k) {
                const gpu::KernelDesc &kernel = *kernels[k];
                // One identity for the journal and the cache, built
                // in the shard: a kernel that changed under the same
                // name misses both.
                key.clear();
                SweepCache::appendKey(key, model_fp, kernel, grid_fp);
                // Journal first: a replayed kernel skips the sweep
                // (and the cache) entirely, and is not re-recorded.
                std::vector<double> replayed;
                if (journal != nullptr && journal->lookup(key, replayed)) {
                    built[k].emplace(std::move(names[k]), space,
                                     std::move(replayed));
                } else {
                    SweepCache::Runtimes runtimes =
                        sweepOne(model, kernel, grid,
                                 SweepCache::KeyView(key), shard);
                    if (journal != nullptr)
                        journal->record(key, *runtimes);
                    built[k].emplace(std::move(names[k]), space,
                                     std::move(runtimes));
                }
                if (classifications != nullptr) {
                    scaling::KernelClassification &cls =
                        (*classifications)[k];
                    std::string name = std::move(cls.kernel);
                    cls = scaling::classifyRuntimes(
                        space, built[k]->runtimes(), params);
                    cls.kernel = std::move(name);
                }
                if (progress != nullptr)
                    progress->tick();
            }
        } catch (...) {
            cache.insertBatch(shard);
            throw;
        }
        cache.insertBatch(shard);
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
