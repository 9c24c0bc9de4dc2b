/**
 * @file
 * Sparse census driver implementation.
 */

#include "sparse.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "base/fault.hh"
#include "base/logging.hh"
#include "gpu/kernel_desc.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "parallel.hh"
#include "sweep_cache.hh"
#include "workloads/registry.hh"

namespace gpuscale {
namespace harness {

namespace {

/**
 * Cached instrument references for the sparse hot loop; pool workers
 * update them per kernel.
 */
struct SparseMetrics {
    obs::Counter &samples;
    obs::Histogram &fit_latency;
    obs::Histogram &agreement;

    static SparseMetrics &
    get()
    {
        static SparseMetrics m{
            obs::Registry::instance().counter(
                "sparse.samples.count",
                "configurations measured by the sparse census"),
            obs::Registry::instance().histogram(
                "sparse.fit.latency",
                "seconds per sparse surface reconstruction"),
            obs::Registry::instance().histogram(
                "sparse.agreement",
                "per-kernel ensemble classification agreement"),
        };
        return m;
    }
};

/**
 * What every kernel of one sparse census shares, built once per
 * census: the fingerprints each cache key starts from, the suffix it
 * ends with, and the LHS plan, a function of (space, seed, budget)
 * alone.
 */
struct CensusInvariants {
    std::string model_fp;
    std::string grid_fp;
    std::string key_suffix;       ///< see keySuffix()
    std::vector<size_t> lhs_plan; ///< empty for the active sampler
};

/** Everything a kernel's sample plan depends on beyond its sweep. */
std::string
keySuffix(const SparseCensusOptions &options)
{
    return "|sparse|" + scaling::samplerKindName(options.sampler) +
           "|k=" + std::to_string(options.samples) +
           "|seed=" + std::to_string(options.seed) +
           "|e=" + std::to_string(options.ensemble);
}

/**
 * Build the cache key for one kernel's sample plan into `key`: the
 * full-sweep key plus the census's key suffix, appended to the same
 * buffer.  Left empty when the model is uncacheable (empty
 * full-sweep key).
 */
void
sparseKeyFor(std::string &key, const CensusInvariants &invariants,
             const gpu::KernelDesc &kernel)
{
    key.clear();
    SweepCache::appendKey(key, invariants.model_fp, kernel,
                          invariants.grid_fp);
    if (!key.empty())
        key += invariants.key_suffix;
}

/**
 * The measured plan round-trips through the cache as a flat
 * [index, runtime, index, runtime, ...] double vector; indices are
 * grid positions (< 4096 on the paper grid), far inside double's
 * exact-integer range.
 */
std::vector<double>
packSamples(const std::vector<size_t> &indices,
            const std::vector<double> &runtimes)
{
    std::vector<double> packed;
    packed.reserve(indices.size() * 2);
    for (size_t s = 0; s < indices.size(); ++s) {
        packed.push_back(static_cast<double>(indices[s]));
        packed.push_back(runtimes[s]);
    }
    return packed;
}

bool
unpackSamples(const std::vector<double> &packed, size_t grid_size,
              std::vector<size_t> &indices, std::vector<double> &runtimes)
{
    if (packed.empty() || packed.size() % 2 != 0)
        return false;
    indices.clear();
    runtimes.clear();
    for (size_t p = 0; p < packed.size(); p += 2) {
        const double idx = packed[p];
        if (idx < 0 || idx >= static_cast<double>(grid_size) ||
            idx != static_cast<double>(static_cast<size_t>(idx)))
        {
            return false;
        }
        indices.push_back(static_cast<size_t>(idx));
        runtimes.push_back(packed[p + 1]);
    }
    return true;
}

/**
 * Measure one kernel's sample plan (through the sweep cache) and
 * reconstruct its surface.  The measured (index, runtime) set is
 * cached under the full-sweep key plus a plan suffix, so repeated
 * sparse runs — and the accuracy bench's budget curves — only pay
 * for the model once per (kernel, plan).  A miss is kept in
 * `shard`, which the caller inserts.
 */
scaling::SparseReconstruction
sparseSweepKernel(const gpu::PerfModel &model,
                  const gpu::KernelDesc &kernel,
                  const scaling::SparsePredictor &predictor,
                  const CensusInvariants &invariants,
                  const SparseCensusOptions &options,
                  const scaling::TaxonomyParams &params,
                  SweepCache::Shard &shard)
{
    SparseMetrics &metrics = SparseMetrics::get();
    GPUSCALE_TRACE_SCOPE("sparse/", kernel.name);
    // Same injection site as the dense sweep: a sparse census is
    // still a sweep, and the fault tests drive both through it.
    faultPoint("sweep.kernel");

    const scaling::ConfigSpace &space = predictor.space();
    // The key, the plan and its runtimes, per thread so their
    // capacity lasts.
    thread_local std::string key;
    thread_local std::vector<size_t> indices;
    thread_local std::vector<double> runtimes;
    sparseKeyFor(key, invariants, kernel);
    const SweepCache::KeyView key_view(key);
    bool measured = false;
    if (!key.empty()) {
        const SweepCache::Runtimes hit =
            SweepCache::instance().lookupShared(key_view);
        measured = hit != nullptr &&
                   unpackSamples(*hit, space.size(), indices, runtimes);
    }
    if (measured) {
        debuglog("sparse %s: %zu samples (cached)", kernel.name.c_str(),
                 indices.size());
    }

    if (!measured) {
        // The scalar estimate() is bitwise-identical to the batched
        // grid walk (the differential tests assert it), so sampled
        // points agree exactly with what a dense sweep would report.
        // Each configuration is measured once, in plan order.
        runtimes.clear();
        const auto measureOne = [&](size_t flat) {
            runtimes.push_back(
                model.estimate(kernel, space.at(flat)).time_s);
            return runtimes.back();
        };
        switch (options.sampler) {
          case scaling::SamplerKind::Lhs:
            indices.assign(invariants.lhs_plan.begin(),
                           invariants.lhs_plan.end());
            for (const size_t flat : indices)
                measureOne(flat);
            break;
          case scaling::SamplerKind::Active:
            indices = predictor.activePlan(options.samples, measureOne);
            break;
        }
        if (!key.empty())
            shard.keep(key_view, packSamples(indices, runtimes));
        debuglog("sparse %s: %zu samples", kernel.name.c_str(),
                 indices.size());
    }

    metrics.samples.inc(indices.size());

    const auto t0 = std::chrono::steady_clock::now();
    scaling::SparseReconstruction rec =
        predictor.reconstruct(kernel.name, indices, runtimes, params);
    const auto t1 = std::chrono::steady_clock::now();
    metrics.fit_latency.record(
        std::chrono::duration<double>(t1 - t0).count());
    metrics.agreement.record(rec.confidence);
    return rec;
}

} // namespace

SparseCensusResult
runSparseCensus(const gpu::PerfModel &model,
                std::optional<scaling::ConfigSpace> space,
                const SparseCensusOptions &options,
                const scaling::TaxonomyParams &params,
                obs::ProgressReporter *progress)
{
    GPUSCALE_TRACE_SCOPE("sparse_census");
    SparseCensusResult census{
        space.value_or(scaling::ConfigSpace::paperGrid()),
        options,
        {},
        {},
    };

    scaling::SparseFitOptions fit;
    fit.seed = options.seed;
    fit.ensemble = options.ensemble;
    const scaling::SparsePredictor predictor(census.space, fit);
    const CensusInvariants invariants{
        model.fingerprint(),
        census.space.grid().fingerprint(),
        keySuffix(options),
        options.sampler == scaling::SamplerKind::Lhs
            ? predictor.lhsPlan(options.samples)
            : std::vector<size_t>{},
    };

    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();
    debuglog("sparse census: %zu kernels x %zu/%zu configs (%s) with "
             "model '%s'",
             kernels.size(), options.samples, census.space.size(),
             scaling::samplerKindName(options.sampler).c_str(),
             model.name().c_str());

    // Same sharding shape as the dense sweepKernels(): contiguous
    // slices, several per worker, results into pre-sized slots.
    const size_t workers =
        std::max<unsigned>(1u, std::thread::hardware_concurrency());
    const size_t num_shards =
        std::min(kernels.size(), std::max<size_t>(1, workers * 4));

    std::vector<std::optional<scaling::SparseReconstruction>> slots(
        kernels.size());
    SweepCache &cache = SweepCache::instance();
    parallelFor(num_shards, [&](size_t shard_index) {
        const size_t n = kernels.size();
        const size_t begin = shard_index * n / num_shards;
        const size_t end = (shard_index + 1) * n / num_shards;
        // As in sweepKernels(): the shard's measured plans, kept in
        // one store, staged outside the cache lock and inserted in
        // one batch however the shard ends.
        SweepCache::Shard shard(end - begin);
        try {
            for (size_t k = begin; k < end; ++k) {
                slots[k] = sparseSweepKernel(model, *kernels[k], predictor,
                                             invariants, options, params,
                                             shard);
                if (progress != nullptr)
                    progress->tick();
            }
        } catch (...) {
            cache.insertBatch(shard);
            throw;
        }
        cache.insertBatch(shard);
    });

    census.reconstructions.reserve(kernels.size());
    census.classifications.reserve(kernels.size());
    for (auto &slot : slots) {
        panic_if(!slot.has_value(), "sparse census: missing kernel");
        census.classifications.push_back(slot->cls);
        census.reconstructions.push_back(std::move(*slot));
    }
    return census;
}

obs::RunManifest
sparseCensusManifest(const SparseCensusResult &census,
                     const gpu::PerfModel &model)
{
    obs::RunManifest m;
    m.command = "census";
    m.model = model.name();
    m.threads = std::thread::hardware_concurrency();
    m.num_kernels = census.reconstructions.size();
    m.num_configs = census.space.size();
    m.num_estimates =
        census.reconstructions.size() * census.options.samples;
    m.cu_values = census.space.cuValues();
    m.core_clks_mhz = census.space.coreClks();
    m.mem_clks_mhz = census.space.memClks();
    m.extra["sparse.sampler"] =
        scaling::samplerKindName(census.options.sampler);
    m.extra["sparse.samples"] =
        std::to_string(census.options.samples);
    m.extra["sparse.seed"] = std::to_string(census.options.seed);
    m.extra["sparse.ensemble"] =
        std::to_string(census.options.ensemble);
    return m;
}

double
sparseAgreement(const SparseCensusResult &sparse,
                const std::vector<scaling::KernelClassification> &dense)
{
    size_t compared = 0, matched = 0;
    for (const auto &sc : sparse.classifications) {
        for (const auto &dc : dense) {
            if (dc.kernel != sc.kernel)
                continue;
            ++compared;
            matched += dc.cls == sc.cls;
            break;
        }
    }
    if (compared == 0)
        return 1.0;
    return static_cast<double>(matched) /
           static_cast<double>(compared);
}

} // namespace harness
} // namespace gpuscale
