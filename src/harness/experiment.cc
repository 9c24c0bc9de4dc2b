/**
 * @file
 * Experiment driver implementation.
 */

#include "experiment.hh"

#include <map>
#include <thread>

#include "base/logging.hh"
#include "obs/trace.hh"
#include "workloads/registry.hh"

namespace gpuscale {
namespace harness {

CensusResult
runCensus(const gpu::PerfModel &model,
          std::optional<scaling::ConfigSpace> space,
          const scaling::TaxonomyParams &params,
          obs::ProgressReporter *progress, CensusJournal *journal,
          const CancelToken *cancel)
{
    GPUSCALE_TRACE_SCOPE("census");
    CensusResult census{
        space.value_or(scaling::ConfigSpace::paperGrid()), {}, {}};

    const auto kernels = workloads::WorkloadRegistry::instance()
                             .allKernels();
    debuglog("census: %zu kernels x %zu configs with model '%s'",
             kernels.size(), census.space.size(),
             model.name().c_str());
    // One parallel region: each shard classifies the surfaces it
    // builds, so classification runs inside the sweep's cancellable
    // region.
    census.surfaces =
        sweepKernels(model, kernels, census.space, progress, journal,
                     cancel, &census.classifications, params);
    return census;
}

obs::RunManifest
censusManifest(const CensusResult &census, const gpu::PerfModel &model)
{
    obs::RunManifest m;
    m.command = "census";
    m.model = model.name();
    m.threads = std::thread::hardware_concurrency();
    m.num_kernels = census.surfaces.size();
    m.num_configs = census.space.size();
    m.num_estimates = census.surfaces.size() * census.space.size();
    m.cu_values = census.space.cuValues();
    m.core_clks_mhz = census.space.coreClks();
    m.mem_clks_mhz = census.space.memClks();
    return m;
}

std::vector<const scaling::KernelClassification *>
representativesPerClass(const CensusResult &census)
{
    std::map<scaling::TaxonomyClass,
             const scaling::KernelClassification *> best;
    for (const auto &c : census.classifications) {
        auto it = best.find(c.cls);
        if (it == best.end() || c.perf_range > it->second->perf_range)
            best[c.cls] = &c;
    }

    std::vector<const scaling::KernelClassification *> out;
    for (const auto cls : scaling::allTaxonomyClasses()) {
        auto it = best.find(cls);
        if (it != best.end())
            out.push_back(it->second);
    }
    return out;
}

const scaling::KernelClassification *
findClassification(const CensusResult &census, const std::string &kernel)
{
    for (const auto &c : census.classifications) {
        if (c.kernel == kernel)
            return &c;
    }
    return nullptr;
}

const scaling::ScalingSurface *
findSurface(const CensusResult &census, const std::string &kernel)
{
    for (const auto &surface : census.surfaces) {
        if (surface.kernelName() == kernel)
            return &surface;
    }
    return nullptr;
}

} // namespace harness
} // namespace gpuscale
