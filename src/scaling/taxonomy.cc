/**
 * @file
 * Taxonomy classifier implementation.
 */

#include "taxonomy.hh"

#include <algorithm>

#include "base/logging.hh"

namespace gpuscale {
namespace scaling {

namespace {

bool
isLinearish(const ShapeVerdict &v)
{
    return v.shape == CurveShape::Linear ||
           v.shape == CurveShape::Sublinear;
}

bool
isFlatish(const ShapeVerdict &v)
{
    return v.shape == CurveShape::Flat;
}

bool
isSaturating(const ShapeVerdict &v)
{
    return v.shape == CurveShape::Plateau || v.shape == CurveShape::Flat;
}

/**
 * The knob and curve vectors one classification reads.  A census
 * classifies every kernel on every pool worker, so each thread keeps
 * one set whose capacity outlives the call.
 */
struct CurveBuffers {
    std::vector<double> cu_knob;
    std::vector<double> cu_perf;
    std::vector<double> freq_perf;
    std::vector<double> mem_perf;
};

/**
 * The curves ScalingSurface::cuCurveAtMax(), freqCurveAtMax() and
 * memCurveAtMax() return, from a runtime span into `buffers`.
 */
void
curvesAtMax(const ConfigSpace &space, std::span<const double> runtimes,
            CurveBuffers &buffers)
{
    const size_t max_cu = space.numCu() - 1;
    const size_t max_core = space.numCoreClk() - 1;
    const size_t max_mem = space.numMemClk() - 1;
    auto perfAt = [&](size_t cu_i, size_t core_i, size_t mem_i) {
        return 1.0 / runtimes[space.flatten(cu_i, core_i, mem_i)];
    };
    buffers.cu_perf.resize(space.numCu());
    for (size_t i = 0; i < space.numCu(); ++i)
        buffers.cu_perf[i] = perfAt(i, max_core, max_mem);
    buffers.freq_perf.resize(space.numCoreClk());
    for (size_t i = 0; i < space.numCoreClk(); ++i)
        buffers.freq_perf[i] = perfAt(max_cu, i, max_mem);
    buffers.mem_perf.resize(space.numMemClk());
    for (size_t i = 0; i < space.numMemClk(); ++i)
        buffers.mem_perf[i] = perfAt(max_cu, max_core, i);
}

} // namespace

KernelClassification
classifySurface(const ScalingSurface &surface,
                const TaxonomyParams &params)
{
    KernelClassification out =
        classifyRuntimes(surface.space(), surface.runtimes(), params);
    out.kernel = surface.kernelName();
    return out;
}

KernelClassification
classifyRuntimes(const ConfigSpace &space, std::span<const double> runtimes,
                 const TaxonomyParams &params)
{
    panic_if(runtimes.size() != space.size(),
             "classifying %zu runtimes over a %zu-point grid",
             runtimes.size(), space.size());
    KernelClassification out;

    thread_local CurveBuffers buffers;
    buffers.cu_knob.assign(space.cuValues().begin(), space.cuValues().end());
    curvesAtMax(space, runtimes, buffers);
    const std::vector<double> &cu_knob = buffers.cu_knob;
    const std::vector<double> &cu_perf = buffers.cu_perf;
    const std::vector<double> &freq_perf = buffers.freq_perf;
    const std::vector<double> &mem_perf = buffers.mem_perf;

    out.cu = classifyCurve(cu_knob, cu_perf, params.shape);
    out.freq = classifyCurve(space.coreClks(), freq_perf, params.shape);
    out.mem = classifyCurve(space.memClks(), mem_perf, params.shape);
    out.perf_range = perfRange(runtimes);
    // The insensitivity test uses the robust range so sample-noise
    // tails cannot fake sensitivity on measured data.
    const double robust_range = robustPerfRange(runtimes);

    // CUs needed for 90% of max-CU performance.
    const double peak = *std::max_element(cu_perf.begin(), cu_perf.end());
    out.cu90 = space.cuValues().back();
    for (size_t i = 0; i < cu_perf.size(); ++i) {
        if (cu_perf[i] >= 0.9 * peak) {
            out.cu90 = space.cuValues()[i];
            break;
        }
    }

    const bool freq_responsive =
        out.freq.total_gain >= params.responsive_gain;
    const bool mem_responsive =
        out.mem.total_gain >= params.responsive_gain;

    //
    // The decision tree (documented in the header).
    //
    if (out.cu.shape == CurveShape::Adverse) {
        out.cls = TaxonomyClass::CuAdverse;
    } else if (robust_range < params.insensitive_range) {
        out.cls = TaxonomyClass::LaunchBound;
    } else if (isSaturating(out.cu) && freq_responsive &&
               !mem_responsive) {
        out.cls = TaxonomyClass::ParallelismStarved;
    } else if (isLinearish(out.freq) && isFlatish(out.mem)) {
        out.cls = TaxonomyClass::CoreBound;
    } else if (isLinearish(out.mem) &&
               (isSaturating(out.freq) || !freq_responsive)) {
        out.cls = TaxonomyClass::MemoryBound;
    } else if (freq_responsive && mem_responsive) {
        out.cls = TaxonomyClass::Balanced;
    } else if (out.freq.shape == CurveShape::Plateau &&
               isSaturating(out.mem)) {
        out.cls = TaxonomyClass::LatencyBound;
    } else if (isLinearish(out.freq) && out.mem.shape ==
               CurveShape::Plateau) {
        // Mostly core-side, with an early-saturating memory response:
        // still effectively core bound.
        out.cls = TaxonomyClass::CoreBound;
    } else {
        out.cls = TaxonomyClass::Irregular;
    }

    return out;
}

std::vector<KernelClassification>
classifyAll(const std::vector<ScalingSurface> &surfaces,
            const TaxonomyParams &params)
{
    std::vector<KernelClassification> out;
    out.reserve(surfaces.size());
    for (const auto &surface : surfaces)
        out.push_back(classifySurface(surface, params));
    return out;
}

std::string
taxonomyClassName(TaxonomyClass cls)
{
    switch (cls) {
      case TaxonomyClass::CoreBound:          return "core-bound";
      case TaxonomyClass::MemoryBound:        return "memory-bound";
      case TaxonomyClass::Balanced:           return "balanced";
      case TaxonomyClass::LatencyBound:       return "latency-bound";
      case TaxonomyClass::ParallelismStarved: return "parallelism-starved";
      case TaxonomyClass::CuAdverse:          return "cu-adverse";
      case TaxonomyClass::LaunchBound:        return "launch-bound";
      case TaxonomyClass::Irregular:          return "irregular";
    }
    panic("unknown taxonomy class %d", static_cast<int>(cls));
}

std::vector<TaxonomyClass>
allTaxonomyClasses()
{
    return {
        TaxonomyClass::CoreBound,
        TaxonomyClass::MemoryBound,
        TaxonomyClass::Balanced,
        TaxonomyClass::LatencyBound,
        TaxonomyClass::ParallelismStarved,
        TaxonomyClass::CuAdverse,
        TaxonomyClass::LaunchBound,
        TaxonomyClass::Irregular,
    };
}

std::vector<size_t>
classHistogram(const std::vector<KernelClassification> &classifications)
{
    std::vector<size_t> hist(kNumTaxonomyClasses, 0);
    for (const auto &c : classifications)
        ++hist[static_cast<size_t>(c.cls)];
    return hist;
}

} // namespace scaling
} // namespace gpuscale
