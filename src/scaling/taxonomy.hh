/**
 * @file
 * The taxonomy of GPGPU performance scaling — the paper's core
 * contribution, codified.
 *
 * Each kernel's scaling surface is reduced to three shape verdicts
 * (core clock, memory clock, compute units) plus whole-surface
 * sensitivity, and the triple is mapped to one of eight classes via a
 * fixed decision tree (documented on classifySurface()).
 */

#ifndef GPUSCALE_SCALING_TAXONOMY_HH
#define GPUSCALE_SCALING_TAXONOMY_HH

#include <span>
#include <string>
#include <vector>

#include "shape.hh"
#include "surface.hh"

namespace gpuscale {
namespace scaling {

/** The taxonomy classes. */
enum class TaxonomyClass {
    /** Scales with core clock and CUs; indifferent to memory clock. */
    CoreBound,

    /** Scales with memory clock; indifferent to core clock and CUs. */
    MemoryBound,

    /** Needs both clock domains to keep scaling. */
    Balanced,

    /** Plateaus in both clock domains: exposed access latency. */
    LatencyBound,

    /**
     * Frequency-scalable but CU-saturated: the launch cannot fill a
     * modern GPU ("benchmarks do not scale to modern GPU sizes").
     */
    ParallelismStarved,

    /** Loses performance as CUs are added (cache/atomic interference). */
    CuAdverse,

    /** Insensitive to all three knobs: host/launch overhead rules. */
    LaunchBound,

    /** Non-monotone or otherwise unexplained. */
    Irregular,
};

/** Number of taxonomy classes (for histograms). */
constexpr size_t kNumTaxonomyClasses = 8;

/** Tunables for the surface-level classifier. */
struct TaxonomyParams {
    /** Shape-classifier thresholds shared by all three knobs. */
    ShapeParams shape;

    /** Whole-grid best/worst ratio under which a kernel is
     *  LaunchBound. */
    double insensitive_range = 1.25;

    /** Gain counted as "responds to this knob" for Balanced. */
    double responsive_gain = 1.6;
};

/** Full classification result for one kernel. */
struct KernelClassification {
    std::string kernel;
    TaxonomyClass cls = TaxonomyClass::Irregular;

    ShapeVerdict freq;   ///< vs core clock at max CUs / memory clock
    ShapeVerdict mem;    ///< vs memory clock at max CUs / core clock
    ShapeVerdict cu;     ///< vs compute units at max clocks

    /** bestPerf/worstPerf over the whole grid. */
    double perf_range = 1.0;

    /** CUs needed to reach 90% of the max-CU performance. */
    int cu90 = 0;
};

/**
 * Classify one kernel's surface.
 *
 * Decision tree (first match wins):
 *  1. CU curve Adverse                          -> CuAdverse
 *  2. whole-grid range < insensitive_range      -> LaunchBound
 *  3. CU Plateau/Flat with freq response and
 *     flat memory response                      -> ParallelismStarved
 *  4. freq Linear-ish, memory Flat              -> CoreBound
 *  5. memory Linear-ish, freq Flat/Plateau      -> MemoryBound
 *  6. freq and memory both responsive           -> Balanced
 *  7. freq Plateau and memory Plateau/Flat      -> LatencyBound
 *  8. otherwise                                 -> Irregular
 */
KernelClassification classifySurface(
    const ScalingSurface &surface,
    const TaxonomyParams &params = TaxonomyParams{});

/**
 * The same decision tree on a bare runtime span in
 * ConfigSpace::flatten order, with the kernel name left empty:
 * classifySurface() is this plus the surface's name.  The runtimes
 * must be finite and positive (ScalingSurface's check; the sparse fit
 * checks its lanes as it writes them).
 */
KernelClassification classifyRuntimes(
    const ConfigSpace &space, std::span<const double> runtimes,
    const TaxonomyParams &params = TaxonomyParams{});

/** Classify a batch of surfaces. */
std::vector<KernelClassification> classifyAll(
    const std::vector<ScalingSurface> &surfaces,
    const TaxonomyParams &params = TaxonomyParams{});

/** Human-readable class name. */
std::string taxonomyClassName(TaxonomyClass cls);

/** All classes in display order. */
std::vector<TaxonomyClass> allTaxonomyClasses();

/** Histogram of class populations over a batch. */
std::vector<size_t> classHistogram(
    const std::vector<KernelClassification> &classifications);

} // namespace scaling
} // namespace gpuscale

#endif // GPUSCALE_SCALING_TAXONOMY_HH
