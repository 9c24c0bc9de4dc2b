/**
 * @file
 * ScalingSurface: one kernel's runtime over the configuration grid.
 *
 * The surface is the taxonomy engine's only input — it is exactly the
 * data a real study gathers by timing a kernel on every hardware
 * configuration, so the classifier works identically on simulated and
 * measured data.
 *
 * A surface owns nothing it would have to copy: its runtimes are an
 * immutable shared vector (the very one the sweep cache holds, so a
 * census never copies a kernel's 891 runtimes) and its ConfigSpace
 * shares the space's axes.  Copying a surface copies its name and two
 * reference counts.
 */

#ifndef GPUSCALE_SCALING_SURFACE_HH
#define GPUSCALE_SCALING_SURFACE_HH

#include <memory>
#include <string>
#include <vector>

#include "config_space.hh"

namespace gpuscale {
namespace scaling {

/** Runtime samples for one kernel over a ConfigSpace. */
class ScalingSurface
{
  public:
    /**
     * @param kernel_name canonical kernel name.
     * @param space the grid the samples cover.
     * @param runtimes_s per-configuration runtimes in seconds,
     *        indexed by ConfigSpace::flatten order; all finite and
     *        positive.
     */
    ScalingSurface(std::string kernel_name, ConfigSpace space,
                   std::vector<double> runtimes_s);

    /**
     * Share an immutable runtime vector instead of copying it — how
     * the sweep harness hands a cache entry over.  The same checks
     * run; the pointer must be non-null.
     */
    ScalingSurface(std::string kernel_name, ConfigSpace space,
                   std::shared_ptr<const std::vector<double>> runtimes_s);

    const std::string &kernelName() const { return kernel_name_; }
    const ConfigSpace &space() const { return space_; }
    const std::vector<double> &runtimes() const { return *runtimes_; }

    /** Runtime at axis indices, seconds. */
    double runtimeAt(size_t cu_i, size_t core_i, size_t mem_i) const;

    /** Performance (1/runtime) at axis indices. */
    double perfAt(size_t cu_i, size_t core_i, size_t mem_i) const;

    //
    // Curve extraction: performance along one axis with the other two
    // fixed.  The default slices fix the other axes at their maxima,
    // matching the paper's presentation (e.g., CU scaling measured at
    // the highest clocks, where CU differences are most visible).
    //

    /** Performance vs compute units at fixed clock indices. */
    std::vector<double> cuCurve(size_t core_i, size_t mem_i) const;

    /** Performance vs core clock at fixed CU/memory indices. */
    std::vector<double> freqCurve(size_t cu_i, size_t mem_i) const;

    /** Performance vs memory clock at fixed CU/core indices. */
    std::vector<double> memCurve(size_t cu_i, size_t core_i) const;

    /** CU curve at maximum clocks. */
    std::vector<double> cuCurveAtMax() const;

    /** Frequency curve at maximum CUs and memory clock. */
    std::vector<double> freqCurveAtMax() const;

    /** Memory curve at maximum CUs and core clock. */
    std::vector<double> memCurveAtMax() const;

    /**
     * The three curves above written into caller-owned vectors, which
     * are resized and keep their capacity: the classifier's
     * allocation-free form.
     */
    void curvesAtMax(std::vector<double> &cu, std::vector<double> &freq,
                     std::vector<double> &mem) const;

    /** Best performance over the whole grid. */
    double bestPerf() const;

    /** Worst performance over the whole grid. */
    double worstPerf() const;

    /** bestPerf / worstPerf: total sensitivity to the grid. */
    double perfRange() const;

    /**
     * Robust sensitivity: the p-th / (100-p)-th percentile perf
     * ratio.  On measured data the extreme of 891 noisy samples is a
     * tail statistic; classification uses this instead of the raw
     * max/min so a handful of outliers cannot fake sensitivity.
     */
    double robustPerfRange(double tail_percent = 2.0) const;

    /**
     * Heatmap slice: performance over (core clock x memory clock) at a
     * fixed CU index, row-major rows = core clocks.
     */
    std::vector<double> clockPlane(size_t cu_i) const;

  private:
    std::string kernel_name_;
    ConfigSpace space_;
    std::shared_ptr<const std::vector<double>> runtimes_;
};

} // namespace scaling
} // namespace gpuscale

#endif // GPUSCALE_SCALING_SURFACE_HH
