/**
 * @file
 * ConfigGrid: the gpu-layer view of a dense 3-axis configuration
 * grid.
 *
 * The model's grid entry point (PerfModel::evaluateGridRuntimes)
 * needs the grid *structure* — which of the three swept knobs changes
 * fastest — not just a flat list of configurations, because hoisting
 * kernel-invariant and CU-invariant work out of the inner loops is
 * what makes the batched path fast.  scaling::ConfigSpace is a view
 * of one immutable ConfigGrid (scaling sits above gpu in the layer
 * order, so the dependency points the right way).
 *
 * Flattening, which ConfigSpace shares: cu is the slowest axis,
 * memory clock the fastest, i.e. flat = (cu_i * n_core + core_i) *
 * n_mem + mem_i.
 */

#ifndef GPUSCALE_GPU_CONFIG_GRID_HH
#define GPUSCALE_GPU_CONFIG_GRID_HH

#include <cstddef>
#include <string>
#include <vector>

#include "gpu_config.hh"

namespace gpuscale {
namespace gpu {

/**
 * Clock-independent throughput units for one compute-unit count.
 *
 * Every field is an exact product of small integers, so scaling by a
 * clock later rounds exactly once — the same single rounding the
 * scalar path performs when it computes e.g. GpuConfig::peakL1Bw()
 * directly.  That, plus the monotonicity of IEEE multiplication
 * (min(a, b) * clk == min(a * clk, b * clk) for positive clk), is
 * what keeps the batched walk, which hoists one CuUnits per CU value,
 * bitwise identical to the scalar one.
 */
struct CuUnits {
    /** num_cus as a double. */
    double cus = 0.0;

    /** SIMDs across active CUs (t_compute denominator / clk). */
    double simd_units = 0.0;

    /** LDS lanes serviced per cycle across active CUs. */
    double lds_units = 0.0;

    /** L1 bytes per cycle across active CUs. */
    double l1_units = 0.0;

    /** Crossbar bytes per cycle: min(L2 slice ports, CU ports). */
    double xbar_units = 0.0;
};

/**
 * Core-clock-domain derived values for one configuration: the
 * latency hops and rates the analytic model's clock loop consumes.
 * Derived through the same interconnect/memory helpers as the scalar
 * path, so the values are bitwise identical by construction.
 */
struct ClockTerms {
    /** Core clock in Hz. */
    double clk_hz = 0.0;

    /** Global atomic operations per second. */
    double atomic_rate = 0.0;

    /** L2 hit latency plus crossbar traversal, in seconds. */
    double l2_hop_s = 0.0;

    /** L2 miss latency plus unloaded DRAM latency, in seconds. */
    double dram_hop_s = 0.0;
};

/** Derive the clock-independent units for a CU count. */
CuUnits computeCuUnits(int num_cus, const GpuConfig &arch);

/** Derive the core-clock-domain values for a configuration. */
ClockTerms computeClockTerms(const GpuConfig &cfg);

/** A dense (compute units x core clock x memory clock) grid. */
struct ConfigGrid {
    /** Compute-unit axis, strictly increasing. */
    std::vector<int> cu_values;

    /** Core-clock axis in MHz, strictly increasing. */
    std::vector<double> core_clks_mhz;

    /** Memory-clock axis in MHz, strictly increasing. */
    std::vector<double> mem_clks_mhz;

    /** Fixed microarchitecture parameters every point inherits. */
    GpuConfig base;

    size_t numCu() const { return cu_values.size(); }
    size_t numCoreClk() const { return core_clks_mhz.size(); }
    size_t numMemClk() const { return mem_clks_mhz.size(); }
    size_t size() const { return numCu() * numCoreClk() * numMemClk(); }

    /** Flatten axis indices to a linear index (cu slowest). */
    size_t flatten(size_t cu_i, size_t core_i, size_t mem_i) const;

    /** Materialize the configuration at the given axis indices. */
    GpuConfig at(size_t cu_i, size_t core_i, size_t mem_i) const;

    /** fatal() if an axis is empty, unsorted, or a point is invalid. */
    void validate() const;

    /**
     * Locale-independent serialization of the axes and the base
     * configuration's swept knobs, for sweep-cache keys.  Two grids
     * with equal fingerprints produce identical configuration
     * sequences.
     */
    std::string fingerprint() const;
};

} // namespace gpu
} // namespace gpuscale

#endif // GPUSCALE_GPU_CONFIG_GRID_HH
