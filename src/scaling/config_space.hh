/**
 * @file
 * The swept hardware-configuration grid.
 *
 * The paper's study space: 11 compute-unit settings x 9 core clocks x
 * 9 memory clocks = 891 configurations, spanning an 11x CU range, a
 * 5x core-frequency range, and an 8.33x memory-bandwidth range.
 *
 * A space is immutable once built, so its copies share one set of
 * axes: copying a ConfigSpace (every ScalingSurface holds one, and a
 * sparse census builds 17 surfaces per kernel) is one reference-count
 * increment, not three vector allocations.
 */

#ifndef GPUSCALE_SCALING_CONFIG_SPACE_HH
#define GPUSCALE_SCALING_CONFIG_SPACE_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "gpu/config_grid.hh"
#include "gpu/gpu_config.hh"

namespace gpuscale {
namespace scaling {

/** A dense 3-axis grid of GpuConfigs. */
class ConfigSpace
{
  public:
    /**
     * Build a custom grid.  Axis vectors must be non-empty and
     * strictly increasing.
     *
     * @param cu_values compute-unit settings.
     * @param core_clks core clocks in MHz.
     * @param mem_clks memory clocks in MHz.
     * @param base template whose fixed microarchitecture parameters
     *        every grid point inherits.
     */
    ConfigSpace(std::vector<int> cu_values,
                std::vector<double> core_clks,
                std::vector<double> mem_clks,
                gpu::GpuConfig base = gpu::GpuConfig{});

    /** The paper's 891-point grid. */
    static ConfigSpace paperGrid();

    /** A coarse 3x3x3 grid for fast tests. */
    static ConfigSpace testGrid();

    size_t numCu() const { return axes_->cu_values.size(); }
    size_t numCoreClk() const { return axes_->core_clks.size(); }
    size_t numMemClk() const { return axes_->mem_clks.size(); }
    size_t size() const
    {
        return numCu() * numCoreClk() * numMemClk();
    }

    const std::vector<int> &cuValues() const { return axes_->cu_values; }
    const std::vector<double> &coreClks() const { return axes_->core_clks; }
    const std::vector<double> &memClks() const { return axes_->mem_clks; }

    /** Flatten (cu, core, mem) axis indices to a linear index. */
    size_t flatten(size_t cu_i, size_t core_i, size_t mem_i) const;

    /** The configuration at the given axis indices. */
    gpu::GpuConfig at(size_t cu_i, size_t core_i, size_t mem_i) const;

    /** The configuration at a linear index. */
    gpu::GpuConfig at(size_t flat) const;

    /** Axis indices for a linear index, as {cu, core, mem}. */
    struct AxisIndex { size_t cu, core, mem; };
    AxisIndex unflatten(size_t flat) const;

    /**
     * This space as the model layer's batched-evaluation grid.  The
     * flatten order is identical, so evaluateGrid() results line up
     * index-for-index with at(flat).
     */
    gpu::ConfigGrid grid() const;

    /** The largest configuration (max of every axis). */
    gpu::GpuConfig maxConfig() const;

    /** The smallest configuration (min of every axis). */
    gpu::GpuConfig minConfig() const;

  private:
    /** The axes and base configuration, shared by every copy. */
    struct Axes {
        std::vector<int> cu_values;
        std::vector<double> core_clks;
        std::vector<double> mem_clks;
        gpu::GpuConfig base;
    };

    std::shared_ptr<const Axes> axes_;
};

} // namespace scaling
} // namespace gpuscale

#endif // GPUSCALE_SCALING_CONFIG_SPACE_HH
