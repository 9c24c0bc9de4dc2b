/**
 * @file
 * The swept hardware-configuration grid.
 *
 * The paper's study space: 11 compute-unit settings x 9 core clocks x
 * 9 memory clocks = 891 configurations, spanning an 11x CU range, a
 * 5x core-frequency range, and an 8.33x memory-bandwidth range.
 *
 * A ConfigSpace is a view of one immutable, validated
 * gpu::ConfigGrid (scaling sits above gpu in the layer order): the
 * axes, the flatten order and the axis checks are the grid's own, and
 * grid() hands the model layer that same object.  Copies share it, so
 * copying a ConfigSpace (every ScalingSurface holds one) is one
 * reference-count increment, not three vector allocations.
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

    size_t numCu() const { return grid_->numCu(); }
    size_t numCoreClk() const { return grid_->numCoreClk(); }
    size_t numMemClk() const { return grid_->numMemClk(); }
    size_t size() const { return grid_->size(); }

    const std::vector<int> &cuValues() const { return grid_->cu_values; }
    const std::vector<double> &coreClks() const
    {
        return grid_->core_clks_mhz;
    }
    const std::vector<double> &memClks() const
    {
        return grid_->mem_clks_mhz;
    }

    /** Flatten (cu, core, mem) axis indices to a linear index. */
    size_t flatten(size_t cu_i, size_t core_i, size_t mem_i) const
    {
        return grid_->flatten(cu_i, core_i, mem_i);
    }

    /** The configuration at the given axis indices. */
    gpu::GpuConfig at(size_t cu_i, size_t core_i, size_t mem_i) const
    {
        return grid_->at(cu_i, core_i, mem_i);
    }

    /** The configuration at a linear index. */
    gpu::GpuConfig at(size_t flat) const;

    /** Axis indices for a linear index, as {cu, core, mem}. */
    struct AxisIndex { size_t cu, core, mem; };
    AxisIndex unflatten(size_t flat) const;

    /**
     * The model layer's grid this space views, shared by every copy:
     * PerfModel::evaluateGridRuntimes() results line up
     * index-for-index with at(flat).
     */
    const gpu::ConfigGrid &grid() const { return *grid_; }

    /** The largest configuration (max of every axis). */
    gpu::GpuConfig maxConfig() const;

    /** The smallest configuration (min of every axis). */
    gpu::GpuConfig minConfig() const;

  private:
    std::shared_ptr<const gpu::ConfigGrid> grid_;
};

} // namespace scaling
} // namespace gpuscale

#endif // GPUSCALE_SCALING_CONFIG_SPACE_HH
