/**
 * @file
 * ConfigSpace implementation.
 */

#include "config_space.hh"

#include "base/logging.hh"

namespace gpuscale {
namespace scaling {

namespace {

template <typename T>
void
checkAxis(const std::vector<T> &axis, const char *name)
{
    fatal_if(axis.empty(), "config-space axis '%s' is empty", name);
    for (size_t i = 1; i < axis.size(); ++i) {
        fatal_if(axis[i] <= axis[i - 1],
                 "config-space axis '%s' is not strictly increasing",
                 name);
    }
}

} // namespace

ConfigSpace::ConfigSpace(std::vector<int> cu_values,
                         std::vector<double> core_clks,
                         std::vector<double> mem_clks,
                         gpu::GpuConfig base)
    : axes_(std::make_shared<const Axes>(
          Axes{std::move(cu_values), std::move(core_clks),
               std::move(mem_clks), base}))
{
    checkAxis(axes_->cu_values, "compute-units");
    checkAxis(axes_->core_clks, "core-clock");
    checkAxis(axes_->mem_clks, "memory-clock");
    // Validate the extreme points once; interior points share the
    // same fixed parameters.
    minConfig().validate();
    maxConfig().validate();
}

ConfigSpace
ConfigSpace::paperGrid()
{
    std::vector<int> cus;
    for (int cu = 4; cu <= 44; cu += 4)
        cus.push_back(cu); // 11 settings, 11x range

    std::vector<double> core_clks;
    for (double clk = 200.0; clk <= 1000.0; clk += 100.0)
        core_clks.push_back(clk); // 9 settings, 5x range

    std::vector<double> mem_clks;
    for (int i = 0; i < 9; ++i) {
        // 150..1250 MHz evenly spaced: an 8.33x bandwidth range.
        mem_clks.push_back(150.0 + i * (1250.0 - 150.0) / 8.0);
    }

    return ConfigSpace(std::move(cus), std::move(core_clks),
                       std::move(mem_clks));
}

ConfigSpace
ConfigSpace::testGrid()
{
    return ConfigSpace({4, 24, 44}, {200.0, 600.0, 1000.0},
                       {150.0, 700.0, 1250.0});
}

size_t
ConfigSpace::flatten(size_t cu_i, size_t core_i, size_t mem_i) const
{
    panic_if(cu_i >= numCu() || core_i >= numCoreClk() ||
                 mem_i >= numMemClk(),
             "config index (%zu, %zu, %zu) out of range",
             cu_i, core_i, mem_i);
    return (cu_i * numCoreClk() + core_i) * numMemClk() + mem_i;
}

gpu::GpuConfig
ConfigSpace::at(size_t cu_i, size_t core_i, size_t mem_i) const
{
    panic_if(cu_i >= numCu() || core_i >= numCoreClk() ||
                 mem_i >= numMemClk(),
             "config index (%zu, %zu, %zu) out of range",
             cu_i, core_i, mem_i);
    gpu::GpuConfig cfg = axes_->base;
    cfg.num_cus = axes_->cu_values[cu_i];
    cfg.core_clk_mhz = axes_->core_clks[core_i];
    cfg.mem_clk_mhz = axes_->mem_clks[mem_i];
    return cfg;
}

gpu::GpuConfig
ConfigSpace::at(size_t flat) const
{
    const AxisIndex idx = unflatten(flat);
    return at(idx.cu, idx.core, idx.mem);
}

ConfigSpace::AxisIndex
ConfigSpace::unflatten(size_t flat) const
{
    panic_if(flat >= size(), "flat index %zu out of range (size %zu)",
             flat, size());
    AxisIndex idx;
    idx.mem = flat % numMemClk();
    flat /= numMemClk();
    idx.core = flat % numCoreClk();
    idx.cu = flat / numCoreClk();
    return idx;
}

gpu::ConfigGrid
ConfigSpace::grid() const
{
    gpu::ConfigGrid grid;
    grid.cu_values = axes_->cu_values;
    grid.core_clks_mhz = axes_->core_clks;
    grid.mem_clks_mhz = axes_->mem_clks;
    grid.base = axes_->base;
    return grid;
}

gpu::GpuConfig
ConfigSpace::maxConfig() const
{
    return at(numCu() - 1, numCoreClk() - 1, numMemClk() - 1);
}

gpu::GpuConfig
ConfigSpace::minConfig() const
{
    return at(0, 0, 0);
}

} // namespace scaling
} // namespace gpuscale
