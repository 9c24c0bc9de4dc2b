/**
 * @file
 * ConfigSpace implementation.
 */

#include "config_space.hh"

#include "base/logging.hh"

namespace gpuscale {
namespace scaling {

ConfigSpace::ConfigSpace(std::vector<int> cu_values,
                         std::vector<double> core_clks,
                         std::vector<double> mem_clks,
                         gpu::GpuConfig base)
    : grid_(std::make_shared<const gpu::ConfigGrid>(
          gpu::ConfigGrid{std::move(cu_values), std::move(core_clks),
                          std::move(mem_clks), base}))
{
    grid_->validate();
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
