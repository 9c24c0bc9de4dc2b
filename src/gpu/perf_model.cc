/**
 * @file
 * PerfModel defaults: the scalar grid walk.
 */

#include "perf_model.hh"

#include "gpu_config.hh"
#include "kernel_desc.hh"

namespace gpuscale {
namespace gpu {

std::vector<double>
PerfModel::evaluateGridRuntimes(const KernelDesc &kernel,
                                const ConfigGrid &grid) const
{
    grid.validate();
    std::vector<double> out(grid.size());
    for (size_t cu_i = 0; cu_i < grid.numCu(); ++cu_i) {
        for (size_t core_i = 0; core_i < grid.numCoreClk(); ++core_i) {
            for (size_t mem_i = 0; mem_i < grid.numMemClk(); ++mem_i) {
                out[grid.flatten(cu_i, core_i, mem_i)] =
                    estimate(kernel, grid.at(cu_i, core_i, mem_i)).time_s;
            }
        }
    }
    return out;
}

} // namespace gpu
} // namespace gpuscale
