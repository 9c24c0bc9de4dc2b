/**
 * @file
 * NoisyModel implementation.
 */

#include "noise.hh"

#include <cmath>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/string_util.hh"
#include "gpu/gpu_config.hh"
#include "gpu/kernel_desc.hh"

namespace gpuscale {
namespace harness {

namespace {

uint64_t
hashString(const std::string &s, uint64_t h)
{
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

NoisyModel::NoisyModel(const gpu::PerfModel &inner, double sigma,
                       uint64_t seed)
    : inner_(inner), sigma_(sigma), seed_(seed)
{
    fatal_if(sigma < 0, "negative noise sigma %f", sigma);
}

double
NoisyModel::noiseFactor(const gpu::KernelDesc &kernel,
                        const gpu::GpuConfig &cfg) const
{
    uint64_t h = hashString(kernel.name, 0xcbf29ce484222325ull ^ seed_);
    h = hashString(cfg.id(), h);
    Rng rng(h);
    return std::exp(rng.normal(0.0, sigma_));
}

gpu::KernelPerf
NoisyModel::estimate(const gpu::KernelDesc &kernel,
                     const gpu::GpuConfig &cfg) const
{
    gpu::KernelPerf perf = inner_.estimate(kernel, cfg);
    if (sigma_ == 0.0)
        return perf;
    const double factor = noiseFactor(kernel, cfg);
    perf.time_s *= factor;
    perf.kernel_time_s *= factor;
    return perf;
}

std::vector<double>
NoisyModel::evaluateGridRuntimes(const gpu::KernelDesc &kernel,
                                 const gpu::ConfigGrid &grid) const
{
    std::vector<double> out =
        inner_.evaluateGridRuntimes(kernel, grid);
    if (sigma_ == 0.0)
        return out;
    for (size_t cu_i = 0; cu_i < grid.numCu(); ++cu_i) {
        for (size_t core_i = 0; core_i < grid.numCoreClk(); ++core_i) {
            for (size_t mem_i = 0; mem_i < grid.numMemClk(); ++mem_i) {
                out[grid.flatten(cu_i, core_i, mem_i)] *= noiseFactor(
                    kernel, grid.at(cu_i, core_i, mem_i));
            }
        }
    }
    return out;
}

std::string
NoisyModel::name() const
{
    return inner_.name() + strprintf("+noise(%.3f)", sigma_);
}

std::string
NoisyModel::fingerprint() const
{
    const std::string inner_fp = inner_.fingerprint();
    if (inner_fp.empty())
        return "";
    return inner_fp + "+noise(" + formatDoubleShortest(sigma_) + "," +
           std::to_string(seed_) + ")";
}

} // namespace harness
} // namespace gpuscale
