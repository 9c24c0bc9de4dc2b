/**
 * @file
 * ScalingSurface implementation.
 */

#include "surface.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/math_util.hh"

namespace gpuscale {
namespace scaling {

ScalingSurface::ScalingSurface(std::string kernel_name, ConfigSpace space,
                               std::vector<double> runtimes_s)
    : ScalingSurface(std::move(kernel_name), std::move(space),
                     std::make_shared<const std::vector<double>>(
                         std::move(runtimes_s)))
{
}

ScalingSurface::ScalingSurface(
    std::string kernel_name, ConfigSpace space,
    std::shared_ptr<const std::vector<double>> runtimes_s)
    : kernel_name_(std::move(kernel_name)), space_(std::move(space)),
      runtimes_(std::move(runtimes_s))
{
    panic_if(runtimes_ == nullptr, "surface for %s: no runtimes",
             kernel_name_.c_str());
    const std::vector<double> &rt = *runtimes_;
    fatal_if(rt.size() != space_.size(),
             "surface for %s: %zu runtimes for a %zu-point grid",
             kernel_name_.c_str(), rt.size(), space_.size());
    // NaN and inf are rejected too: a NaN breaks the strict weak
    // order that percentile() and every min/max here rely on.
    for (size_t i = 0; i < rt.size(); ++i) {
        fatal_if(!(std::isfinite(rt[i]) && rt[i] > 0.0),
                 "surface for %s: runtime %g at index %zu is not "
                 "finite and positive",
                 kernel_name_.c_str(), rt[i], i);
    }
}

double
ScalingSurface::runtimeAt(size_t cu_i, size_t core_i, size_t mem_i) const
{
    return runtimes()[space_.flatten(cu_i, core_i, mem_i)];
}

double
ScalingSurface::perfAt(size_t cu_i, size_t core_i, size_t mem_i) const
{
    return 1.0 / runtimeAt(cu_i, core_i, mem_i);
}

std::vector<double>
ScalingSurface::cuCurve(size_t core_i, size_t mem_i) const
{
    std::vector<double> curve(space_.numCu());
    for (size_t i = 0; i < space_.numCu(); ++i)
        curve[i] = perfAt(i, core_i, mem_i);
    return curve;
}

std::vector<double>
ScalingSurface::freqCurve(size_t cu_i, size_t mem_i) const
{
    std::vector<double> curve(space_.numCoreClk());
    for (size_t i = 0; i < space_.numCoreClk(); ++i)
        curve[i] = perfAt(cu_i, i, mem_i);
    return curve;
}

std::vector<double>
ScalingSurface::memCurve(size_t cu_i, size_t core_i) const
{
    std::vector<double> curve(space_.numMemClk());
    for (size_t i = 0; i < space_.numMemClk(); ++i)
        curve[i] = perfAt(cu_i, core_i, i);
    return curve;
}

std::vector<double>
ScalingSurface::cuCurveAtMax() const
{
    return cuCurve(space_.numCoreClk() - 1, space_.numMemClk() - 1);
}

std::vector<double>
ScalingSurface::freqCurveAtMax() const
{
    return freqCurve(space_.numCu() - 1, space_.numMemClk() - 1);
}

std::vector<double>
ScalingSurface::memCurveAtMax() const
{
    return memCurve(space_.numCu() - 1, space_.numCoreClk() - 1);
}

void
ScalingSurface::curvesAtMax(std::vector<double> &cu, std::vector<double> &freq,
                            std::vector<double> &mem) const
{
    const size_t max_cu = space_.numCu() - 1;
    const size_t max_core = space_.numCoreClk() - 1;
    const size_t max_mem = space_.numMemClk() - 1;
    cu.resize(space_.numCu());
    for (size_t i = 0; i < cu.size(); ++i)
        cu[i] = perfAt(i, max_core, max_mem);
    freq.resize(space_.numCoreClk());
    for (size_t i = 0; i < freq.size(); ++i)
        freq[i] = perfAt(max_cu, i, max_mem);
    mem.resize(space_.numMemClk());
    for (size_t i = 0; i < mem.size(); ++i)
        mem[i] = perfAt(max_cu, max_core, i);
}

double
ScalingSurface::bestPerf() const
{
    return 1.0 / *std::min_element(runtimes().begin(), runtimes().end());
}

double
ScalingSurface::worstPerf() const
{
    return 1.0 / *std::max_element(runtimes().begin(), runtimes().end());
}

double
ScalingSurface::perfRange() const
{
    return bestPerf() / worstPerf();
}

double
ScalingSurface::robustPerfRange(double tail_percent) const
{
    const double lo = percentile(runtimes(), tail_percent);
    const double hi = percentile(runtimes(), 100.0 - tail_percent);
    return hi / lo;
}

std::vector<double>
ScalingSurface::clockPlane(size_t cu_i) const
{
    std::vector<double> plane;
    plane.reserve(space_.numCoreClk() * space_.numMemClk());
    for (size_t c = 0; c < space_.numCoreClk(); ++c) {
        for (size_t m = 0; m < space_.numMemClk(); ++m)
            plane.push_back(perfAt(cu_i, c, m));
    }
    return plane;
}

} // namespace scaling
} // namespace gpuscale
