/**
 * @file
 * ScalingSurface implementation.
 */

#include "surface.hh"

#include <algorithm>
#include <array>
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
perfRange(std::span<const double> rt)
{
    panic_if(rt.empty(), "perf range of no runtimes");
    // bestPerf() / worstPerf(), with both extremes from one pass.
    // Eight independent min and max chains instead of one dependent
    // chain; min and max are exact, so the order they combine in
    // cannot change the result.
    constexpr size_t kLanes = 8;
    std::array<double, kLanes> lo;
    std::array<double, kLanes> hi;
    lo.fill(rt[0]);
    hi.fill(rt[0]);
    size_t i = 0;
    for (; i + kLanes <= rt.size(); i += kLanes) {
        for (size_t l = 0; l < kLanes; ++l) {
            lo[l] = std::min(lo[l], rt[i + l]);
            hi[l] = std::max(hi[l], rt[i + l]);
        }
    }
    for (; i < rt.size(); ++i) {
        lo[0] = std::min(lo[0], rt[i]);
        hi[0] = std::max(hi[0], rt[i]);
    }
    const double fastest = *std::min_element(lo.begin(), lo.end());
    const double slowest = *std::max_element(hi.begin(), hi.end());
    return (1.0 / fastest) / (1.0 / slowest);
}

RobustTails
robustTails(std::span<const double> rt, double tail_percent)
{
    panic_if(rt.empty(), "robust tails of no runtimes");
    const size_t n = rt.size();
    const PercentileRank lo = percentileRank(n, tail_percent);
    const PercentileRank hi = percentileRank(n, 100.0 - tail_percent);

    // Both tails from one buffer in one pass.  Pivots come from an
    // evenly strided sample: p_lo a few sample ranks above the low
    // tail, p_hi as far below the high one.  The pass writes every
    // value <= p_lo to the front of the buffer and every value >=
    // p_hi to the back, so the front holds the smallest values and
    // the back the largest, each at its own rank's index.  When the
    // pivots bracket the ranks percentile() reads, selection runs on
    // the two short ends alone; otherwise it runs percentile().
    constexpr size_t kSample = 64;
    if (n >= 4 * kSample) {
        std::array<double, kSample> sample;
        for (size_t i = 0; i < kSample; ++i)
            sample[i] = rt[i * n / kSample];
        // Sample ranks of the pivots: the share of values each tail
        // needs plus a margin, at most half the sample.
        auto margin = [&](size_t needed) {
            return std::min(kSample / 2 - 1, needed * kSample / n + 4);
        };
        const size_t r_lo = margin(lo.hi + 1);
        const size_t r_hi = kSample - 1 - margin(n - hi.lo);
        std::nth_element(sample.begin(), sample.begin() + r_lo,
                         sample.end());
        std::nth_element(sample.begin() + r_lo + 1,
                         sample.begin() + r_hi, sample.end());
        const double p_lo = sample[r_lo];
        const double p_hi = sample[r_hi];

        thread_local std::vector<double> work;
        work.resize(n);
        size_t front = 0;
        size_t back = n;
        if (p_lo < p_hi) {
            // No value goes to both ends, so front < back before
            // every write.
            for (const double x : rt) {
                work[front] = x;
                work[back - 1] = x;
                front += x <= p_lo ? 1 : 0;
                back -= x >= p_hi ? 1 : 0;
            }
        }
        if (lo.hi < front && back <= hi.lo) {
            const auto w = work.begin();
            std::nth_element(w, w + lo.lo, w + front);
            const double low =
                lo.between(w[lo.lo], *std::min_element(w + lo.hi, w + front));
            std::nth_element(w + back, w + hi.lo, work.end());
            const double high = hi.between(
                w[hi.lo], *std::min_element(w + hi.hi, work.end()));
            return {low, high};
        }
    }
    return {percentile(rt, tail_percent),
            percentile(rt, 100.0 - tail_percent)};
}

double
robustPerfRange(std::span<const double> rt, double tail_percent)
{
    const RobustTails tails = robustTails(rt, tail_percent);
    return tails.high / tails.low;
}

double
ScalingSurface::perfRange() const
{
    return scaling::perfRange(runtimes());
}

double
ScalingSurface::robustPerfRange(double tail_percent) const
{
    return scaling::robustPerfRange(runtimes(), tail_percent);
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
