/**
 * @file
 * Implementation of numerical utilities.
 */

#include "math_util.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace gpuscale {

LinearFit
linearFit(std::span<const double> x, std::span<const double> y)
{
    panic_if(x.size() != y.size(),
             "linearFit: size mismatch (%zu vs %zu)", x.size(), y.size());
    panic_if(x.size() < 2, "linearFit: need at least 2 samples");

    const double n = static_cast<double>(x.size());
    double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
    for (size_t i = 0; i < x.size(); ++i) {
        sx += x[i];
        sy += y[i];
        sxx += x[i] * x[i];
        sxy += x[i] * y[i];
        syy += y[i] * y[i];
    }

    const double denom = n * sxx - sx * sx;
    LinearFit fit;
    if (std::abs(denom) < 1e-300) {
        // All x identical: degenerate; report a flat line through the mean.
        fit.slope = 0.0;
        fit.intercept = sy / n;
        fit.r2 = 0.0;
        return fit;
    }

    fit.slope = (n * sxy - sx * sy) / denom;
    fit.intercept = (sy - fit.slope * sx) / n;

    const double ss_tot = syy - sy * sy / n;
    if (ss_tot < 1e-300) {
        // y is constant; the flat fit explains it perfectly.
        fit.r2 = 1.0;
        return fit;
    }
    double ss_res = 0;
    for (size_t i = 0; i < x.size(); ++i) {
        const double e = y[i] - (fit.slope * x[i] + fit.intercept);
        ss_res += e * e;
    }
    fit.r2 = std::max(0.0, 1.0 - ss_res / ss_tot);
    return fit;
}

LinearFit
logLogFit(std::span<const double> x, std::span<const double> y)
{
    panic_if(x.size() != y.size(),
             "logLogFit: size mismatch (%zu vs %zu)", x.size(), y.size());
    std::vector<double> lx(x.size()), ly(y.size());
    for (size_t i = 0; i < x.size(); ++i) {
        panic_if(x[i] <= 0 || y[i] <= 0,
                 "logLogFit: non-positive sample at %zu (%g, %g)",
                 i, x[i], y[i]);
        lx[i] = std::log(x[i]);
        ly[i] = std::log(y[i]);
    }
    return linearFit(lx, ly);
}

double
mean(std::span<const double> v)
{
    if (v.empty())
        return 0.0;
    double s = 0;
    for (double e : v)
        s += e;
    return s / static_cast<double>(v.size());
}

double
stddev(std::span<const double> v)
{
    if (v.size() < 2)
        return 0.0;
    const double m = mean(v);
    double s = 0;
    for (double e : v)
        s += (e - m) * (e - m);
    return std::sqrt(s / static_cast<double>(v.size()));
}

double
geomean(std::span<const double> v)
{
    if (v.empty())
        return 0.0;
    double s = 0;
    for (double e : v) {
        panic_if(e <= 0, "geomean: non-positive sample %g", e);
        s += std::log(e);
    }
    return std::exp(s / static_cast<double>(v.size()));
}

PercentileRank
percentileRank(size_t n, double p)
{
    panic_if(n == 0, "percentile of empty span");
    panic_if(p < 0 || p > 100, "percentile %g out of [0,100]", p);
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    PercentileRank r;
    r.lo = static_cast<size_t>(std::floor(rank));
    r.hi = std::min(r.lo + 1, n - 1);
    r.frac = rank - static_cast<double>(r.lo);
    return r;
}

double
percentile(std::span<const double> v, double p)
{
    const PercentileRank r = percentileRank(v.size(), p);
    if (v.size() == 1)
        return v[0];
    // Selection, not a sort: nth_element puts the lo-th order
    // statistic at lo with nothing smaller after it, so the hi-th is
    // the minimum of [hi, n).  These are the two values a sorted copy
    // holds at lo and hi, so the interpolation is bitwise the same.
    thread_local std::vector<double> work;
    work.assign(v.begin(), v.end());
    std::nth_element(work.begin(), work.begin() + r.lo, work.end());
    return r.between(work[r.lo],
                     *std::min_element(work.begin() + r.hi, work.end()));
}

double
pearson(std::span<const double> x, std::span<const double> y)
{
    panic_if(x.size() != y.size(),
             "pearson: size mismatch (%zu vs %zu)", x.size(), y.size());
    if (x.size() < 2)
        return 0.0;
    const double mx = mean(x);
    const double my = mean(y);
    double sxy = 0, sxx = 0, syy = 0;
    for (size_t i = 0; i < x.size(); ++i) {
        sxy += (x[i] - mx) * (y[i] - my);
        sxx += (x[i] - mx) * (x[i] - mx);
        syy += (y[i] - my) * (y[i] - my);
    }
    if (sxx < 1e-300 || syy < 1e-300)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

double
monotoneIncreasingFraction(std::span<const double> v, double tol)
{
    if (v.size() < 2)
        return 1.0;
    size_t good = 0;
    for (size_t i = 1; i < v.size(); ++i) {
        // Tolerance is relative to the local magnitude so curves of
        // any scale (seconds vs. 1/seconds) are treated alike.
        const double scale =
            std::max(std::abs(v[i]), std::abs(v[i - 1]));
        if (v[i] >= v[i - 1] - tol * scale)
            ++good;
    }
    return static_cast<double>(good) / static_cast<double>(v.size() - 1);
}

std::vector<double>
normalizeToFirst(std::span<const double> v)
{
    panic_if(v.empty(), "normalizeToFirst of empty span");
    panic_if(v[0] == 0.0, "normalizeToFirst: first element is zero");
    std::vector<double> out(v.size());
    for (size_t i = 0; i < v.size(); ++i)
        out[i] = v[i] / v[0];
    return out;
}

std::vector<double>
normalize01(std::span<const double> v)
{
    std::vector<double> out(v.size(), 0.0);
    if (v.empty())
        return out;
    const auto [mn_it, mx_it] = std::minmax_element(v.begin(), v.end());
    const double mn = *mn_it, mx = *mx_it;
    if (mx - mn < 1e-300)
        return out;
    for (size_t i = 0; i < v.size(); ++i)
        out[i] = (v[i] - mn) / (mx - mn);
    return out;
}

size_t
argmax(std::span<const double> v)
{
    panic_if(v.empty(), "argmax of empty span");
    return static_cast<size_t>(
        std::max_element(v.begin(), v.end()) - v.begin());
}

size_t
argmin(std::span<const double> v)
{
    panic_if(v.empty(), "argmin of empty span");
    return static_cast<size_t>(
        std::min_element(v.begin(), v.end()) - v.begin());
}

double
clamp01(double v)
{
    return std::clamp(v, 0.0, 1.0);
}

bool
nearlyEqual(double a, double b, double tol)
{
    return std::abs(a - b) <=
           tol * std::max({1.0, std::abs(a), std::abs(b)});
}

} // namespace gpuscale
