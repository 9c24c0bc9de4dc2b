/**
 * @file
 * Small numerical utilities: regression fits, summary statistics, and
 * curve diagnostics used by the scaling-shape classifier.
 */

#ifndef GPUSCALE_BASE_MATH_UTIL_HH
#define GPUSCALE_BASE_MATH_UTIL_HH

#include <cstddef>
#include <span>
#include <vector>

namespace gpuscale {

/** Result of an ordinary least-squares line fit y = slope*x + intercept. */
struct LinearFit {
    double slope = 0.0;
    double intercept = 0.0;
    /** Coefficient of determination in [0, 1]; 1 means a perfect fit. */
    double r2 = 0.0;
};

/**
 * Ordinary least-squares fit of y against x.
 *
 * @param x sample abscissae; must have the same size as y and >= 2
 *          distinct values.
 * @param y sample ordinates.
 */
LinearFit linearFit(std::span<const double> x, std::span<const double> y);

/**
 * Power-law fit y = a * x^b computed as a line fit in log-log space.
 * All inputs must be strictly positive.  Returned slope is the exponent
 * b, intercept is ln(a), r2 is measured in log space.
 */
LinearFit logLogFit(std::span<const double> x, std::span<const double> y);

/** Arithmetic mean; 0 for an empty span. */
double mean(std::span<const double> v);

/** Population standard deviation; 0 for spans of size < 2. */
double stddev(std::span<const double> v);

/** Geometric mean; all inputs must be > 0; 0 for an empty span. */
double geomean(std::span<const double> v);

/**
 * Where percentile() reads: the order statistics at `lo` and `hi`
 * (ascending ranks), with weight `frac` on the one at `hi`.
 */
struct PercentileRank {
    size_t lo = 0;
    size_t hi = 0;
    double frac = 0.0;

    /** percentile()'s interpolation between the two statistics. */
    double
    between(double at_lo, double at_hi) const
    {
        return at_lo * (1.0 - frac) + at_hi * frac;
    }
};

/** The ranks percentile() reads in n >= 1 values at p in [0, 100]. */
PercentileRank percentileRank(size_t n, double p);

/**
 * Linear-interpolated percentile, p in [0, 100].  Linear time: the two
 * order statistics it interpolates between are found by selection on
 * a copy of the span, and equal what a full sort would place there.
 * The copy goes into a per-thread buffer that keeps its capacity, so
 * repeated calls on spans of one size allocate nothing.
 */
double percentile(std::span<const double> v, double p);

/** Pearson correlation coefficient; 0 if either side is constant. */
double pearson(std::span<const double> x, std::span<const double> y);

/**
 * Fraction of adjacent steps that are non-decreasing, treating steps
 * within +/- tol (relative to the larger magnitude) as flat and
 * counting them as non-decreasing.  1.0 means fully monotone
 * non-decreasing; 0.0 fully decreasing.
 */
double monotoneIncreasingFraction(std::span<const double> v,
                                  double tol = 1e-9);

/**
 * Scale a curve so its first element is 1.0 (speedup-normalization).
 * The first element must be nonzero.
 */
std::vector<double> normalizeToFirst(std::span<const double> v);

/** Scale values into [0, 1] by min/max; constant input maps to 0. */
std::vector<double> normalize01(std::span<const double> v);

/** Index of the maximum element; requires a non-empty span. */
size_t argmax(std::span<const double> v);

/** Index of the minimum element; requires a non-empty span. */
size_t argmin(std::span<const double> v);

/** Clamp helper kept for readability at call sites. */
double clamp01(double v);

/** True when |a-b| <= tol * max(1, |a|, |b|). */
bool nearlyEqual(double a, double b, double tol = 1e-9);

} // namespace gpuscale

#endif // GPUSCALE_BASE_MATH_UTIL_HH
