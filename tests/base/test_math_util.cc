/**
 * @file
 * Unit and property tests for the numerical utilities.
 */

#include "base/math_util.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/random.hh"

namespace gpuscale {
namespace {

TEST(LinearFitTest, ExactLine)
{
    const std::vector<double> x{1, 2, 3, 4, 5};
    const std::vector<double> y{3, 5, 7, 9, 11}; // y = 2x + 1
    const LinearFit fit = linearFit(x, y);
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LinearFitTest, ConstantY)
{
    const std::vector<double> x{1, 2, 3};
    const std::vector<double> y{4, 4, 4};
    const LinearFit fit = linearFit(x, y);
    EXPECT_NEAR(fit.slope, 0.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 4.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LinearFitTest, NoisyLineHasHighR2)
{
    Rng rng(5);
    std::vector<double> x, y;
    for (int i = 0; i < 100; ++i) {
        x.push_back(i);
        y.push_back(3.0 * i + 2.0 + rng.normal(0.0, 1.0));
    }
    const LinearFit fit = linearFit(x, y);
    EXPECT_NEAR(fit.slope, 3.0, 0.05);
    EXPECT_GT(fit.r2, 0.99);
}

TEST(LinearFitTest, UnrelatedDataHasLowR2)
{
    Rng rng(6);
    std::vector<double> x, y;
    for (int i = 0; i < 200; ++i) {
        x.push_back(i);
        y.push_back(rng.normal(0.0, 1.0));
    }
    EXPECT_LT(linearFit(x, y).r2, 0.1);
}

TEST(LogLogFitTest, RecoversPowerLawExponent)
{
    std::vector<double> x, y;
    for (double v = 1; v <= 64; v *= 2) {
        x.push_back(v);
        y.push_back(5.0 * std::pow(v, 1.7));
    }
    const LinearFit fit = logLogFit(x, y);
    EXPECT_NEAR(fit.slope, 1.7, 1e-9);
    EXPECT_NEAR(std::exp(fit.intercept), 5.0, 1e-9);
}

TEST(SummaryStatsTest, MeanStddevGeomean)
{
    const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_NEAR(mean(v), 5.0, 1e-12);
    EXPECT_NEAR(stddev(v), 2.0, 1e-12);

    const std::vector<double> g{1, 8};
    EXPECT_NEAR(geomean(g), std::sqrt(8.0), 1e-12);
}

TEST(SummaryStatsTest, EmptyInputs)
{
    EXPECT_EQ(mean({}), 0.0);
    EXPECT_EQ(stddev({}), 0.0);
    EXPECT_EQ(geomean({}), 0.0);
}

TEST(PercentileTest, Interpolates)
{
    const std::vector<double> v{10, 20, 30, 40};
    EXPECT_NEAR(percentile(v, 0), 10.0, 1e-12);
    EXPECT_NEAR(percentile(v, 100), 40.0, 1e-12);
    EXPECT_NEAR(percentile(v, 50), 25.0, 1e-12);
    // Input order does not matter.
    const std::vector<double> u{40, 10, 30, 20};
    EXPECT_NEAR(percentile(u, 50), 25.0, 1e-12);
}

/** The textbook definition: sort a copy, interpolate lo and hi. */
double
sortedPercentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    if (v.size() == 1)
        return v[0];
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

TEST(PercentileTest, SelectionIsBitwiseTheSortedDefinition)
{
    // Sizes cover the trivial cases, the test grid (27) and the
    // paper grid (891); the p values include the 2.5/97.5 tails that
    // robustPerfRange reads.
    const size_t sizes[] = {1, 2, 3, 27, 891};
    const double ps[] = {0, 2, 2.5, 50, 97.5, 98, 100};
    Rng rng(20150101);
    for (const size_t n : sizes) {
        for (int trial = 0; trial < 4; ++trial) {
            // Even trials draw runtime-like values spanning decades;
            // odd ones draw from five values, so ties are common.
            std::vector<double> v(n);
            for (double &e : v) {
                e = trial % 2 == 0
                        ? rng.logUniform(1e-6, 1.0)
                        : 0.25 * static_cast<double>(
                                     rng.uniformInt(1, 5));
            }
            const std::vector<double> before = v;
            for (const double p : ps) {
                EXPECT_EQ(percentile(v, p), sortedPercentile(v, p))
                    << "n=" << n << " trial=" << trial << " p=" << p;
            }
            EXPECT_EQ(v, before) << "input span was modified";
        }
    }
}

TEST(PearsonTest, PerfectAndInverse)
{
    const std::vector<double> x{1, 2, 3, 4};
    const std::vector<double> up{2, 4, 6, 8};
    const std::vector<double> down{8, 6, 4, 2};
    EXPECT_NEAR(pearson(x, up), 1.0, 1e-12);
    EXPECT_NEAR(pearson(x, down), -1.0, 1e-12);
}

TEST(PearsonTest, ConstantSideIsZero)
{
    const std::vector<double> x{1, 2, 3};
    const std::vector<double> c{5, 5, 5};
    EXPECT_EQ(pearson(x, c), 0.0);
}

TEST(MonotoneFractionTest, Cases)
{
    EXPECT_EQ(monotoneIncreasingFraction(std::vector<double>{1, 2, 3}),
              1.0);
    EXPECT_EQ(monotoneIncreasingFraction(std::vector<double>{3, 2, 1}),
              0.0);
    EXPECT_NEAR(
        monotoneIncreasingFraction(std::vector<double>{1, 2, 1, 2, 3}),
        0.75, 1e-12);
    // Tiny dips within tolerance count as flat.
    EXPECT_EQ(monotoneIncreasingFraction(
                  std::vector<double>{1.0, 1.0 - 1e-12, 1.0}),
              1.0);
}

TEST(NormalizeTest, ToFirstAndTo01)
{
    const std::vector<double> v{2, 4, 8};
    const auto n1 = normalizeToFirst(v);
    EXPECT_DOUBLE_EQ(n1[0], 1.0);
    EXPECT_DOUBLE_EQ(n1[2], 4.0);

    const auto n2 = normalize01(v);
    EXPECT_DOUBLE_EQ(n2[0], 0.0);
    EXPECT_DOUBLE_EQ(n2[2], 1.0);
    EXPECT_NEAR(n2[1], 2.0 / 6.0, 1e-12);
}

TEST(NormalizeTest, ConstantInputTo01IsZero)
{
    const std::vector<double> v{3, 3, 3};
    for (double e : normalize01(v))
        EXPECT_EQ(e, 0.0);
}

TEST(ArgTest, ArgmaxArgmin)
{
    const std::vector<double> v{3, 9, 1, 9};
    EXPECT_EQ(argmax(v), 1u); // first max wins
    EXPECT_EQ(argmin(v), 2u);
}

TEST(NearlyEqualTest, RelativeTolerance)
{
    EXPECT_TRUE(nearlyEqual(1e9, 1e9 + 1, 1e-6));
    EXPECT_FALSE(nearlyEqual(1.0, 1.1, 1e-6));
    EXPECT_TRUE(nearlyEqual(0.0, 0.0));
}

/** Property: linearFit r2 is within [0, 1] for random data. */
class FitPropertyTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FitPropertyTest, R2Bounded)
{
    Rng rng(GetParam());
    std::vector<double> x, y;
    const int n = static_cast<int>(rng.uniformInt(2, 64));
    for (int i = 0; i < n; ++i) {
        x.push_back(rng.uniform(-100, 100));
        y.push_back(rng.uniform(-100, 100));
    }
    const LinearFit fit = linearFit(x, y);
    EXPECT_GE(fit.r2, 0.0);
    EXPECT_LE(fit.r2, 1.0 + 1e-12);
    EXPECT_TRUE(std::isfinite(fit.slope));
    EXPECT_TRUE(std::isfinite(fit.intercept));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FitPropertyTest,
                         ::testing::Range<uint64_t>(0, 25));

} // namespace
} // namespace gpuscale
