/**
 * @file
 * Tests for ScalingSurface.
 */

#include "scaling/surface.hh"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "base/logging.hh"

namespace gpuscale {
namespace scaling {
namespace {

/** A synthetic surface: runtime = K / (cus * core * mem). */
ScalingSurface
idealSurface()
{
    const ConfigSpace space = ConfigSpace::testGrid();
    std::vector<double> runtimes(space.size());
    for (size_t i = 0; i < space.size(); ++i) {
        const auto cfg = space.at(i);
        runtimes[i] = 1e9 / (cfg.num_cus * cfg.core_clk_mhz *
                             cfg.mem_clk_mhz);
    }
    return ScalingSurface("synthetic/ideal/k", space,
                          std::move(runtimes));
}

TEST(SurfaceTest, AccessorsAgree)
{
    const ScalingSurface s = idealSurface();
    const auto &space = s.space();
    for (size_t cu = 0; cu < space.numCu(); ++cu) {
        for (size_t c = 0; c < space.numCoreClk(); ++c) {
            for (size_t m = 0; m < space.numMemClk(); ++m) {
                EXPECT_DOUBLE_EQ(s.perfAt(cu, c, m),
                                 1.0 / s.runtimeAt(cu, c, m));
            }
        }
    }
}

TEST(SurfaceTest, CurvesHaveAxisLengths)
{
    const ScalingSurface s = idealSurface();
    EXPECT_EQ(s.cuCurveAtMax().size(), s.space().numCu());
    EXPECT_EQ(s.freqCurveAtMax().size(), s.space().numCoreClk());
    EXPECT_EQ(s.memCurveAtMax().size(), s.space().numMemClk());
}

TEST(SurfaceTest, IdealCurvesScaleProportionally)
{
    const ScalingSurface s = idealSurface();
    const auto cu = s.cuCurveAtMax();
    EXPECT_NEAR(cu.back() / cu.front(), 11.0, 1e-9);
    const auto freq = s.freqCurveAtMax();
    EXPECT_NEAR(freq.back() / freq.front(), 5.0, 1e-9);
    const auto mem = s.memCurveAtMax();
    EXPECT_NEAR(mem.back() / mem.front(), 1250.0 / 150.0, 1e-9);
}

TEST(SurfaceTest, BestWorstAndRange)
{
    const ScalingSurface s = idealSurface();
    EXPECT_GT(s.bestPerf(), s.worstPerf());
    EXPECT_NEAR(s.perfRange(), 11.0 * 5.0 * (1250.0 / 150.0), 1e-6);
}

TEST(SurfaceTest, SlicesAtArbitraryIndices)
{
    const ScalingSurface s = idealSurface();
    // Curve at the min of the other axes still has the right ratio.
    const auto cu_lo = s.cuCurve(0, 0);
    EXPECT_NEAR(cu_lo.back() / cu_lo.front(), 11.0, 1e-9);
}

TEST(SurfaceTest, ClockPlaneRowMajor)
{
    const ScalingSurface s = idealSurface();
    const auto plane = s.clockPlane(0);
    const auto &space = s.space();
    ASSERT_EQ(plane.size(), space.numCoreClk() * space.numMemClk());
    EXPECT_DOUBLE_EQ(plane[0 * space.numMemClk() + 1],
                     s.perfAt(0, 0, 1));
    EXPECT_DOUBLE_EQ(plane[2 * space.numMemClk() + 0],
                     s.perfAt(0, 2, 0));
}


TEST(SurfaceTest, RobustRangeIgnoresOutliers)
{
    const ConfigSpace space = ConfigSpace::testGrid();
    std::vector<double> runtimes(space.size(), 1.0);
    runtimes[3] = 0.2; // one spuriously fast sample
    const ScalingSurface s("synthetic/outlier/k", space,
                           std::move(runtimes));
    // The raw range sees the outlier; the robust range does not.
    EXPECT_NEAR(s.perfRange(), 5.0, 1e-9);
    EXPECT_NEAR(s.robustPerfRange(5.0), 1.0, 1e-9);
}

TEST(SurfaceTest, RobustRangeTracksRealSensitivity)
{
    const ScalingSurface s = idealSurface();
    // A genuinely sensitive surface keeps a large robust range.
    EXPECT_GT(s.robustPerfRange(), 20.0);
    EXPECT_LE(s.robustPerfRange(), s.perfRange());
}

class SurfaceErrorTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLogThrowOnTerminate(true); }
    void TearDown() override { setLogThrowOnTerminate(false); }
};

TEST_F(SurfaceErrorTest, SizeMismatchIsFatal)
{
    const ConfigSpace space = ConfigSpace::testGrid();
    EXPECT_THROW(ScalingSurface("k", space, {1.0, 2.0}),
                 std::runtime_error);
}

TEST_F(SurfaceErrorTest, NonPositiveRuntimeIsFatal)
{
    const ConfigSpace space = ConfigSpace::testGrid();
    // NaN and +inf are rejected like 0; NaN would slip past a plain
    // `<= 0` check.
    for (const double bad : {0.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
        std::vector<double> runtimes(space.size(), 1.0);
        runtimes[5] = bad;
        EXPECT_THROW(ScalingSurface("k", space, std::move(runtimes)),
                     std::runtime_error)
            << bad;
    }
}

} // namespace
} // namespace scaling
} // namespace gpuscale
