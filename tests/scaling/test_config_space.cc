/**
 * @file
 * Tests for the configuration grid.
 */

#include "scaling/config_space.hh"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "base/logging.hh"

namespace gpuscale {
namespace scaling {
namespace {

TEST(ConfigSpaceTest, PaperGridHas891Points)
{
    const ConfigSpace space = ConfigSpace::paperGrid();
    EXPECT_EQ(space.numCu(), 11u);
    EXPECT_EQ(space.numCoreClk(), 9u);
    EXPECT_EQ(space.numMemClk(), 9u);
    EXPECT_EQ(space.size(), 891u);
}

TEST(ConfigSpaceTest, PaperGridMatchesAbstractRatios)
{
    const ConfigSpace space = ConfigSpace::paperGrid();
    EXPECT_NEAR(static_cast<double>(space.cuValues().back()) /
                    space.cuValues().front(),
                11.0, 1e-12);
    EXPECT_NEAR(space.coreClks().back() / space.coreClks().front(), 5.0,
                1e-12);
    EXPECT_NEAR(space.memClks().back() / space.memClks().front(),
                8.3333, 1e-3);
}

TEST(ConfigSpaceTest, FlattenUnflattenRoundTrip)
{
    const ConfigSpace space = ConfigSpace::paperGrid();
    for (size_t flat = 0; flat < space.size(); ++flat) {
        const auto idx = space.unflatten(flat);
        EXPECT_EQ(space.flatten(idx.cu, idx.core, idx.mem), flat);
    }
}

TEST(ConfigSpaceTest, AllConfigsDistinctAndValid)
{
    const ConfigSpace space = ConfigSpace::paperGrid();
    std::set<std::string> ids;
    for (size_t i = 0; i < space.size(); ++i) {
        const auto cfg = space.at(i);
        EXPECT_NO_THROW(cfg.validate());
        EXPECT_TRUE(ids.insert(cfg.id()).second) << cfg.id();
    }
    EXPECT_EQ(ids.size(), 891u);
}

TEST(ConfigSpaceTest, ExtremeConfigs)
{
    const ConfigSpace space = ConfigSpace::paperGrid();
    EXPECT_EQ(space.minConfig().num_cus, 4);
    EXPECT_EQ(space.maxConfig().num_cus, 44);
    EXPECT_DOUBLE_EQ(space.minConfig().core_clk_mhz, 200.0);
    EXPECT_DOUBLE_EQ(space.maxConfig().mem_clk_mhz, 1250.0);
}

TEST(ConfigSpaceTest, BaseTemplatePropagates)
{
    gpu::GpuConfig base;
    base.l2_slices = 16;
    const ConfigSpace space({4, 8}, {500}, {700}, base);
    EXPECT_EQ(space.at(0, 0, 0).l2_slices, 16);
    EXPECT_EQ(space.at(1, 0, 0).num_cus, 8);
}

TEST(ConfigSpaceTest, CopiesShareOneGrid)
{
    // A space is a view of one immutable gpu::ConfigGrid: a copy
    // hands out the very same object, whose axes are the space's.
    const ConfigSpace space = ConfigSpace::paperGrid();
    const ConfigSpace copy = space;
    EXPECT_EQ(&copy.grid(), &space.grid());
    EXPECT_EQ(copy.grid().cu_values, space.cuValues());
    EXPECT_EQ(copy.grid().core_clks_mhz, space.coreClks());
    EXPECT_EQ(copy.grid().mem_clks_mhz, space.memClks());
}

TEST(ConfigSpaceTest, TestGridIsSmallCube)
{
    const ConfigSpace space = ConfigSpace::testGrid();
    EXPECT_EQ(space.size(), 27u);
}

class ConfigSpaceErrorTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLogThrowOnTerminate(true); }
    void TearDown() override { setLogThrowOnTerminate(false); }
};

TEST_F(ConfigSpaceErrorTest, RejectsEmptyAxis)
{
    EXPECT_THROW(ConfigSpace({}, {500}, {700}), std::runtime_error);
}

TEST_F(ConfigSpaceErrorTest, RejectsNonIncreasingAxis)
{
    EXPECT_THROW(ConfigSpace({8, 4}, {500}, {700}),
                 std::runtime_error);
    EXPECT_THROW(ConfigSpace({4, 4}, {500}, {700}),
                 std::runtime_error);
}

TEST_F(ConfigSpaceErrorTest, OutOfRangeIndexPanics)
{
    const ConfigSpace space = ConfigSpace::testGrid();
    EXPECT_THROW(space.at(99), std::runtime_error);
    EXPECT_THROW(space.flatten(3, 0, 0), std::runtime_error);
}

} // namespace
} // namespace scaling
} // namespace gpuscale
