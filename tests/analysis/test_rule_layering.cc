/**
 * @file
 * Layering rule tests against the miniature fixture repos.
 */

#include <gtest/gtest.h>

#include "analysis_test_util.hh"

namespace {

using namespace gpuscale::analysis;
using namespace gpuscale::analysis::test;

TEST(RuleLayering, CleanRepoHasNoFindings)
{
    const auto repo = loadFixture("layering_clean");
    ASSERT_EQ(repo.files.size(), 3u);
    const auto report = runRule(*makeLayeringRule(), repo);
    EXPECT_EQ(report.findings().size(), 0u) << report.render();
}

TEST(RuleLayering, LowerLayerIncludingHigherIsAnError)
{
    const auto repo = loadFixture("layering_violation");
    const auto report = runRule(*makeLayeringRule(), repo);
    ASSERT_EQ(findingCount(report, "layering"), 1u) << report.render();
    const auto &f = report.findings()[0];
    EXPECT_EQ(f.file, "src/base/bad.cc");
    EXPECT_TRUE(anyMessageContains(report, "harness"))
        << report.render();
}

TEST(RuleLayering, HeaderCycleIsDetected)
{
    const auto repo = loadFixture("layering_cycle");
    const auto report = runRule(*makeLayeringRule(), repo);
    EXPECT_GE(findingCount(report, "layering"), 1u) << report.render();
    EXPECT_TRUE(anyMessageContains(report, "cycle")) << report.render();
}

} // namespace
