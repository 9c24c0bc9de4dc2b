/**
 * @file
 * Concurrency-hygiene rule tests: raw thread primitives outside the
 * harness pool are flagged; queries, lock guards, and explicitly
 * allowed sites are not.
 */

#include <gtest/gtest.h>

#include "analysis_test_util.hh"

namespace {

using namespace gpuscale::analysis;
using namespace gpuscale::analysis::test;

TEST(RuleConcurrency, FlagsThreadDetachAndMutexOutsideHarness)
{
    const auto repo = loadFixture("concurrency_bad");
    const auto report = runRule(*makeConcurrencyRule(), repo);

    // std::thread construction, .detach(), and the std::mutex
    // declaration — and nothing else.  hardware_concurrency() and
    // lock_guard<std::mutex> in the same file must stay silent.
    EXPECT_EQ(findingCount(report, "concurrency"), 3u)
        << report.render();
    EXPECT_TRUE(anyMessageContains(report, "std::thread"))
        << report.render();
    EXPECT_TRUE(anyMessageContains(report, "detach"))
        << report.render();
    EXPECT_TRUE(anyMessageContains(report, "mutex"))
        << report.render();
}

TEST(RuleConcurrency, AllowCommentsSilenceButAreTallied)
{
    const auto repo = loadFixture("concurrency_suppressed");
    const auto report = runRule(*makeConcurrencyRule(), repo);
    EXPECT_EQ(report.findings().size(), 0u) << report.render();
    EXPECT_EQ(report.suppressedCount(), 2u);
}

} // namespace
