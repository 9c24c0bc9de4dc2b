/**
 * @file
 * Lock-discipline rule tests: a guarded_by-annotated field touched
 * without its mutex held is flagged; lock_guard/unique_lock scopes
 * and *Locked helpers are accepted; broken annotations themselves
 * become findings.
 */

#include <gtest/gtest.h>

#include "analysis_test_util.hh"

namespace {

using namespace gpuscale::analysis;
using namespace gpuscale::analysis::test;

TEST(RuleLockDiscipline, FlagsUnguardedTouchOfAnnotatedField)
{
    const auto repo = loadFixture("lock_discipline_bad");
    const auto report = runRule(*makeLockDisciplineRule(), repo);

    // Cache::put assigns value_ with no lock in scope; getLocked in
    // the same file is exempt by naming convention.
    EXPECT_EQ(findingCount(report, "lock-discipline"), 1u)
        << report.render();
    EXPECT_TRUE(anyMessageContains(report, "value_"))
        << report.render();
    EXPECT_TRUE(anyMessageContains(report, "mu_")) << report.render();
}

TEST(RuleLockDiscipline, LockScopesAndLockedSuffixAreAccepted)
{
    // put holds a lock_guard; waitNonZero touches through a nested
    // block under a unique_lock; getLocked relies on the suffix.
    const auto repo = loadFixture("lock_discipline_ok");
    const auto report = runRule(*makeLockDisciplineRule(), repo);
    EXPECT_EQ(report.findings().size(), 0u) << report.render();
}

TEST(RuleLockDiscipline, BrokenAnnotationsAreFindings)
{
    const auto repo = loadFixture("lock_discipline_markers_bad");
    const auto report = runRule(*makeLockDisciplineRule(), repo);

    // One truncated 'guarded_by(' and one naming a mutex absent
    // from the file.
    EXPECT_EQ(findingCount(report, "lock-discipline"), 2u)
        << report.render();
    EXPECT_TRUE(anyMessageContains(report, "malformed"))
        << report.render();
    EXPECT_TRUE(anyMessageContains(report, "nonexistent_mu_"))
        << report.render();

    // The compiler-style line editors jump to (docs/static_analysis.md).
    ASSERT_FALSE(report.findings().empty());
    EXPECT_EQ(report.findings()[0].render(),
              "src/obs/cache.hh:14: error: [lock-discipline] malformed "
              "guarded_by annotation (expected // guarded_by(mutex_name)) "
              "(fix: name the mutex: // guarded_by(mu_))");
}

} // namespace
