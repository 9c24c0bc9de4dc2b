/**
 * @file
 * FP-determinism rule tests: reassociation-prone reductions,
 * unordered-container iteration feeding arithmetic, fast-math build
 * flags, and privately duplicated arithmetic helpers are flagged;
 * blessed helper files and header-published APIs are not.
 */

#include <gtest/gtest.h>

#include "analysis_test_util.hh"

namespace {

using namespace gpuscale::analysis;
using namespace gpuscale::analysis::test;

TEST(RuleFpDeterminism, FlagsAllFourSeededHazards)
{
    const auto repo = loadFixture("fp_determinism_bad");
    const auto report = runRule(*makeFpDeterminismRule(), repo);

    // One accumulate-over-doubles, one unordered_map range-for
    // feeding '+=', one helper defined in analytic_batch.cc but
    // called from analytic_model.cc too, one -ffast-math flag in a
    // CMake list — exactly four, nothing else.
    EXPECT_EQ(findingCount(report, "fp-determinism"), 4u)
        << report.render();
    EXPECT_TRUE(anyMessageContains(report, "accumulate"))
        << report.render();
    EXPECT_TRUE(anyMessageContains(report, "unordered"))
        << report.render();
    EXPECT_TRUE(anyMessageContains(report, "occupancyTerm"))
        << report.render();
    EXPECT_TRUE(anyMessageContains(report, "-ffast-math"))
        << report.render();
}

TEST(RuleFpDeterminism, BlessedHelpersAndPublishedApisStaySilent)
{
    // math_util.cc is a blessed helper file (accumulate is its job);
    // occupancyTerm is declared in analytic_batch.hh so both TUs
    // share one definition; the tally uses an ordered std::map.
    const auto repo = loadFixture("fp_determinism_ok");
    const auto report = runRule(*makeFpDeterminismRule(), repo);
    EXPECT_EQ(report.findings().size(), 0u) << report.render();
}

} // namespace
