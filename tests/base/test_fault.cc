/**
 * @file
 * Fault injector tests: plan parsing, seeded determinism, the three
 * fault kinds, prefix globs, and the observer hook.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "base/fault.hh"

namespace gpuscale {
namespace {

/** Disarm around every test so plans never leak between cases. */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().disarm(); }
    void TearDown() override
    {
        FaultInjector::instance().setObserver(nullptr);
        FaultInjector::instance().disarm();
    }
};

TEST_F(FaultTest, ParsesFullPlanGrammar)
{
    std::string error;
    const auto plan = parseFaultPlan(
        "sweep_cache.disk.read:0.1:io, sweep.kernel:1:delay:20",
        &error);
    ASSERT_TRUE(plan.has_value()) << error;
    ASSERT_EQ(plan->size(), 2u);

    EXPECT_EQ((*plan)[0].site, "sweep_cache.disk.read");
    EXPECT_DOUBLE_EQ((*plan)[0].rate, 0.1);
    EXPECT_EQ((*plan)[0].kind, FaultKind::IoError);

    EXPECT_EQ((*plan)[1].site, "sweep.kernel");
    EXPECT_DOUBLE_EQ((*plan)[1].rate, 1.0);
    EXPECT_EQ((*plan)[1].kind, FaultKind::Delay);
    EXPECT_DOUBLE_EQ((*plan)[1].delay_ms, 20.0);
}

TEST_F(FaultTest, KindDefaultsToThrowAndEmptyPlanIsEmpty)
{
    std::string error;
    const auto plan = parseFaultPlan("a.site:0.5", &error);
    ASSERT_TRUE(plan.has_value()) << error;
    ASSERT_EQ(plan->size(), 1u);
    EXPECT_EQ((*plan)[0].kind, FaultKind::Exception);
    EXPECT_DOUBLE_EQ((*plan)[0].delay_ms, 0.0);

    const auto empty = parseFaultPlan("  ", &error);
    ASSERT_TRUE(empty.has_value()) << error;
    EXPECT_TRUE(empty->empty());
}

TEST_F(FaultTest, RejectsMalformedPlans)
{
    const std::vector<std::string> bad = {
        "nonsense",          // no rate field at all
        "site:1.5",          // rate outside [0, 1]
        "site:-0.1",         // negative rate
        ":0.5",              // empty site
        "site:0.5:bogus",    // unknown kind
        "site:0.5:io:10",    // delay_ms on a non-delay kind
        "site:1:delay:-3",   // negative delay
        "s:1:delay:1e300",   // delay past one day
        "s:1:delay:inf",     // unbounded delay
        "site:1:delay:3:x",  // too many fields
    };
    for (const auto &text : bad) {
        std::string error;
        EXPECT_FALSE(parseFaultPlan(text, &error).has_value()) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST_F(FaultTest, SameSeedFiresAtTheSameProbeOrdinals)
{
    auto &inj = FaultInjector::instance();
    const std::vector<FaultSpec> plan = {
        {"det.site", 0.3, FaultKind::IoError, 0.0}};

    auto pattern = [&](uint64_t seed) {
        inj.arm(plan, seed);
        std::vector<bool> fired;
        for (int i = 0; i < 200; ++i)
            fired.push_back(faultPoint("det.site"));
        return fired;
    };

    const auto a = pattern(7);
    const auto b = pattern(7);
    EXPECT_EQ(a, b);

    // Roughly rate * probes fire; exact equality with run b is the
    // determinism claim, the count just guards against all-or-nothing.
    const size_t hits = std::count(a.begin(), a.end(), true);
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, a.size());

    EXPECT_NE(pattern(8), a);
}

TEST_F(FaultTest, ExceptionKindThrowsAndCounts)
{
    auto &inj = FaultInjector::instance();
    inj.arm({{"boom", 1.0, FaultKind::Exception, 0.0}}, 0);
    EXPECT_THROW(faultPoint("boom"), FaultInjectedError);
    EXPECT_EQ(inj.fired(FaultKind::Exception), 1u);
    EXPECT_EQ(inj.firedTotal(), 1u);
}

TEST_F(FaultTest, DelayKindSleepsThenProceeds)
{
    auto &inj = FaultInjector::instance();
    inj.arm({{"slow", 1.0, FaultKind::Delay, 1.0}}, 0);
    // The probe returns false: the operation proceeds after the stall.
    EXPECT_FALSE(faultPoint("slow"));
    EXPECT_EQ(inj.fired(FaultKind::Delay), 1u);
}

TEST_F(FaultTest, PrefixGlobMatchesSitesUnderThePrefix)
{
    auto &inj = FaultInjector::instance();
    inj.arm({{"glob.*", 1.0, FaultKind::IoError, 0.0}}, 0);
    EXPECT_TRUE(faultPoint("glob.alpha"));
    EXPECT_TRUE(faultPoint("glob.beta.gamma"));
    EXPECT_FALSE(faultPoint("other.site"));
    EXPECT_EQ(inj.fired(FaultKind::IoError), 2u);
}

TEST_F(FaultTest, DisarmRestoresTheZeroCostPath)
{
    auto &inj = FaultInjector::instance();
    inj.arm({{"gone", 1.0, FaultKind::IoError, 0.0}}, 0);
    ASSERT_TRUE(inj.armed());
    inj.disarm();
    EXPECT_FALSE(inj.armed());
    EXPECT_FALSE(faultPoint("gone"));
}

TEST_F(FaultTest, ObserverSeesEveryFiredFault)
{
    static std::atomic<int> io_seen{0};
    static std::atomic<int> other_seen{0};
    io_seen = 0;
    other_seen = 0;

    auto &inj = FaultInjector::instance();
    inj.setObserver(+[](FaultKind kind, const char *) {
        (kind == FaultKind::IoError ? io_seen : other_seen)
            .fetch_add(1);
    });
    inj.arm({{"watched", 1.0, FaultKind::IoError, 0.0}}, 0);
    faultPoint("watched");
    faultPoint("watched");
    faultPoint("unmatched");
    EXPECT_EQ(io_seen.load(), 2);
    EXPECT_EQ(other_seen.load(), 0);
}

} // namespace
} // namespace gpuscale
