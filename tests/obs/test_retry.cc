/**
 * @file
 * Retry-with-backoff tests: attempt accounting, exhaustion, metric
 * deltas, and exception transparency.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <stdexcept>

#include "obs/metrics.hh"
#include "obs/retry.hh"

namespace gpuscale {
namespace {

uint64_t
counterValue(const char *name)
{
    return obs::Registry::instance().counter(name).value();
}

obs::RetryPolicy
fastPolicy(int attempts)
{
    obs::RetryPolicy policy;
    policy.max_attempts = attempts;
    policy.base_backoff_ms = 0.0;
    policy.max_backoff_ms = 0.0;
    return policy;
}

TEST(Retry, FirstTrySuccessMakesOneAttemptAndNoRetryMetrics)
{
    const uint64_t attempts0 = counterValue("retry.attempts");
    const uint64_t exhausted0 = counterValue("retry.exhausted");

    int calls = 0;
    EXPECT_TRUE(obs::retryWithBackoff(fastPolicy(3), "test-op",
                                      [&] { return ++calls > 0; }));
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(counterValue("retry.attempts"), attempts0);
    EXPECT_EQ(counterValue("retry.exhausted"), exhausted0);
}

TEST(Retry, TransientFailureSucceedsAfterRetries)
{
    const uint64_t attempts0 = counterValue("retry.attempts");
    const uint64_t exhausted0 = counterValue("retry.exhausted");

    int calls = 0;
    EXPECT_TRUE(obs::retryWithBackoff(fastPolicy(3), "test-op",
                                      [&] { return ++calls >= 3; }));
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(counterValue("retry.attempts"), attempts0 + 2);
    EXPECT_EQ(counterValue("retry.exhausted"), exhausted0);
}

TEST(Retry, ExhaustionReturnsFalseAndCounts)
{
    const uint64_t exhausted0 = counterValue("retry.exhausted");

    int calls = 0;
    EXPECT_FALSE(obs::retryWithBackoff(fastPolicy(3), "test-op", [&] {
        ++calls;
        return false;
    }));
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(counterValue("retry.exhausted"), exhausted0 + 1);
}

TEST(Retry, SingleAttemptPolicyNeverRetries)
{
    const uint64_t attempts0 = counterValue("retry.attempts");

    int calls = 0;
    EXPECT_FALSE(obs::retryWithBackoff(fastPolicy(1), "test-op", [&] {
        ++calls;
        return false;
    }));
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(counterValue("retry.attempts"), attempts0);
}

TEST(Retry, ExceptionsPropagateImmediately)
{
    int calls = 0;
    EXPECT_THROW(obs::retryWithBackoff(fastPolicy(3), "test-op",
                                       [&]() -> bool {
                                           ++calls;
                                           throw std::runtime_error(
                                               "not transient");
                                       }),
                 std::runtime_error);
    // A throwing operation is a crash under test, not a transient:
    // exactly one call, no retry loop.
    EXPECT_EQ(calls, 1);
}

TEST(Retry, DeadlineOverloadSucceedsWithinBudget)
{
    const uint64_t capped0 = counterValue("retry.deadline.capped");

    int calls = 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
    EXPECT_TRUE(obs::retryWithBackoff(fastPolicy(3), "test-op",
                                      deadline,
                                      [&] { return ++calls >= 2; }));
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(counterValue("retry.deadline.capped"), capped0);
}

TEST(Retry, DeadlineOverloadAlwaysRunsFirstAttempt)
{
    // An already-expired deadline still gets one try — the operation
    // may succeed instantly, and a zero-attempt "failure" would be
    // indistinguishable from a broken op.
    int calls = 0;
    const auto past = std::chrono::steady_clock::now() -
                      std::chrono::seconds(1);
    EXPECT_TRUE(obs::retryWithBackoff(fastPolicy(3), "test-op", past,
                                      [&] { return ++calls > 0; }));
    EXPECT_EQ(calls, 1);
}

TEST(Retry, DeadlineCapsRetriesAndCounts)
{
    const uint64_t capped0 = counterValue("retry.deadline.capped");
    const uint64_t exhausted0 = counterValue("retry.exhausted");

    // A generous attempt budget but an expired clock: one attempt,
    // then the deadline — not max_attempts — ends the loop.
    int calls = 0;
    const auto past = std::chrono::steady_clock::now() -
                      std::chrono::seconds(1);
    EXPECT_FALSE(obs::retryWithBackoff(fastPolicy(100), "test-op",
                                       past, [&] {
                                           ++calls;
                                           return false;
                                       }));
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(counterValue("retry.deadline.capped"), capped0 + 1);
    EXPECT_EQ(counterValue("retry.exhausted"), exhausted0 + 1);
}

TEST(Retry, ProcessPolicyIsOverridable)
{
    const obs::RetryPolicy saved = obs::retryPolicy();
    obs::RetryPolicy one = saved;
    one.max_attempts = 1;
    obs::setRetryPolicy(one);
    EXPECT_EQ(obs::retryPolicy().max_attempts, 1);
    obs::setRetryPolicy(saved);
    EXPECT_EQ(obs::retryPolicy().max_attempts, saved.max_attempts);
}

TEST(Retry, FromEnvParsesAttemptsAndKeepsDefaultsOnJunk)
{
    const obs::RetryPolicy defaults;
    ASSERT_EQ(::setenv("GPUSCALE_RETRY", "5:2", 1), 0);
    EXPECT_EQ(obs::RetryPolicy::fromEnv().max_attempts, 5);
    EXPECT_EQ(obs::RetryPolicy::fromEnv().base_backoff_ms, 2.0);
    // An attempt count past int's range, or a backoff past one day,
    // warns and keeps the defaults rather than being cast or slept.
    for (const char *junk : {"1e300", "2147483648", "1.5", "0",
                             "2:1e300:1e300", "2:1:inf"}) {
        ASSERT_EQ(::setenv("GPUSCALE_RETRY", junk, 1), 0);
        EXPECT_EQ(obs::RetryPolicy::fromEnv().max_attempts,
                  defaults.max_attempts)
            << junk;
    }
    ASSERT_EQ(::unsetenv("GPUSCALE_RETRY"), 0);
}

} // namespace
} // namespace gpuscale
