/**
 * @file
 * Retry-with-backoff implementation.
 */

#include "retry.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/string_util.hh"
#include "metrics.hh"

namespace gpuscale {
namespace obs {

namespace {

/** Cached instrument references for the retry path. */
struct RetryMetrics {
    Counter &attempts;
    Counter &exhausted;
    Counter &deadline_capped;

    static RetryMetrics &
    get()
    {
        static RetryMetrics m{
            Registry::instance().counter(
                "retry.attempts", "operations re-attempted after a "
                                  "transient failure"),
            Registry::instance().counter(
                "retry.exhausted", "operations that failed every "
                                   "retry attempt"),
            Registry::instance().counter(
                "retry.deadline.capped",
                "retry loops ended by the elapsed-time budget before "
                "the attempt count ran out"),
        };
        return m;
    }
};

/** Jitter draws; deterministic stream, shared across call sites. */
double
jitterFactor(double jitter)
{
    if (jitter <= 0.0)
        return 1.0;
    // gpuscale-lint: allow(concurrency): one short-held lock per
    // backoff sleep; retries are cold paths by definition.
    static std::mutex mutex;
    static Rng rng(0x7265747279ull); // "retry"
    std::lock_guard<std::mutex> lock(mutex);
    return rng.uniform(std::max(0.0, 1.0 - jitter), 1.0 + jitter);
}

struct PolicyState {
    // gpuscale-lint: allow(concurrency): guards the process-wide
    // policy; read from parallelFor workers, set by tests.
    std::mutex mutex;
    RetryPolicy policy;
    bool initialized = false;
};

PolicyState &
policyState()
{
    static PolicyState state;
    return state;
}

} // namespace

RetryPolicy
RetryPolicy::fromEnv()
{
    RetryPolicy policy;
    const char *text = std::getenv("GPUSCALE_RETRY");
    if (text == nullptr || *text == '\0')
        return policy;

    const auto fields = split(text, ':');
    bool ok = fields.size() >= 1 && fields.size() <= 3;
    if (ok) {
        const auto attempts = parseInteger<int>(fields[0]);
        ok = attempts && *attempts >= 1;
        if (ok)
            policy.max_attempts = *attempts;
    }
    if (ok && fields.size() >= 2) {
        const auto base = parseMilliseconds(fields[1]);
        ok = base.has_value();
        if (ok)
            policy.base_backoff_ms = *base;
    }
    if (ok && fields.size() == 3) {
        const auto cap = parseMilliseconds(fields[2]);
        ok = cap.has_value();
        if (ok)
            policy.max_backoff_ms = *cap;
    }
    if (!ok) {
        warn("GPUSCALE_RETRY: '%s' is not "
             "attempts[:base_ms[:max_ms]]; using defaults",
             text);
        return RetryPolicy{};
    }
    return policy;
}

RetryPolicy
retryPolicy()
{
    PolicyState &state = policyState();
    std::lock_guard<std::mutex> lock(state.mutex);
    if (!state.initialized) {
        state.policy = RetryPolicy::fromEnv();
        state.initialized = true;
    }
    return state.policy;
}

void
setRetryPolicy(const RetryPolicy &policy)
{
    PolicyState &state = policyState();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.policy = policy;
    state.initialized = true;
}

bool
retryWithBackoff(const RetryPolicy &policy, const char *what,
                 const std::function<bool()> &op)
{
    RetryMetrics &metrics = RetryMetrics::get();
    const int attempts = std::max(1, policy.max_attempts);
    double backoff_ms = policy.base_backoff_ms;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            metrics.attempts.inc();
            const double capped =
                std::min(backoff_ms, policy.max_backoff_ms);
            const double sleep_ms =
                capped * jitterFactor(policy.jitter);
            if (sleep_ms > 0.0) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        sleep_ms));
            }
            backoff_ms *= policy.multiplier;
        }
        if (op())
            return true;
    }
    metrics.exhausted.inc();
    warn("%s: still failing after %d attempt(s); degrading", what,
         attempts);
    return false;
}

bool
retryWithBackoff(const RetryPolicy &policy, const char *what,
                 std::chrono::steady_clock::time_point deadline,
                 const std::function<bool()> &op)
{
    using fp_ms = std::chrono::duration<double, std::milli>;
    RetryMetrics &metrics = RetryMetrics::get();
    const int attempts = std::max(1, policy.max_attempts);
    double backoff_ms = policy.base_backoff_ms;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            const double remaining_ms =
                fp_ms(deadline - std::chrono::steady_clock::now())
                    .count();
            if (remaining_ms <= 0.0) {
                // The budget, not the attempt count, ended the loop.
                metrics.deadline_capped.inc();
                metrics.exhausted.inc();
                warn("%s: still failing after %d attempt(s) and an "
                     "exhausted deadline budget; degrading",
                     what, attempt);
                return false;
            }
            metrics.attempts.inc();
            const double capped =
                std::min(backoff_ms, policy.max_backoff_ms);
            // Clip the sleep to the remaining budget so the loop
            // wakes at the deadline, not past it.
            const double sleep_ms = std::min(
                capped * jitterFactor(policy.jitter), remaining_ms);
            if (sleep_ms > 0.0)
                std::this_thread::sleep_for(fp_ms(sleep_ms));
            backoff_ms *= policy.multiplier;
        }
        if (op())
            return true;
    }
    metrics.exhausted.inc();
    warn("%s: still failing after %d attempt(s); degrading", what,
         attempts);
    return false;
}

} // namespace obs
} // namespace gpuscale
