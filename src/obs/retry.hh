/**
 * @file
 * Bounded retry with jittered exponential backoff.
 *
 * Transient I/O faults (a busy NFS server, an injected
 * FaultKind::IoError) deserve a few re-attempts before the caller
 * degrades; deterministic failures (corrupt data) do not and must not
 * go through here.  The helper owns the loop, the sleep schedule, and
 * the retry.{attempts,exhausted} accounting, so every call site
 * degrades the same observable way.
 *
 * Backoff is exponential with multiplicative jitter: attempt k sleeps
 * base * multiplier^k milliseconds, capped at max_backoff_ms and then
 * scaled by a uniform factor in [1-jitter, 1+jitter] so a herd of
 * workers retrying the same broken disk does not stampede in phase.
 */

#ifndef GPUSCALE_OBS_RETRY_HH
#define GPUSCALE_OBS_RETRY_HH

#include <chrono>
#include <functional>

namespace gpuscale {
namespace obs {

/** Retry schedule knobs. */
struct RetryPolicy {
    int max_attempts = 3;        ///< total tries, including the first
    double base_backoff_ms = 1.0;
    double multiplier = 4.0;
    double max_backoff_ms = 50.0;
    double jitter = 0.5;         ///< +- fraction applied to each sleep

    /**
     * The built-in defaults overridden by
     * GPUSCALE_RETRY="attempts[:base_ms[:max_ms]]", each _ms value at
     * most kMaxDurationMs (one day).  A malformed value warns and
     * keeps the defaults — retry tuning is advisory, unlike
     * GPUSCALE_FAULTS which must parse or exit.
     */
    static RetryPolicy fromEnv();
};

/**
 * The process-wide policy the harness I/O paths consult.  Initialized
 * lazily from fromEnv(); setRetryPolicy() overrides it (tests use
 * max_attempts=1 to make every injected fault exhaust immediately).
 */
RetryPolicy retryPolicy();
void setRetryPolicy(const RetryPolicy &policy);

/**
 * Run op() until it returns true or the policy's attempts run out.
 * Counts each re-attempt in retry.attempts and a final failure in
 * retry.exhausted.  Exceptions from op() propagate immediately — a
 * throwing operation is a crash under test, not a transient.
 *
 * @param what short label for the warn() on exhaustion.
 * @return true when some attempt succeeded.
 */
bool retryWithBackoff(const RetryPolicy &policy, const char *what,
                      const std::function<bool()> &op);

/**
 * Deadline-capped variant: the total elapsed budget binds as well as
 * the attempt count.  The first attempt always runs (even with the
 * deadline already past — a dead request still deserves one try so a
 * healthy operation is never skipped outright); re-attempts run only
 * while time remains, and each backoff sleep is clipped to the
 * remaining budget so the loop can never overshoot the deadline by
 * more than one op() call.  A loop ended by the clock rather than the
 * attempt count counts retry.deadline.capped alongside
 * retry.exhausted.
 *
 * The service uses this for request-scoped cache/journal/socket I/O:
 * retries must never outlive the request deadline they serve
 * (docs/service.md).
 */
bool retryWithBackoff(const RetryPolicy &policy, const char *what,
                      std::chrono::steady_clock::time_point deadline,
                      const std::function<bool()> &op);

} // namespace obs
} // namespace gpuscale

#endif // GPUSCALE_OBS_RETRY_HH
