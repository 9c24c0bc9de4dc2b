/**
 * @file
 * Sample statistics the benchmark reports: medians, the tail rule,
 * and the open-loop accounting of due time, generator lag and errors.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/random.hh"

namespace perfbench {

/** Median of the samples (mean of the middle two); 0 when empty. */
double median(std::vector<double> samples);

/**
 * The tail a run can resolve: the highest percentile on a fixed
 * ladder (p50, p75, p90, p95, p99, p99.5, p99.9, p99.95, p99.99,
 * p99.999) that has at least kMinBeyond samples strictly above its
 * rank.  With fewer than 2 * kMinBeyond samples no rung qualifies and
 * the median is reported with however few samples lie beyond it.
 */
struct TailPick {
    double percentile = 0.0; ///< e.g. 99.9
    double value = 0.0;      ///< the sample at that rank
    size_t beyond = 0;       ///< samples strictly above the rank
    size_t samples = 0;      ///< sample count the pick was made from
};

constexpr size_t kMinBeyond = 10;

TailPick tailPick(std::vector<double> samples);

/** How one open-loop request ended. */
enum class Outcome {
    Ok,       ///< answered with an ok frame
    Refused,  ///< answered with a typed error (shed, deadline, ...)
    Failed,   ///< transport failure or unparseable frame
    TimedOut, ///< no answer before the drain window closed
};

/** One open-loop request, timed against its schedule. */
struct RequestTiming {
    int64_t due_ns = 0;  ///< when the schedule said to send it
    int64_t sent_ns = 0; ///< when the generator actually sent it
    int64_t done_ns = 0; ///< when its answer arrived (0 if none)
    Outcome outcome = Outcome::TimedOut;
};

/** Open-loop totals. */
struct OpenLoopSummary {
    size_t attempted = 0;
    size_t ok = 0;
    size_t refused = 0;
    size_t failed = 0;
    size_t timed_out = 0;
    /** (refused + failed + timed out) / attempted; 0 when idle. */
    double error_share = 0.0;
    /** Due-to-answer latency of every ok request, ms. */
    std::vector<double> latency_ms;
    /** Due-to-send lag of every sent request, ms. */
    std::vector<double> lag_ms;
};

/**
 * Account an open-loop run.  Latency runs from the due time, not the
 * send time, so a generator or server stall is charged to every
 * request it delayed.
 */
OpenLoopSummary summarize(const std::vector<RequestTiming> &timings);

/**
 * Poisson arrival times (ns from the schedule start) at `rate_per_s`
 * over `seconds`, drawn from `rng`: the same seed gives the same
 * schedule.
 */
std::vector<int64_t> poissonSchedule(double rate_per_s, double seconds,
                                     gpuscale::Rng &rng);

/** SplitMix64 step: derives independent per-op seeds from one seed. */
uint64_t mixSeed(uint64_t seed, uint64_t index);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
