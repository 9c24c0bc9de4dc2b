#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

TailPick
tailPick(std::vector<double> samples)
{
    // Tail shares in parts per million, so rank arithmetic stays
    // exact integer math (0.99 * 1000 is not 990 in binary).
    struct Rung {
        double percentile;
        uint64_t tail_ppm;
    };
    static constexpr Rung kLadder[] = {
        {99.999, 10},    {99.99, 100},    {99.95, 500},
        {99.9, 1000},    {99.5, 5000},    {99.0, 10000},
        {95.0, 50000},   {90.0, 100000},  {75.0, 250000},
        {50.0, 500000},
    };

    TailPick pick;
    pick.samples = samples.size();
    if (samples.empty())
        return pick;
    std::sort(samples.begin(), samples.end());
    const uint64_t n = samples.size();
    for (const Rung &rung : kLadder) {
        const uint64_t beyond = n * rung.tail_ppm / 1000000;
        if (beyond >= kMinBeyond || rung.tail_ppm == 500000) {
            pick.percentile = rung.percentile;
            pick.beyond = beyond;
            pick.value = samples[n - beyond - 1];
            return pick;
        }
    }
    return pick;
}

OpenLoopSummary
summarize(const std::vector<RequestTiming> &timings)
{
    OpenLoopSummary s;
    s.attempted = timings.size();
    s.latency_ms.reserve(timings.size());
    s.lag_ms.reserve(timings.size());
    for (const RequestTiming &t : timings) {
        if (t.sent_ns != 0)
            s.lag_ms.push_back(static_cast<double>(t.sent_ns - t.due_ns) *
                               1e-6);
        switch (t.outcome) {
          case Outcome::Ok:
            ++s.ok;
            s.latency_ms.push_back(
                static_cast<double>(t.done_ns - t.due_ns) * 1e-6);
            break;
          case Outcome::Refused:
            ++s.refused;
            break;
          case Outcome::Failed:
            ++s.failed;
            break;
          case Outcome::TimedOut:
            ++s.timed_out;
            break;
        }
    }
    if (s.attempted > 0) {
        s.error_share =
            static_cast<double>(s.refused + s.failed + s.timed_out) /
            static_cast<double>(s.attempted);
    }
    return s;
}

std::vector<int64_t>
poissonSchedule(double rate_per_s, double seconds, gpuscale::Rng &rng)
{
    std::vector<int64_t> due;
    const double horizon_ns = seconds * 1e9;
    double t = 0.0;
    for (;;) {
        // 1 - u lies in (0, 1], so the log is finite.
        t += -std::log(1.0 - rng.uniform()) / rate_per_s * 1e9;
        if (t >= horizon_ns)
            return due;
        due.push_back(static_cast<int64_t>(t));
    }
}

uint64_t
mixSeed(uint64_t seed, uint64_t index)
{
    uint64_t z = seed + (index + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace perfbench
