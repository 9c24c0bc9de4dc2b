/**
 * @file
 * Tests of the benchmark's own helpers: the tail rule, open-loop
 * due-time latency and generator lag, error_share accounting, the
 * answer-frame verdicts and the seeded schedule.
 *
 *   python3 perfbench/run.py --self-test
 */

#include <cmath>
#include <cstdio>

#include "open_loop.hh"
#include "spans.hh"
#include "stats.hh"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                      \
    do {                                                                 \
        if (!(cond)) {                                                   \
            std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__,  \
                         __LINE__, #cond);                               \
            ++failures;                                                  \
        }                                                                \
    } while (0)

std::vector<double>
oneToN(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(static_cast<double>(i));
    return v;
}

void
testMedian()
{
    CHECK(median({}) == 0.0);
    CHECK(median({3.0, 1.0, 2.0}) == 2.0);
    CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void
testTailRule()
{
    // 1000 samples: p99 leaves exactly 10 beyond, p99.5 only 5.
    TailPick p = tailPick(oneToN(1000));
    CHECK(p.percentile == 99.0);
    CHECK(p.beyond == 10);
    CHECK(p.value == 990.0);
    CHECK(p.samples == 1000);

    // 999 samples: p99 would leave 9, so the rule falls to p95.
    p = tailPick(oneToN(999));
    CHECK(p.percentile == 95.0);
    CHECK(p.beyond == 49);
    CHECK(p.value == 950.0);

    // 100000 samples reach p99.99 (10 beyond).
    p = tailPick(oneToN(100000));
    CHECK(p.percentile == 99.99);
    CHECK(p.beyond == 10);
    CHECK(p.value == 99990.0);

    // Too few samples for any rung: the median, with what lies beyond.
    p = tailPick(oneToN(7));
    CHECK(p.percentile == 50.0);
    CHECK(p.beyond == 3);
    CHECK(p.value == 4.0);

    p = tailPick({});
    CHECK(p.samples == 0);

    // Every qualifying pick leaves at least kMinBeyond samples above.
    for (size_t n = 20; n < 3000; n += 37) {
        p = tailPick(oneToN(n));
        CHECK(p.beyond >= kMinBeyond);
        CHECK(p.value == static_cast<double>(n - p.beyond));
    }
}

void
testDueTimeLatencyAndLag()
{
    // Sent 3 ms late, answered 1 ms after the send: the request waited
    // 4 ms from its due time, and the generator lagged 3 ms.
    RequestTiming late;
    late.due_ns = 10000000;
    late.sent_ns = 13000000;
    late.done_ns = 14000000;
    late.outcome = Outcome::Ok;
    RequestTiming prompt;
    prompt.due_ns = 20000000;
    prompt.sent_ns = 20000000;
    prompt.done_ns = 20500000;
    prompt.outcome = Outcome::Ok;

    const OpenLoopSummary s = summarize({late, prompt});
    CHECK(s.latency_ms.size() == 2);
    CHECK(std::fabs(s.latency_ms[0] - 4.0) < 1e-12);
    CHECK(std::fabs(s.latency_ms[1] - 0.5) < 1e-12);
    CHECK(s.lag_ms.size() == 2);
    CHECK(std::fabs(s.lag_ms[0] - 3.0) < 1e-12);
    CHECK(s.lag_ms[1] == 0.0);
    CHECK(s.error_share == 0.0);
}

void
testErrorShare()
{
    // 10 attempted: 6 ok, 2 refused (shed), 1 transport failure,
    // 1 never answered and never sent.
    std::vector<RequestTiming> t(10);
    for (size_t i = 0; i < 10; ++i) {
        t[i].due_ns = static_cast<int64_t>(i + 1) * 1000;
        t[i].sent_ns = t[i].due_ns;
        t[i].done_ns = t[i].due_ns + 100;
        t[i].outcome = Outcome::Ok;
    }
    t[2].outcome = Outcome::Refused;
    t[5].outcome = Outcome::Refused;
    t[7].outcome = Outcome::Failed;
    t[9].outcome = Outcome::TimedOut;
    t[9].sent_ns = 0;
    t[9].done_ns = 0;

    const OpenLoopSummary s = summarize(t);
    CHECK(s.attempted == 10);
    CHECK(s.ok == 6);
    CHECK(s.refused == 2);
    CHECK(s.failed == 1);
    CHECK(s.timed_out == 1);
    CHECK(std::fabs(s.error_share - 0.4) < 1e-12);
    // Refused requests are fast; they must not flatter the latency.
    CHECK(s.latency_ms.size() == 6);
    // The unsent request has no lag sample.
    CHECK(s.lag_ms.size() == 9);
    CHECK(summarize({}).error_share == 0.0);
}

void
testFrameVerdicts()
{
    CHECK(classifyFrame("{\"id\":3,\"ok\":true,\"result\":{}}") ==
          Outcome::Ok);
    CHECK(classifyFrame("{\"id\":3,\"ok\":false,\"error\":{\"code\":"
                        "\"RETRY_AFTER\"}}") == Outcome::Refused);
    CHECK(classifyFrame("{\"id\":3,\"ok\":tru") == Outcome::Failed);
    CHECK(classifyFrame("") == Outcome::Failed);
}

void
testSchedule()
{
    gpuscale::Rng a(7), b(7), c(8);
    const auto sa = poissonSchedule(1000.0, 2.0, a);
    const auto sb = poissonSchedule(1000.0, 2.0, b);
    const auto sc = poissonSchedule(1000.0, 2.0, c);
    CHECK(sa == sb);
    CHECK(sa != sc);
    CHECK(sa.size() > 1800 && sa.size() < 2200);
    for (size_t i = 1; i < sa.size(); ++i)
        CHECK(sa[i] >= sa[i - 1]);
    CHECK(sa.back() < 2000000000);
    CHECK(mixSeed(1, 0) != mixSeed(1, 1));
    CHECK(mixSeed(1, 0) == mixSeed(1, 0));
}

void
testSpanCoverage()
{
    SpanRecorder rec;
    const int32_t op = rec.add(Span{"op", 0, 1000000, -1, 1});
    rec.add(Span{"a", 0, 600000, op, 1});
    rec.add(Span{"b", 600000, 900000, op, 1});
    const auto cov = rec.childCoveragePct("op");
    CHECK(cov.size() == 1);
    CHECK(std::fabs(cov[0] - 90.0) < 1e-9);
    CHECK(rec.durationsMs("a").size() == 1);
    CHECK(std::fabs(rec.durationsMs("a")[0] - 0.6) < 1e-12);

    // Scopes nest by open order.
    SpanRecorder live;
    {
        SpanScope outer(&live, "outer", 9);
        SpanScope inner(&live, "inner", 9);
    }
    CHECK(live.spans().size() == 2);
    CHECK(live.spans()[1].parent == 0);
    CHECK(live.spans()[0].end_ns >= live.spans()[1].end_ns);
    SpanScope off(nullptr, "ignored", 0); // untraced: a no-op
}

} // namespace

int
main()
{
    testMedian();
    testTailRule();
    testDueTimeLatencyAndLag();
    testErrorShare();
    testFrameVerdicts();
    testSchedule();
    testSpanCoverage();
    if (failures != 0) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::puts("perfbench helper tests passed");
    return 0;
}
