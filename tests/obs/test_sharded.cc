/**
 * @file
 * Unit tests for the striping behind every Counter and Histogram:
 * merge correctness under contention, shard pinning, the registry
 * quiesce switch, and — under TSan — resetAll() racing concurrent
 * record()/inc() without a data race.
 */

#include "obs/metrics.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

namespace gpuscale {
namespace obs {
namespace {

TEST(ShardedLayoutTest, ShardCountIsBoundedPowerOfTwo)
{
    const unsigned n = shardCount();
    EXPECT_GE(n, 4u);
    EXPECT_LE(n, 64u);
    EXPECT_EQ(n & (n - 1), 0u) << "shard count must be a power of two";
    // Fixed for the process lifetime.
    EXPECT_EQ(shardCount(), n);
}

TEST(ShardedLayoutTest, HomeShardIsStableAndInRange)
{
    const unsigned mine = currentShard();
    EXPECT_LT(mine, shardCount());
    EXPECT_EQ(currentShard(), mine);
}

TEST(ShardedLayoutTest, ThreadShardHintPinsModuloShardCount)
{
    // The harness thread pool pins each worker to its spawn ordinal;
    // the hint must wrap rather than index out of range.
    unsigned observed = ~0u;
    std::thread t([&observed]() {
        setThreadShardHint(1);
        observed = currentShard();
    });
    t.join();
    EXPECT_EQ(observed, 1u % shardCount());

    unsigned wrapped = ~0u;
    std::thread u([&wrapped]() {
        setThreadShardHint(shardCount() + 2);
        wrapped = currentShard();
    });
    u.join();
    EXPECT_EQ(wrapped, 2u % shardCount());
}

TEST(ShardedMergeTest, CounterIncrementsMergeExactly)
{
    Counter &c = Registry::instance().counter(
        "test.sharded.concurrent_counter", "test counter");
    c.reset();

    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c, t]() {
            setThreadShardHint(static_cast<unsigned>(t));
            for (uint64_t i = 0; i < kPerThread; ++i)
                c.inc();
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(c.value(), kThreads * kPerThread);

    // Per-shard values must account for every increment and show the
    // pinned threads spread across shards (not all on one stripe).
    const std::vector<uint64_t> per_shard = c.shardValues();
    ASSERT_EQ(per_shard.size(), shardCount());
    uint64_t total = 0;
    size_t active = 0;
    for (uint64_t v : per_shard) {
        total += v;
        if (v != 0)
            ++active;
    }
    EXPECT_EQ(total, kThreads * kPerThread);
    EXPECT_GE(active, std::min<size_t>(kThreads, shardCount()));
}

TEST(ShardedMergeTest, HistogramStatisticsMergeAcrossShards)
{
    Histogram &h = Registry::instance().histogram(
        "test.sharded.histogram", "test histogram");
    h.reset();
    EXPECT_TRUE(h.empty());
    EXPECT_TRUE(std::isnan(h.minSample()));
    EXPECT_TRUE(std::isnan(h.maxSample()));
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);

    constexpr int kThreads = 8;
    constexpr int kPerThread = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t]() {
            setThreadShardHint(static_cast<unsigned>(t));
            for (int i = 0; i < kPerThread; ++i)
                h.record(1e-6 * (t + 1));
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(h.count(),
              static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_FALSE(h.empty());
    EXPECT_DOUBLE_EQ(h.minSample(), 1e-6);
    EXPECT_DOUBLE_EQ(h.maxSample(), 8e-6);
    const double expected_sum =
        kPerThread * 1e-6 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8);
    EXPECT_NEAR(h.sum(), expected_sum, expected_sum * 1e-9);
    EXPECT_NEAR(h.mean(), expected_sum / h.count(),
                expected_sum * 1e-9);
    // The merged percentile lands within log-bucket resolution of the
    // true order statistics.
    EXPECT_NEAR(h.percentile(50), 4e-6, 2e-6);
    EXPECT_GE(h.percentile(0), 1e-6);
    EXPECT_LE(h.percentile(100), 8e-6);

    const std::vector<uint64_t> counts = h.shardCounts();
    ASSERT_EQ(counts.size(), shardCount());
    uint64_t total = 0;
    for (uint64_t v : counts)
        total += v;
    EXPECT_EQ(total, h.count());
}

TEST(ShardedQuiesceTest, QuiescedInstrumentsDropUpdates)
{
    auto &reg = Registry::instance();
    Counter &c = reg.counter("test.sharded.quiesce.counter",
                             "test counter");
    // The sweep cache's hit counter: quiesce covers every counter,
    // not only the census hot loop's.
    Counter &hits =
        reg.counter("sweep.cache.hits", "sweep-cache lookups served");
    Histogram &h =
        reg.histogram("test.sharded.quiesce.hist", "test histogram");
    c.reset();
    hits.reset();
    h.reset();

    Registry::setQuiesced(true);
    c.inc(5);
    hits.inc(5);
    h.record(1e-3);
    Registry::setQuiesced(false);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(hits.value(), 0u);
    EXPECT_TRUE(h.empty());

    c.inc(5);
    hits.inc(5);
    h.record(1e-3);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(hits.value(), 5u);
    EXPECT_EQ(h.count(), 1u);
}

// The TSan target for the reset race: resetAll() walks every
// registered instrument while writer threads keep hammering
// inc()/record().  All stores are relaxed atomics, so there is no
// happens-before edge to assert on — the test's contract is simply
// "no data race and no torn merge" under the sanitizer, plus the
// post-join invariant that a final reset leaves everything empty.
TEST(ShardedResetRaceTest, ResetAllRacesConcurrentRecordsCleanly)
{
    auto &reg = Registry::instance();
    Counter &c = reg.counter("test.sharded.reset_race.counter",
                             "test counter");
    Histogram &h = reg.histogram("test.sharded.reset_race.hist",
                                 "test histogram");

    std::atomic<bool> stop{false};
    constexpr int kWriters = 4;
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
        writers.emplace_back([&, t]() {
            setThreadShardHint(static_cast<unsigned>(t));
            while (!stop.load(std::memory_order_relaxed)) {
                c.inc();
                h.record(1e-6);
            }
        });
    }
    for (int i = 0; i < 200; ++i) {
        reg.resetAll();
        // A snapshot taken mid-race must stay internally sane: the
        // merge never manufactures values no writer produced.
        const double max = h.maxSample();
        EXPECT_TRUE(std::isnan(max) || max == 1e-6);
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto &t : writers)
        t.join();

    reg.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_TRUE(h.empty());
    EXPECT_TRUE(std::isnan(h.minSample()));
}

} // namespace
} // namespace obs
} // namespace gpuscale
