/**
 * @file
 * Process-wide run-telemetry metrics registry.
 *
 * obs metrics instrument the *toolkit itself* — how many model
 * estimates a sweep issued, how long each took, how balanced the
 * parallelFor workers were — and are safe to update from many
 * threads at once.
 *
 * Three instrument kinds:
 *  - Counter:   monotonically increasing uint64.
 *  - Gauge:     last-written double (atomic store).
 *  - Histogram: log-scale latency histogram with percentile
 *               extraction.
 *
 * Counters and histograms are striped.  One shared cache line that
 * every recording thread RMWs would ping-pong between cores on the
 * batched census path (267 kernels x 891 configs fanned across the
 * worker pool) and show up in the profile it was supposed to
 * observe.  So their state is split across cacheline-padded shards:
 * each thread picks a home shard once (pool workers are pinned to
 * their spawn ordinal via setThreadShardHint(); other threads are
 * dealt shards round-robin) and every inc()/record() touches only
 * that shard's lines.  Readers merge the shards at snapshot time,
 * which is rare and cheap.  Both kinds honor the registry's quiesce
 * switch (Registry::setQuiesced).
 *
 * Instruments are owned by the Registry singleton and live for the
 * process; references returned by counter()/gauge()/histogram() are
 * stable, so hot paths cache them in function-local statics and pay
 * no lookup per event.  Snapshots render to JSON (for --metrics
 * files and run manifests) or to a base/table TextTable (for
 * human-readable bench output).
 */

#ifndef GPUSCALE_OBS_METRICS_HH
#define GPUSCALE_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "base/table.hh"

namespace gpuscale {
namespace obs {

class JsonWriter;

/** Destructive-interference padding unit for shard alignment. */
constexpr size_t kCachelineBytes = 64;

/**
 * Shards per counter and histogram: a power of two, at least 4 (so
 * shard behavior is observable even on one-core hosts), at most 64,
 * sized to the hardware concurrency.  Fixed for the process lifetime.
 */
unsigned shardCount();

/**
 * The calling thread's home shard in [0, shardCount()).  Assigned
 * round-robin on first use and cached thread-locally.
 */
unsigned currentShard();

/**
 * Pin the calling thread to shard `hint % shardCount()`.  The harness
 * thread pool registers each worker with its spawn ordinal so pool
 * workers spread deterministically across shards instead of hashing
 * into collisions.
 */
void setThreadShardHint(unsigned hint);

/**
 * Monotonic event counter; inc() is one relaxed fetch_add on the
 * calling thread's home shard.
 */
class Counter
{
  public:
    Counter();
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void inc(uint64_t n = 1);

    /** Sum across shards (monotone between resets). */
    uint64_t value() const;

    /** Per-shard values, for balance diagnostics. */
    std::vector<uint64_t> shardValues() const;

    void reset();

  private:
    struct alignas(kCachelineBytes) Shard {
        std::atomic<uint64_t> value{0};
    };

    std::unique_ptr<Shard[]> shards_;
};

/** Last-value instrument (levels, ratios); set() is wait-free. */
class Gauge
{
  public:
    Gauge() = default;
    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    /** Atomic accumulate (CAS loop); for sums built across threads. */
    void add(double delta);

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Log-scale histogram for latency-like values.
 *
 * Covers [1 ns, 1000 s) with kBucketsPerDecade buckets per factor of
 * ten plus underflow/overflow bins; record() touches only the calling
 * thread's shard (two relaxed atomic RMWs plus CAS loops for the
 * sum and min/max), so concurrent recording never blocks, and every
 * read-side statistic merges a relaxed snapshot of all shards.
 * Percentiles are reconstructed from bucket boundaries (geometric
 * midpoint), i.e. accurate to about half a bucket width (~15% with 8
 * buckets/decade) — ample for telemetry.
 */
class Histogram
{
  public:
    static constexpr double kLo = 1e-9;
    static constexpr double kHi = 1e3;
    static constexpr size_t kDecades = 12;
    static constexpr size_t kBucketsPerDecade = 8;
    /** Scale buckets plus underflow (front) and overflow (back). */
    static constexpr size_t kNumBuckets =
        kDecades * kBucketsPerDecade + 2;

    Histogram();
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    /** Record one sample (thread-safe, non-blocking). */
    void record(double v);

    uint64_t count() const;
    double sum() const;
    double mean() const;

    /** True while no sample has been recorded (or since reset()). */
    bool empty() const { return count() == 0; }

    /**
     * Smallest / largest recorded sample.  While empty() these return
     * NaN — not 0.0, which a genuine record(0.0) would also produce;
     * JSON snapshots serialize the NaN as null, so "no samples" and
     * "a zero-valued sample" stay distinguishable downstream.
     */
    double minSample() const;
    double maxSample() const;

    /** Per-shard sample counts, for balance diagnostics. */
    std::vector<uint64_t> shardCounts() const;

    /**
     * Value at the given percentile (p in [0, 100]), reconstructed
     * from the bucket a merged snapshot of the counts lands in; 0
     * when empty.
     */
    double percentile(double p) const;

    void reset();

    /** Bucket index a value lands in (exposed for tests). */
    static size_t bucketIndex(double v);

  private:
    // min/max are seeded at +/-infinity (the identity of min/max) by
    // reset(), never 0.0 — a 0.0 seed would pin minSample() below
    // every positive sample.
    struct alignas(kCachelineBytes) Shard {
        std::array<std::atomic<uint64_t>, kNumBuckets> buckets;
        std::atomic<uint64_t> count{0};
        std::atomic<double> sum{0.0};
        std::atomic<double> min;
        std::atomic<double> max;
    };

    std::unique_ptr<Shard[]> shards_;
};

/**
 * The process-wide instrument registry.
 *
 * Lookup/creation takes a mutex; the returned reference is stable for
 * the life of the process.  The description passed at first
 * registration wins.
 */
class Registry
{
  public:
    static Registry &instance();

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    Counter &counter(const std::string &name,
                     const std::string &desc = "");
    Gauge &gauge(const std::string &name, const std::string &desc = "");
    Histogram &histogram(const std::string &name,
                         const std::string &desc = "");

    bool empty() const;

    /**
     * Process-wide telemetry quiesce switch: while set, every counter
     * and histogram drops inc()/record() after one relaxed load.  The
     * telemetry bench measures its instrumentation-overhead gate
     * against this baseline; production code never sets it.
     */
    static void
    setQuiesced(bool q)
    {
        quiesced_.store(q, std::memory_order_relaxed);
    }

    static bool
    quiesced()
    {
        return quiesced_.load(std::memory_order_relaxed);
    }

    /**
     * Write the current values as a JSON object value:
     * {"counters": {...}, "gauges": {...}, "histograms": {name:
     * {count,mean,min,max,p50,p90,p99}}, "shards": {name: [per-shard
     * events, ...]}}.  "shards" lists every counter's shardValues()
     * and every histogram's shardCounts().
     */
    void writeJson(JsonWriter &w) const;

    /** writeJson() into a standalone document string. */
    std::string snapshotJson() const;

    /**
     * Prometheus text-exposition rendering of the current values
     * (one "# HELP"/"# TYPE" pair per instrument; histograms as
     * summaries with 0.5/0.9/0.99 quantiles).  Metric names are
     * prefixed "gpuscale_" with dots mapped to underscores.  This is
     * the endpoint body a resident gpuscaled will serve.
     */
    void writeExposition(std::ostream &os) const;

    /** Human-readable snapshot via base/table. */
    TextTable snapshotTable() const;

    /** Zero every instrument (tests); registrations persist. */
    void resetAll();

  private:
    Registry() = default;

    template <typename T>
    struct Entry {
        std::string desc;
        std::unique_ptr<T> instrument;
    };

    // Guards instrument registration only; hot-path updates are
    // lock-free atomics.  The registration maps are tied to it by
    // guarded_by (enforced by the lock-discipline rule).
    mutable std::mutex mu_;
    // guarded_by(mu_)
    std::map<std::string, Entry<Counter>> counters_;
    // guarded_by(mu_)
    std::map<std::string, Entry<Gauge>> gauges_;
    // guarded_by(mu_)
    std::map<std::string, Entry<Histogram>> histograms_;

    static inline std::atomic<bool> quiesced_{false};
};

} // namespace obs
} // namespace gpuscale

#endif // GPUSCALE_OBS_METRICS_HH
