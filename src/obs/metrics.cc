/**
 * @file
 * Metrics registry implementation.
 */

#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>

#include "base/logging.hh"
#include "base/string_util.hh"
#include "json.hh"

namespace gpuscale {
namespace obs {

namespace {

/** Round up to the next power of two (shard masks stay cheap). */
unsigned
nextPow2(unsigned v)
{
    unsigned p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

unsigned
computeShardCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned want = nextPow2(hw == 0 ? 4 : hw);
    return std::min(64u, std::max(4u, want));
}

/** Deals shard indices to threads that never set a hint. */
std::atomic<unsigned> shard_dealer{0};

/** This thread's home shard; kUnassigned until first use or hint. */
constexpr unsigned kUnassigned = ~0u;
thread_local unsigned t_home_shard = kUnassigned;

/** Relaxed CAS accumulate for atomic doubles (sums across threads). */
void
atomicAdd(std::atomic<double> &slot, double delta)
{
    double cur = slot.load(std::memory_order_relaxed);
    while (!slot.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
    }
}

/** CAS-update an atomic double with a monotone min/max combiner. */
template <typename Cmp>
void
atomicExtreme(std::atomic<double> &slot, double v, Cmp better)
{
    double cur = slot.load(std::memory_order_relaxed);
    while (better(v, cur)) {
        if (slot.compare_exchange_weak(cur, v,
                                       std::memory_order_relaxed)) {
            return;
        }
    }
}

} // namespace

unsigned
shardCount()
{
    static const unsigned count = computeShardCount();
    return count;
}

unsigned
currentShard()
{
    if (t_home_shard == kUnassigned) {
        t_home_shard = shard_dealer.fetch_add(
                           1, std::memory_order_relaxed) %
                       shardCount();
    }
    return t_home_shard;
}

void
setThreadShardHint(unsigned hint)
{
    t_home_shard = hint % shardCount();
}

Counter::Counter()
    : shards_(std::make_unique<Shard[]>(shardCount()))
{
}

void
Counter::inc(uint64_t n)
{
    if (Registry::quiesced())
        return;
    shards_[currentShard()].value.fetch_add(n,
                                            std::memory_order_relaxed);
}

uint64_t
Counter::value() const
{
    uint64_t total = 0;
    for (unsigned s = 0; s < shardCount(); ++s)
        total += shards_[s].value.load(std::memory_order_relaxed);
    return total;
}

std::vector<uint64_t>
Counter::shardValues() const
{
    std::vector<uint64_t> out(shardCount());
    for (unsigned s = 0; s < shardCount(); ++s)
        out[s] = shards_[s].value.load(std::memory_order_relaxed);
    return out;
}

void
Counter::reset()
{
    for (unsigned s = 0; s < shardCount(); ++s)
        shards_[s].value.store(0, std::memory_order_relaxed);
}

void
Gauge::add(double delta)
{
    atomicAdd(value_, delta);
}

Histogram::Histogram()
    : shards_(std::make_unique<Shard[]>(shardCount()))
{
    reset();
}

size_t
Histogram::bucketIndex(double v)
{
    if (!(v >= kLo)) // NaN, negatives, and tiny values: underflow bin.
        return 0;
    if (v >= kHi)
        return kNumBuckets - 1;
    const double decades = std::log10(v / kLo);
    const auto idx = static_cast<size_t>(decades * kBucketsPerDecade);
    return 1 + std::min(idx, kDecades * kBucketsPerDecade - 1);
}

void
Histogram::record(double v)
{
    if (Registry::quiesced())
        return;
    Shard &shard = shards_[currentShard()];
    shard.buckets[bucketIndex(v)].fetch_add(1,
                                            std::memory_order_relaxed);
    shard.count.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(shard.sum, v);
    atomicExtreme(shard.min, v, [](double a, double b) { return a < b; });
    atomicExtreme(shard.max, v, [](double a, double b) { return a > b; });
}

uint64_t
Histogram::count() const
{
    uint64_t total = 0;
    for (unsigned s = 0; s < shardCount(); ++s)
        total += shards_[s].count.load(std::memory_order_relaxed);
    return total;
}

double
Histogram::sum() const
{
    double total = 0.0;
    for (unsigned s = 0; s < shardCount(); ++s)
        total += shards_[s].sum.load(std::memory_order_relaxed);
    return total;
}

double
Histogram::mean() const
{
    const uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

std::vector<uint64_t>
Histogram::shardCounts() const
{
    std::vector<uint64_t> out(shardCount());
    for (unsigned s = 0; s < shardCount(); ++s)
        out[s] = shards_[s].count.load(std::memory_order_relaxed);
    return out;
}

double
Histogram::minSample() const
{
    // +infinity is the untouched seed of every shard, i.e. no samples
    // yet; report that as NaN so an empty histogram is never mistaken
    // for one that recorded 0.0 (JSON serializes the NaN as null).
    double best = std::numeric_limits<double>::infinity();
    for (unsigned s = 0; s < shardCount(); ++s)
        best = std::min(best,
                        shards_[s].min.load(std::memory_order_relaxed));
    return std::isinf(best)
               ? std::numeric_limits<double>::quiet_NaN()
               : best;
}

double
Histogram::maxSample() const
{
    double best = -std::numeric_limits<double>::infinity();
    for (unsigned s = 0; s < shardCount(); ++s)
        best = std::max(best,
                        shards_[s].max.load(std::memory_order_relaxed));
    return std::isinf(best)
               ? std::numeric_limits<double>::quiet_NaN()
               : best;
}

double
Histogram::percentile(double p) const
{
    std::array<uint64_t, kNumBuckets> snap{};
    for (unsigned s = 0; s < shardCount(); ++s) {
        for (size_t i = 0; i < kNumBuckets; ++i)
            snap[i] += shards_[s].buckets[i].load(
                std::memory_order_relaxed);
    }
    uint64_t total = 0;
    for (size_t i = 0; i < kNumBuckets; ++i)
        total += snap[i];
    if (total == 0)
        return 0.0;

    p = std::min(100.0, std::max(0.0, p));
    // Rank of the sample we want (1-based, ceil) within the snapshot.
    const auto target = static_cast<uint64_t>(
        std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(total))));

    uint64_t cum = 0;
    size_t bucket = kNumBuckets - 1;
    for (size_t i = 0; i < kNumBuckets; ++i) {
        cum += snap[i];
        if (cum >= target) {
            bucket = i;
            break;
        }
    }

    double rep;
    if (bucket == 0) {
        rep = kLo;
    } else if (bucket == kNumBuckets - 1) {
        rep = kHi;
    } else {
        const double lo_edge =
            kLo * std::pow(10.0, static_cast<double>(bucket - 1) /
                                     kBucketsPerDecade);
        const double hi_edge =
            kLo * std::pow(10.0, static_cast<double>(bucket) /
                                     kBucketsPerDecade);
        rep = std::sqrt(lo_edge * hi_edge);
    }
    // Clamp to the observed range so tiny sample counts do not report
    // values outside what was actually recorded.  A concurrent
    // recorder may have bumped a bucket before publishing min/max
    // (still NaN); skip the clamp rather than poison the result.
    const double min_sample = minSample();
    const double max_sample = maxSample();
    if (std::isnan(min_sample) || std::isnan(max_sample))
        return rep;
    return std::min(max_sample, std::max(min_sample, rep));
}

void
Histogram::reset()
{
    for (unsigned s = 0; s < shardCount(); ++s) {
        Shard &shard = shards_[s];
        for (auto &b : shard.buckets)
            b.store(0, std::memory_order_relaxed);
        shard.count.store(0, std::memory_order_relaxed);
        shard.sum.store(0.0, std::memory_order_relaxed);
        shard.min.store(std::numeric_limits<double>::infinity(),
                        std::memory_order_relaxed);
        shard.max.store(-std::numeric_limits<double>::infinity(),
                        std::memory_order_relaxed);
    }
}

Registry &
Registry::instance()
{
    // Intentionally leaked: the registry is touched by pool workers
    // and detached threads right up to process exit, so running its
    // destructor from the atexit chain races any late increment
    // (use-after-free on the instrument maps).  An immortal instance
    // makes shutdown-order safe by construction; the OS reclaims the
    // memory.
    static Registry &registry = *new Registry();
    return registry;
}

Counter &
Registry::counter(const std::string &name, const std::string &desc)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &entry = counters_[name];
    if (!entry.instrument) {
        entry.desc = desc;
        entry.instrument = std::make_unique<Counter>();
    }
    return *entry.instrument;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &desc)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &entry = gauges_[name];
    if (!entry.instrument) {
        entry.desc = desc;
        entry.instrument = std::make_unique<Gauge>();
    }
    return *entry.instrument;
}

Histogram &
Registry::histogram(const std::string &name, const std::string &desc)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &entry = histograms_[name];
    if (!entry.instrument) {
        entry.desc = desc;
        entry.instrument = std::make_unique<Histogram>();
    }
    return *entry.instrument;
}

bool
Registry::empty() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void
Registry::writeJson(JsonWriter &w) const
{
    std::lock_guard<std::mutex> lock(mu_);
    w.beginObject();

    w.key("counters").beginObject();
    for (const auto &[name, entry] : counters_)
        w.key(name).value(entry.instrument->value());
    w.endObject();

    w.key("gauges").beginObject();
    for (const auto &[name, entry] : gauges_)
        w.key(name).value(entry.instrument->value());
    w.endObject();

    w.key("histograms").beginObject();
    for (const auto &[name, entry] : histograms_) {
        const Histogram &h = *entry.instrument;
        w.key(name).beginObject();
        w.key("count").value(h.count());
        w.key("mean").value(h.mean());
        w.key("min").value(h.minSample());
        w.key("max").value(h.maxSample());
        w.key("p50").value(h.percentile(50));
        w.key("p90").value(h.percentile(90));
        w.key("p99").value(h.percentile(99));
        w.endObject();
    }
    w.endObject();

    // Per-shard breakdowns (event counts per stripe), so balance
    // across worker threads can be audited from a snapshot file
    // (`gpuscale-stat balance`).
    w.key("shards").beginObject();
    const auto writeShards = [&w](const std::string &name,
                                  const std::vector<uint64_t> &values) {
        w.key(name).beginArray();
        for (const uint64_t v : values)
            w.value(v);
        w.endArray();
    };
    for (const auto &[name, entry] : counters_)
        writeShards(name, entry.instrument->shardValues());
    for (const auto &[name, entry] : histograms_)
        writeShards(name, entry.instrument->shardCounts());
    w.endObject();

    w.endObject();
}

std::string
Registry::snapshotJson() const
{
    std::ostringstream os;
    JsonWriter w(os);
    writeJson(w);
    return os.str();
}

namespace {

/** "sweep.cache.hits" -> "gpuscale_sweep_cache_hits". */
std::string
expositionName(const std::string &name)
{
    std::string out = "gpuscale_";
    for (const char c : name)
        out += c == '.' ? '_' : c;
    return out;
}

void
expositionHeader(std::ostream &os, const std::string &name,
                 const std::string &desc, const char *type)
{
    if (!desc.empty())
        os << "# HELP " << name << ' ' << desc << '\n';
    os << "# TYPE " << name << ' ' << type << '\n';
}

/** Summary block (quantiles, _sum, _count) for one histogram. */
void
expositionSummary(std::ostream &os, const std::string &name,
                  const std::string &desc, const Histogram &h)
{
    expositionHeader(os, name, desc, "summary");
    if (!h.empty()) {
        for (const auto &[label, p] :
             {std::pair<const char *, double>{"0.5", 50},
              {"0.9", 90},
              {"0.99", 99}})
        {
            os << name << "{quantile=\"" << label << "\"} "
               << formatDoubleShortest(h.percentile(p)) << '\n';
        }
    }
    os << name << "_sum " << formatDoubleShortest(h.sum()) << '\n';
    os << name << "_count " << h.count() << '\n';
}

} // namespace

void
Registry::writeExposition(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[name, entry] : counters_) {
        const std::string ename = expositionName(name);
        expositionHeader(os, ename, entry.desc, "counter");
        os << ename << ' ' << entry.instrument->value() << '\n';
    }
    for (const auto &[name, entry] : gauges_) {
        const std::string ename = expositionName(name);
        expositionHeader(os, ename, entry.desc, "gauge");
        os << ename << ' '
           << formatDoubleShortest(entry.instrument->value()) << '\n';
    }
    for (const auto &[name, entry] : histograms_) {
        expositionSummary(os, expositionName(name), entry.desc,
                          *entry.instrument);
    }
}

TextTable
Registry::snapshotTable() const
{
    std::lock_guard<std::mutex> lock(mu_);
    TextTable t;
    t.addColumn("metric");
    t.addColumn("kind");
    t.addColumn("value", TextTable::Align::Right);
    t.addColumn("description");

    for (const auto &[name, entry] : counters_) {
        t.beginRow();
        t.cell(name);
        t.cell("counter");
        t.cell(static_cast<int64_t>(entry.instrument->value()));
        t.cell(entry.desc);
    }
    for (const auto &[name, entry] : gauges_) {
        t.beginRow();
        t.cell(name);
        t.cell("gauge");
        t.cell(entry.instrument->value());
        t.cell(entry.desc);
    }
    for (const auto &[name, entry] : histograms_) {
        const Histogram &h = *entry.instrument;
        t.beginRow();
        t.cell(name);
        t.cell("histogram");
        t.cell(strprintf("n=%llu mean=%s p50=%s p90=%s p99=%s",
                         static_cast<unsigned long long>(h.count()),
                         formatDoubleGeneral(h.mean(), 3).c_str(),
                         formatDoubleGeneral(h.percentile(50),
                                             3).c_str(),
                         formatDoubleGeneral(h.percentile(90),
                                             3).c_str(),
                         formatDoubleGeneral(h.percentile(99),
                                             3).c_str()));
        t.cell(entry.desc);
    }
    return t;
}

void
Registry::resetAll()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[name, entry] : counters_)
        entry.instrument->reset();
    for (auto &[name, entry] : gauges_)
        entry.instrument->reset();
    for (auto &[name, entry] : histograms_)
        entry.instrument->reset();
}

} // namespace obs
} // namespace gpuscale
