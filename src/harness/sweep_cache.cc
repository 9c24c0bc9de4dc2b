/**
 * @file
 * SweepCache implementation.  The disk layer is the durable store
 * (checkpoint.hh) in the role below, so shared filesystems that time
 * out and files that truncate or corrupt go through the store's
 * retry-then-degrade policy: a counted miss or a dropped write, never
 * an abort.
 */

#include "sweep_cache.hh"

#include "base/string_util.hh"
#include "checkpoint.hh"
#include "obs/metrics.hh"

namespace gpuscale {
namespace harness {

namespace {

/** Cached instrument references for the cache hot path. */
struct CacheMetrics {
    obs::Counter &hits;
    obs::Counter &misses;
    obs::Gauge &entries;

    static CacheMetrics &
    get()
    {
        static CacheMetrics m{
            obs::Registry::instance().counter(
                "sweep.cache.hits", "sweep-cache lookups served"),
            obs::Registry::instance().counter(
                "sweep.cache.misses", "sweep-cache lookups recomputed"),
            obs::Registry::instance().gauge(
                "sweep.cache.entries", "in-memory sweep-cache entries"),
        };
        return m;
    }
};

/** The disk layer's role in the durable store. */
const StoreRole &
diskRole()
{
    obs::Registry &registry = obs::Registry::instance();
    static const StoreRole role{
        "sweep-cache.journal",
        "sweep_cache.dir",
        "sweep_cache.disk.read",
        "sweep_cache.disk.write",
        registry.counter("sweep.cache.disk.writes",
                         "sweep-cache entries appended to the disk "
                         "layer"),
        registry.counter("sweep.cache.disk.hits",
                         "sweep-cache hits served from the disk layer"),
        registry.counter("sweep.cache.corrupt",
                         "corrupt disk records discarded (degraded to "
                         "miss)"),
        nullptr,
    };
    return role;
}

void
appendDouble(std::string &out, double v)
{
    out += formatDoubleShortest(v);
    out += ';';
}

} // namespace

SweepCache &
SweepCache::instance()
{
    static SweepCache cache;
    return cache;
}

std::string
SweepCache::keyFor(const gpu::PerfModel &model,
                   const gpu::KernelDesc &kernel,
                   const gpu::ConfigGrid &grid)
{
    const std::string model_fp = model.fingerprint();
    if (model_fp.empty())
        return "";

    std::string key = "model=";
    key += model_fp;
    key += "|kernel=";
    key += kernel.name;
    key += ';';
    // Every descriptor field is a model input, so every field is part
    // of the identity — including ones only some models read.
    key += std::to_string(kernel.num_workgroups);
    key += ';';
    key += std::to_string(kernel.work_items_per_wg);
    key += ';';
    key += std::to_string(kernel.launches);
    key += ';';
    appendDouble(key, kernel.valu_ops);
    appendDouble(key, kernel.salu_ops_per_wave);
    appendDouble(key, kernel.sfu_ops);
    appendDouble(key, kernel.mem_loads);
    appendDouble(key, kernel.mem_stores);
    appendDouble(key, kernel.bytes_per_access);
    appendDouble(key, kernel.coalescing);
    appendDouble(key, kernel.lds_ops);
    appendDouble(key, kernel.lds_bytes_per_wg);
    key += std::to_string(kernel.vgprs);
    key += ';';
    appendDouble(key, kernel.branch_divergence);
    appendDouble(key, kernel.barriers);
    appendDouble(key, kernel.l1_reuse);
    appendDouble(key, kernel.l2_reuse);
    appendDouble(key, kernel.footprint_bytes_per_wg);
    appendDouble(key, kernel.shared_footprint_bytes);
    appendDouble(key, kernel.mlp);
    appendDouble(key, kernel.serial_fraction);
    appendDouble(key, kernel.atomic_ops);
    appendDouble(key, kernel.atomic_contention);
    appendDouble(key, kernel.host_overhead_us);
    key += "|";
    key += grid.fingerprint();
    return key;
}

bool
SweepCache::lookup(const std::string &key, std::vector<double> &runtimes)
{
    CacheMetrics &metrics = CacheMetrics::get();
    if (key.empty()) {
        metrics.misses.inc();
        return false;
    }

    std::shared_ptr<CensusJournal> disk;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            runtimes = it->second;
            metrics.hits.inc();
            return true;
        }
        disk = disk_;
    }

    if (disk != nullptr && disk->lookup(key, runtimes)) {
        std::lock_guard<std::mutex> lock(mutex_);
        rememberLocked(key, runtimes);
        metrics.hits.inc();
        return true;
    }

    metrics.misses.inc();
    return false;
}

void
SweepCache::insert(const std::string &key,
                   const std::vector<double> &runtimes)
{
    if (key.empty())
        return;
    std::shared_ptr<CensusJournal> disk;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        rememberLocked(key, runtimes);
        disk = disk_;
    }
    if (disk != nullptr) {
        // Flushed at once so other processes see the entry; the
        // memory layer keeps it either way.
        disk->record(key, runtimes);
        disk->flush();
    }
}

void
SweepCache::rememberLocked(const std::string &key,
                           const std::vector<double> &runtimes)
{
    auto it = map_.find(key);
    if (it != map_.end()) {
        it->second = runtimes;
        return;
    }
    while (map_.size() >= kMaxEntries) {
        map_.erase(fifo_.front());
        fifo_.pop_front();
    }
    map_.emplace(key, runtimes);
    fifo_.push_back(key);
    CacheMetrics::get().entries.set(static_cast<double>(map_.size()));
}

void
SweepCache::setDirectory(const std::string &dir)
{
    std::shared_ptr<CensusJournal> disk;
    if (!dir.empty()) {
        // The keys carry the model and grid fingerprints, so the
        // store pins neither.
        disk = std::make_shared<CensusJournal>(dir, "*", "*",
                                               diskRole());
        if (!disk->active())
            disk.reset();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    disk_.swap(disk);
}

void
SweepCache::clear()
{
    std::shared_ptr<CensusJournal> disk;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        map_.clear();
        fifo_.clear();
        CacheMetrics::get().entries.set(0.0);
        disk = disk_;
    }
    if (disk != nullptr)
        disk->reload();
}

size_t
SweepCache::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
}

} // namespace harness
} // namespace gpuscale
