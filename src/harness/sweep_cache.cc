/**
 * @file
 * SweepCache implementation.  The disk layer is the durable store
 * (checkpoint.hh) in the role below, so shared filesystems that time
 * out and files that truncate or corrupt go through the store's
 * retry-then-degrade policy: a counted miss or a dropped write, never
 * an abort.
 */

#include "sweep_cache.hh"

#include <charconv>

#include "base/logging.hh"
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
    // The shortest round-trip form formatDoubleShortest() prints,
    // written in place so that a key allocates once.
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    panic_if(res.ec != std::errc(), "to_chars overflowed a key field");
    out.append(buf, res.ptr);
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
    return keyFor(model_fp, kernel, grid.fingerprint());
}

std::string
SweepCache::keyFor(const std::string &model_fingerprint,
                   const gpu::KernelDesc &kernel,
                   const std::string &grid_fingerprint)
{
    if (model_fingerprint.empty())
        return "";

    // Reserved once: each of the descriptor's 20 doubles prints in
    // at most 24 characters and each of its 4 integers in at most 20,
    // plus a separator each and 16 characters of labels.
    std::string key;
    key.reserve(model_fingerprint.size() + kernel.name.size() +
                grid_fingerprint.size() + 20 * 25 + 4 * 21 + 16);
    key += "model=";
    key += model_fingerprint;
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
    key += grid_fingerprint;
    return key;
}

SweepCache::Runtimes
SweepCache::lookupShared(const std::string &key)
{
    CacheMetrics &metrics = CacheMetrics::get();
    if (key.empty()) {
        metrics.misses.inc();
        return nullptr;
    }

    std::shared_ptr<CensusJournal> disk;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = map_.find(key);
        if (it != map_.end()) {
            metrics.hits.inc();
            return it->second;
        }
        disk = disk_;
    }

    std::vector<double> from_disk;
    if (disk != nullptr && disk->lookup(key, from_disk)) {
        Runtimes runtimes =
            std::make_shared<const std::vector<double>>(std::move(from_disk));
        Batch promoted;
        promoted.try_emplace(key, runtimes);
        link(promoted);
        metrics.hits.inc();
        return runtimes;
    }

    metrics.misses.inc();
    return nullptr;
}

void
SweepCache::insertShared(const std::string &key, const Runtimes &runtimes)
{
    Batch one;
    stage(one, key, runtimes);
    insertBatch(one);
}

void
SweepCache::stage(Batch &batch, std::string key, Runtimes runtimes)
{
    if (key.empty())
        return;
    panic_if(runtimes == nullptr, "sweep-cache insert without runtimes");
    batch.insert_or_assign(std::move(key), std::move(runtimes));
}

void
SweepCache::insertBatch(Batch &batch)
{
    if (batch.empty())
        return;
    std::shared_ptr<CensusJournal> disk;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        disk = disk_;
    }
    if (disk != nullptr) {
        // Recorded while the batch still holds its keys, and flushed
        // at once so other processes see the entries.
        try {
            for (const auto &[key, runtimes] : batch)
                disk->record(key, *runtimes);
            disk->flush();
        } catch (...) {
            link(batch);
            throw;
        }
    }
    link(batch);
}

bool
SweepCache::lookup(const std::string &key, std::vector<double> &runtimes)
{
    const Runtimes hit = lookupShared(key);
    if (hit == nullptr)
        return false;
    runtimes = *hit;
    return true;
}

void
SweepCache::insert(const std::string &key,
                   const std::vector<double> &runtimes)
{
    if (!key.empty())
        insertShared(key,
                     std::make_shared<const std::vector<double>>(runtimes));
}

void
SweepCache::link(Batch &batch)
{
    std::lock_guard<std::mutex> lock(mutex_);
    while (!batch.empty())
        linkLocked(batch.extract(batch.begin()));
}

void
SweepCache::linkLocked(Batch::node_type node)
{
    auto linked = map_.insert(std::move(node));
    if (!linked.inserted) {
        linked.position->second = std::move(linked.node.mapped());
        return;
    }
    if (map_.size() > kMaxEntries) {
        // Find, then erase by iterator: erase(key) would be handed a
        // reference into the very node it destroys.
        map_.erase(map_.find(*fifo_[fifo_head_]));
        fifo_head_ = (fifo_head_ + 1) % kMaxEntries;
    }
    fifo_[(fifo_head_ + map_.size() - 1) % kMaxEntries] =
        &linked.position->first;
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
        fifo_head_ = 0;
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
