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

/**
 * Append one key field and its separator: a double in the shortest
 * round-trip form formatDoubleShortest() prints, an integer as
 * std::to_string() prints it, both written in place.
 */
template <typename T>
void
appendField(std::string &out, T v)
{
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
    std::string key;
    appendKey(key, model_fingerprint, kernel, grid_fingerprint);
    return key;
}

void
SweepCache::appendKey(std::string &out,
                      const std::string &model_fingerprint,
                      const gpu::KernelDesc &kernel,
                      const std::string &grid_fingerprint)
{
    if (model_fingerprint.empty())
        return;

    // Reserved once: each of the descriptor's 20 doubles prints in
    // at most 24 characters and each of its 4 integers in at most 20,
    // plus a separator each and 16 characters of labels.
    out.reserve(out.size() + model_fingerprint.size() +
                kernel.name.size() + grid_fingerprint.size() + 20 * 25 +
                4 * 21 + 16);
    out += "model=";
    out += model_fingerprint;
    out += "|kernel=";
    out += kernel.name;
    out += ';';
    // Every descriptor field is a model input, so every field is part
    // of the identity — including ones only some models read.
    appendField(out, kernel.num_workgroups);
    appendField(out, kernel.work_items_per_wg);
    appendField(out, kernel.launches);
    appendField(out, kernel.valu_ops);
    appendField(out, kernel.salu_ops_per_wave);
    appendField(out, kernel.sfu_ops);
    appendField(out, kernel.mem_loads);
    appendField(out, kernel.mem_stores);
    appendField(out, kernel.bytes_per_access);
    appendField(out, kernel.coalescing);
    appendField(out, kernel.lds_ops);
    appendField(out, kernel.lds_bytes_per_wg);
    appendField(out, kernel.vgprs);
    appendField(out, kernel.branch_divergence);
    appendField(out, kernel.barriers);
    appendField(out, kernel.l1_reuse);
    appendField(out, kernel.l2_reuse);
    appendField(out, kernel.footprint_bytes_per_wg);
    appendField(out, kernel.shared_footprint_bytes);
    appendField(out, kernel.mlp);
    appendField(out, kernel.serial_fraction);
    appendField(out, kernel.atomic_ops);
    appendField(out, kernel.atomic_contention);
    appendField(out, kernel.host_overhead_us);
    out += "|";
    out += grid_fingerprint;
}

SweepCache::KeyView::KeyView(const std::string &key)
    : text(key), hash(std::hash<std::string>{}(key))
{
}

SweepCache::Runtimes
SweepCache::lookupShared(const std::string &key)
{
    return lookupShared(KeyView(key));
}

SweepCache::Runtimes
SweepCache::lookupShared(const KeyView &key)
{
    CacheMetrics &metrics = CacheMetrics::get();
    if (key.text.empty()) {
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
    if (disk != nullptr && disk->lookup(key.text, from_disk)) {
        Runtimes runtimes =
            std::make_shared<const std::vector<double>>(std::move(from_disk));
        Map promoted;
        stage(promoted, key, runtimes);
        link(promoted);
        metrics.hits.inc();
        return runtimes;
    }

    metrics.misses.inc();
    return nullptr;
}

SweepCache::Runtimes
SweepCache::Shard::keep(const KeyView &key, std::vector<double> runtimes)
{
    if (store_ == nullptr) {
        // One allocation holds the control block and every slot, so
        // no vector ever moves under the aliases that point into it.
        store_ = std::make_shared<std::vector<double>[]>(capacity_);
        staged_.reserve(capacity_);
    }
    panic_if(kept_ == capacity_,
             "sweep-cache shard keeps more than its %zu vectors",
             capacity_);
    std::vector<double> &slot = store_[kept_++];
    slot = std::move(runtimes);
    Runtimes alias(store_, &slot);
    stage(staged_, key, alias);
    return alias;
}

void
SweepCache::stage(Map &staged, const KeyView &key, Runtimes runtimes)
{
    if (key.text.empty())
        return;
    panic_if(runtimes == nullptr, "sweep-cache insert without runtimes");
    staged.insert_or_assign(StoredKey{key.text, key.hash},
                            std::move(runtimes));
}

void
SweepCache::insertBatch(Shard &shard)
{
    Map &staged = shard.staged_;
    if (staged.empty())
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
            for (const auto &[key, runtimes] : staged)
                disk->record(key.text, *runtimes);
            disk->flush();
        } catch (...) {
            link(staged);
            throw;
        }
    }
    link(staged);
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
    if (key.empty())
        return;
    Shard one(1);
    one.keep(KeyView(key), runtimes);
    insertBatch(one);
}

void
SweepCache::link(Map &staged)
{
    std::lock_guard<std::mutex> lock(mutex_);
    while (!staged.empty())
        linkLocked(staged.extract(staged.begin()));
}

void
SweepCache::linkLocked(Map::node_type node)
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
