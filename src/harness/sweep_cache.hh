/**
 * @file
 * Keyed sweep cache.
 *
 * A full census sweeps the same (model, kernel, grid) triples over and
 * over: the CLI re-runs the paper grid on every invocation, the T3/T5
 * benches re-sweep identical kernels per iteration, and the A4 noise
 * study re-evaluates the clean baseline for every sigma.  The cache
 * keys a sweep's runtime vector by the model fingerprint, the complete
 * kernel descriptor, and the grid fingerprint, so any repeat is a
 * lookup instead of a recompute.
 *
 * An entry is one immutable runtime vector behind a shared pointer.
 * A cold insert and a warm hit hand that pointer over, and the
 * kernel's ScalingSurface holds the same one, so a census never
 * copies a kernel's runtimes; an evicted entry lives on in every
 * surface still holding it.  A census shard keeps the vectors it
 * computes in one store that all of its pointers alias (Shard).
 *
 * Keys are hashed once, by KeyView, before the cache lock is taken:
 * the map stores each key with its hash, so neither a lookup nor a
 * link hashes under the lock.
 *
 * Two layers:
 *  - an in-memory map (process lifetime, bounded FIFO), and
 *  - an optional disk layer (setDirectory()), which is what lets a
 *    *second CLI invocation* of the same sweep hit: the durable store
 *    of checkpoint.hh in its own role (`<dir>/sweep-cache.journal`,
 *    sweep_cache.* fault sites, sweep.cache.* counters).
 *
 * Doubles round-trip as raw bits, so a cache hit is bitwise identical
 * to the recompute it replaced.  Disk failures never fail a sweep:
 * they retry, then degrade to a counted miss or a dropped write
 * (docs/fault_tolerance.md).
 */

#ifndef GPUSCALE_HARNESS_SWEEP_CACHE_HH
#define GPUSCALE_HARNESS_SWEEP_CACHE_HH

#include <array>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "gpu/config_grid.hh"
#include "gpu/kernel_desc.hh"
#include "gpu/perf_model.hh"

namespace gpuscale {
namespace harness {

class CensusJournal;

/** Process-wide cache of sweep runtime vectors. */
class SweepCache
{
  public:
    /** One sweep's runtimes, shared and never mutated once stored. */
    using Runtimes = std::shared_ptr<const std::vector<double>>;

    /** The process-wide instance the sweep harness consults. */
    static SweepCache &instance();

    /**
     * Cache key for one sweep, or "" when the model declares itself
     * uncacheable (empty fingerprint).  Folds in every KernelDesc
     * field, so two kernels differing in any model input get distinct
     * keys even when their names collide.
     */
    static std::string keyFor(const gpu::PerfModel &model,
                              const gpu::KernelDesc &kernel,
                              const gpu::ConfigGrid &grid);

    /**
     * The same key from fingerprints taken once per sweep: given
     * model.fingerprint() and grid.fingerprint(), the bytes equal
     * keyFor(model, kernel, grid).  "" for an empty model
     * fingerprint.
     */
    static std::string keyFor(const std::string &model_fingerprint,
                              const gpu::KernelDesc &kernel,
                              const std::string &grid_fingerprint);

    /**
     * Append keyFor(model_fingerprint, kernel, grid_fingerprint) to
     * `out`; nothing for an empty model fingerprint.  The census
     * shards build each key into a per-thread buffer this way, so a
     * key allocates nothing once the buffer has grown.
     */
    static void appendKey(std::string &out,
                          const std::string &model_fingerprint,
                          const gpu::KernelDesc &kernel,
                          const std::string &grid_fingerprint);

    /**
     * A key and its hash, taken once, outside the cache lock.  The
     * text is borrowed and must outlive the view.
     */
    struct KeyView {
        explicit KeyView(const std::string &key);
        explicit KeyView(std::string &&) = delete;

        const std::string &text;
        size_t hash;
    };

    /**
     * Look up a sweep.  Checks memory first, then the disk layer (a
     * disk hit is promoted into memory).  An empty key always misses.
     * A memory hit allocates nothing.
     *
     * @return the shared entry on a hit, nullptr on a miss.
     */
    Runtimes lookupShared(const KeyView &key);

    /** lookupShared() of a key hashed here. */
    Runtimes lookupShared(const std::string &key);

    class Shard;

    /**
     * Store every entry `shard` staged and leave it with none.  The
     * entries are linked into the cache under one lock, which
     * allocates nothing; with a disk layer they are first recorded
     * and flushed once, outside the lock.  The memory layer keeps
     * them even when the disk layer throws.
     */
    void insertBatch(Shard &shard);

    /** lookupShared(), copying a hit into `runtimes`. */
    bool lookup(const std::string &key, std::vector<double> &runtimes);

    /** Store a copy of `runtimes`; no-op for an empty key. */
    void insert(const std::string &key,
                const std::vector<double> &runtimes);

    /**
     * Attach a disk layer rooted at `dir` (created if missing); an
     * empty string detaches it.  Each insert is flushed at once, under
     * the store's file lock, so processes sharing a directory never
     * read torn records.
     */
    void setDirectory(const std::string &dir);

    /**
     * Drop every in-memory entry and re-read the disk layer's index,
     * so entries other processes appended since become visible.
     */
    void clear();

    /** In-memory entry count. */
    size_t entries() const;

  private:
    /** A stored key: its text and the hash its KeyView took. */
    struct StoredKey {
        std::string text;
        size_t hash;
    };

    /**
     * Returns the hash a key carries, so nothing is hashed under the
     * lock; transparent, so a KeyView probes without a copy.
     */
    struct KeyHash {
        using is_transparent = void;
        template <typename K>
        size_t
        operator()(const K &key) const noexcept
        {
            return key.hash;
        }
    };

    /** Compares the full text: no hash alone decides a hit. */
    struct KeyEqual {
        using is_transparent = void;
        template <typename A, typename B>
        bool
        operator()(const A &a, const B &b) const noexcept
        {
            return a.text == b.text;
        }
    };

    /**
     * The cache's map.  Entries are staged in a map of the same type,
     * so a staged node, key included, moves into the cache as it is:
     * allocated where it was staged, not under the cache lock.
     */
    using Map = std::unordered_map<StoredKey, Runtimes, KeyHash, KeyEqual>;

    SweepCache() = default;

    /** Stage one entry into `staged`; no-op for an empty key. */
    static void stage(Map &staged, const KeyView &key, Runtimes runtimes);

    /** Move every node of `staged` into the cache under one lock. */
    void link(Map &staged);

    /**
     * Link one staged node: a fresh key joins the FIFO (evicting the
     * oldest entries past the cap), a present one takes the new
     * vector.
     */
    void linkLocked(Map::node_type node);

    /**
     * In-memory entries are bounded: a census caches one entry per
     * kernel (267 on the paper suite), so the cap only matters for
     * pathological callers sweeping unbounded kernel populations.
     */
    static constexpr size_t kMaxEntries = 4096;

    // sweepKernels() workers hit the cache concurrently; every
    // field below is tied to the mutex by its guarded_by annotation
    // (enforced by the lock-discipline rule).
    mutable std::mutex mutex_;
    // guarded_by(mutex_)
    Map map_;
    // Insertion order: a ring of kMaxEntries slots, held inline so
    // that a link never allocates, with map_.size() entries from the
    // oldest at fifo_head_.  Each element points at its entry's key
    // inside map_: map nodes never move, and an entry leaves the map
    // and the ring together.
    // guarded_by(mutex_)
    std::array<const StoredKey *, kMaxEntries> fifo_{};
    // guarded_by(mutex_)
    size_t fifo_head_ = 0;
    // The disk layer; lookups and inserts copy the pointer and use
    // the store outside mutex_.
    // guarded_by(mutex_)
    std::shared_ptr<CensusJournal> disk_;
};

/**
 * What one census shard hands the cache: the runtime vectors it
 * computed, kept in one store, and their staged entries.
 * sweepKernel() and insert() use a shard of one.
 *
 * Every Runtimes keep() returns aliases the store (shared_ptr's
 * aliasing constructor), so the shard's kernels share one control
 * block instead of one each.  The store is one array with a slot for
 * each of the shard's kernels, allocated when the first vector
 * arrives: no slot ever moves, and a shard that computes nothing
 * allocates nothing.
 *
 * Retention: a store lives until the last Runtimes aliasing it is
 * gone, the shard's surfaces and its cache entries alike, and until
 * then holds every vector the shard kept, at most `capacity` of them.
 * The shard's entries are linked in one batch, so they sit side by
 * side in the cache's FIFO and eviction drops them one after
 * another; past that, a store lives only while a caller holds one of
 * its surfaces.
 */
class SweepCache::Shard
{
  public:
    /** A shard that keeps at most `capacity` vectors. */
    explicit Shard(size_t capacity) : capacity_(capacity) {}

    /**
     * Keep `runtimes` in the store and stage it under `key` (not for
     * an empty key); returns the store's alias of it.
     */
    Runtimes keep(const KeyView &key, std::vector<double> runtimes);

  private:
    friend class SweepCache;

    size_t capacity_;
    size_t kept_ = 0;
    std::shared_ptr<std::vector<double>[]> store_;
    Map staged_;
};

} // namespace harness
} // namespace gpuscale

#endif // GPUSCALE_HARNESS_SWEEP_CACHE_HH
