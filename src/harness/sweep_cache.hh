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
 * surface still holding it.
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
     * Look up a sweep.  Checks memory first, then the disk layer (a
     * disk hit is promoted into memory).  An empty key always misses.
     *
     * @return the shared entry on a hit, nullptr on a miss.
     */
    Runtimes lookupShared(const std::string &key);

    /**
     * Store a sweep's shared vector as is; no-op for an empty key.  A
     * batch of one (insertBatch()).
     */
    void insertShared(const std::string &key, const Runtimes &runtimes);

    /**
     * Entries staged for insertBatch().  It is the cache's own map
     * type, so a staged node, key included, moves into the cache as
     * it is: allocated where it was staged, not under the cache lock.
     */
    using Batch = std::unordered_map<std::string, Runtimes>;

    /**
     * Stage one sweep into `batch`, taking over its key and vector;
     * no-op for an empty key.
     */
    static void stage(Batch &batch, std::string key, Runtimes runtimes);

    /**
     * Store every entry of `batch` and leave it empty.  The entries
     * are linked into the cache under one lock, which allocates
     * nothing; with a disk layer they are first recorded and flushed
     * once, outside the lock.  The memory layer keeps them even when
     * the disk layer throws.
     */
    void insertBatch(Batch &batch);

    /** lookupShared(), copying a hit into `runtimes`. */
    bool lookup(const std::string &key, std::vector<double> &runtimes);

    /** insertShared() of a copy of `runtimes`. */
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
    SweepCache() = default;

    /** Move every node of `batch` into the cache under one lock. */
    void link(Batch &batch);

    /**
     * Link one staged node: a fresh key joins the FIFO (evicting the
     * oldest entries past the cap), a present one takes the new
     * vector.
     */
    void linkLocked(Batch::node_type node);

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
    Batch map_;
    // Insertion order: a ring of kMaxEntries slots, held inline so
    // that a link never allocates, with map_.size() entries from the
    // oldest at fifo_head_.  Each element points at its entry's key
    // inside map_: map nodes never move, and an entry leaves the map
    // and the ring together.
    // guarded_by(mutex_)
    std::array<const std::string *, kMaxEntries> fifo_{};
    // guarded_by(mutex_)
    size_t fifo_head_ = 0;
    // The disk layer; lookups and inserts copy the pointer and use
    // the store outside mutex_.
    // guarded_by(mutex_)
    std::shared_ptr<CensusJournal> disk_;
};

} // namespace harness
} // namespace gpuscale

#endif // GPUSCALE_HARNESS_SWEEP_CACHE_HH
