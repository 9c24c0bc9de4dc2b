/**
 * @file
 * The durable store: an append-only, CRC-framed log of sweep runtime
 * vectors, keyed by SweepCache::keyFor.
 *
 * Two users open it, each through a StoreRole that names its file,
 * fault sites and counters; format, load, flush, lookup and
 * corruption rules are one code path:
 *  - the census journal (`--checkpoint`, gpuscaled resume),
 *    `<dir>/census.journal`, pinned to one model and grid: a census
 *    killed mid-run (OOM killer, pre-empted spot instance, ctrl-C)
 *    replays it and re-computes only the kernels it lacks;
 *  - the sweep cache's disk layer (`--sweep-cache`),
 *    `<dir>/sweep-cache.journal`, pinned to `*`, because its keys
 *    already carry both fingerprints.
 *
 * File format (version 1).  After a three-line text header, each
 * record is a CRC'd text metadata line framing a raw binary body:
 *
 *     gpuscale-census-journal-v1
 *     model=<model fingerprint>
 *     grid=<grid fingerprint>
 *     <crc32 hex8> <key>|<count>:<chk64 hex16>
 *     <count * 8 bytes of native doubles>
 *     ...
 *
 * The key folds in every descriptor field, so a kernel that changed
 * under the same name misses and re-runs instead of replaying stale
 * runtimes.  Keys contain '|', so the metadata is split on its last
 * one; a key recorded twice resolves to its last record.
 *
 * The body stays binary because a paper-grid census stores ~240k
 * doubles: text-formatting them costs more than the sweep being
 * stored, raw bytes are a memcpy.  The body checksum is the
 * word-wise chk64 for the same reason.  Native byte order — the store
 * is a local resume artifact, not an interchange format.  Runtimes
 * round-trip bitwise, so a replayed census is indistinguishable from
 * an uninterrupted one.
 *
 * The index maps each key to its body's offset, count and chk64,
 * never to the vector: a lookup pread()s the body and checks it
 * again, and a load streams the file through a bounded window.
 *
 * Safety properties:
 *  - Every load and every flush holds a POSIX record lock on the
 *    whole file (fcntl F_SETLKW).  It belongs to the process, so
 *    processes sharing a file, forked children sharing its open file
 *    description included, never interleave appends or read a
 *    half-written record.  Reads use the store's own fd: closing any
 *    other descriptor of the file would drop the lock.
 *  - A missing, mangled or foreign (other model or grid) header is
 *    rewritten in place under the lock, discarding the records; it is
 *    never renamed over, so processes holding the file keep appending
 *    to the file the others read.
 *  - Mangled metadata or a torn tail (killed mid-write) cuts the file
 *    at that record, under the lock, so records appended later are
 *    replayed; a bit-flipped body inside an intact frame skips only
 *    that record.  Both count as corrupt and are never replayed.
 *  - Loads and flushes run through the obs retry policy, probing the
 *    role's fault site in each attempt; a retried flush resumes at
 *    its first unwritten byte.  When retries run out the store
 *    degrades and counts it: a load replays nothing, a flush drops
 *    its records and cuts off any part it wrote.  Corrupt data is
 *    not retried.
 *
 * Appends group-commit: whole records accumulate in a buffer that is
 * flushed at kFlushBytes boundaries (and on flush(), sync() and
 * close), an order of magnitude fewer write syscalls on the census
 * hot path.  A kill between flushes loses at most the buffered tail,
 * which simply re-runs.  Appends never fsync: surviving a process
 * kill needs none (the page cache persists), and one fsync of a
 * paper-grid journal costs more than its whole encode-and-write
 * path.  Callers that also want power-loss durability call sync()
 * once at a quiescent point (the CLI does, after the census).
 */

#ifndef GPUSCALE_HARNESS_CHECKPOINT_HH
#define GPUSCALE_HARNESS_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace gpuscale {
namespace obs {
class Counter;
class Histogram;
} // namespace obs
namespace harness {

/** What the store's two users set differently. */
struct StoreRole {
    const char *file_name;
    const char *dir_site;   ///< fault site: creating the directory
    const char *read_site;  ///< fault site: each load and body read
    const char *write_site; ///< fault site: each flush
    obs::Counter &records;  ///< records appended
    obs::Counter &hits;     ///< lookups served from the file
    obs::Counter &corrupt;  ///< records rejected by a check
    obs::Histogram *flush_latency; ///< nullptr: flushes untimed

    /** The census journal's role: census.journal, checkpoint.*. */
    static const StoreRole &journal();
};

/** Append-only store of completed kernel sweeps. */
class CensusJournal
{
  public:
    /**
     * Open (or create) the store under `dir`, pinned to the given
     * model and grid fingerprints, and index its records.  A
     * mismatched or corrupt header is discarded with a warning.  An
     * empty model fingerprint marks the model uncacheable, and the
     * store opens inert (lookup misses, record no-ops) — resuming
     * unidentifiable results would be silent corruption.
     */
    CensusJournal(const std::string &dir,
                  const std::string &model_fingerprint,
                  const std::string &grid_fingerprint,
                  const StoreRole &role = StoreRole::journal());

    /** Flushes and closes the file (without fsync). */
    ~CensusJournal();

    CensusJournal(const CensusJournal &) = delete;
    CensusJournal &operator=(const CensusJournal &) = delete;

    /** True when the store is open and usable. */
    bool active() const { return fd_ >= 0; }

    /**
     * Serve one kernel, by its key, from the records the last load
     * indexed.  A hit advances the role's hits counter.
     */
    bool lookup(const std::string &key,
                std::vector<double> &runtimes) const;

    /**
     * Append one completed kernel under its key.  Thread-safe; a
     * failed flush degrades (the kernel is simply re-run on the next
     * resume) and is counted, never fatal.
     */
    void record(const std::string &key,
                const std::vector<double> &runtimes);

    /** Distinct keys the last load indexed. */
    size_t loadedRecords() const;

    /**
     * Re-read the file's index, picking up records other processes
     * appended since the last load.
     */
    void reload();

    /**
     * Flush buffered records and fsync for power-loss durability.
     * Kill-safety never needs the fsync; call once after the
     * protected work completes, not per record.
     */
    void sync();

    /** Flush buffered records to the file (no fsync). */
    void flush();

    /** Full path of the store's file. */
    const std::string &path() const { return path_; }

    /** Group-commit threshold: pending bytes that trigger a flush. */
    static constexpr size_t kFlushBytes = 64 * 1024;

  private:
    /** Where one record's body lives in the file. */
    struct Entry {
        uint64_t offset = 0;
        size_t count = 0;
        uint64_t chk = 0;
    };
    using Index = std::unordered_map<std::string, Entry>;
    enum class Scan { Indexed, NoHeader, IoError };

    Scan scanLocked(Index &index);
    void flushLocked();

    const StoreRole &role_;
    std::string path_;
    std::string header_;
    int fd_ = -1;

    // Lookups from sweepKernels() workers take only this lock, for
    // the hash probe; the body is read after it is released.
    mutable std::mutex index_mutex_;
    // guarded_by(index_mutex_)
    Index index_;

    // Serializes appends, flushes and loads within the process (the
    // file lock only excludes other processes).
    std::mutex append_mutex_;
    // guarded_by(append_mutex_)
    std::string pending_;
};

} // namespace harness
} // namespace gpuscale

#endif // GPUSCALE_HARNESS_CHECKPOINT_HH
