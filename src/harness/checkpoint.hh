/**
 * @file
 * Crash-safe checkpoint/resume for census sweeps.
 *
 * A full census is 267 batched grid evaluations; losing all of them
 * to one mid-run SIGKILL (OOM killer, pre-empted spot instance,
 * ctrl-C) is what this journal prevents.  Completed kernels append
 * one record each to `<dir>/census.journal`; a restarted run replays
 * the journal and re-computes only the kernels that are missing or
 * whose records fail their CRC.
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
 * The key is the kernel's SweepCache::keyFor string, which folds in
 * every descriptor field: a kernel that changed under the same name
 * misses and re-runs instead of replaying stale runtimes.  Keys
 * contain '|', so the metadata is split on its last one.
 *
 * The body stays binary because a paper-grid census journals ~240k
 * doubles: text-formatting them costs more than the sweep being
 * checkpointed, raw bytes are a memcpy.  The body checksum is the
 * word-wise chk64 for the same reason (byte-wise CRC over megabytes
 * would dominate the append).  Native byte order — the journal is a
 * local resume artifact, not an interchange format.
 *
 * Safety properties:
 *  - The three-line header is written to a temp file and renamed into
 *    place, so a half-created journal is never observed.
 *  - Each record is one append() of metadata line + body; the line
 *    carries a CRC-32 over the metadata and a chk64 over the body.  A
 *    torn tail (killed mid-write) fails framing and replay stops
 *    there; a bit-flipped body inside an intact frame fails chk64 and
 *    only that record is skipped (checkpoint.corrupt).  Neither is
 *    ever replayed.
 *  - The header pins the model and grid fingerprints; resuming with a
 *    different model or grid discards the journal and starts fresh
 *    rather than replaying foreign results.
 *  - Runtimes round-trip bitwise (raw double bits), so a resumed
 *    census is indistinguishable from an uninterrupted one.
 *
 * Appends never fsync: surviving a process kill (the threat this
 * journal exists for) needs no fsync at all — the page cache
 * persists — and a single fsync of a paper-grid journal costs more
 * than the journal's entire encode-and-write path.  Callers that
 * also want whole-machine power-loss durability call sync() once at
 * a quiescent point (the CLI does, after the census completes);
 * losing an unsynced journal to a power cut merely re-runs the
 * census, it never corrupts a resume.
 *
 * Appends group-commit: whole records accumulate in a buffer that is
 * flushed to the fd at kFlushBytes boundaries (and on sync()/close),
 * so flushes always land on record boundaries.  A kill between
 * flushes loses at most the buffered tail — those kernels simply
 * re-run on resume — in exchange for an order of magnitude fewer
 * write syscalls on the census hot path.
 */

#ifndef GPUSCALE_HARNESS_CHECKPOINT_HH
#define GPUSCALE_HARNESS_CHECKPOINT_HH

#include <cstddef>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace gpuscale {
namespace harness {

/** Append-only journal of completed kernel sweeps. */
class CensusJournal
{
  public:
    /**
     * Open (or create) the journal under `dir`, pinned to the given
     * model and grid fingerprints.  An existing journal with a
     * matching header is replayed; a mismatched or corrupt header is
     * discarded with a warning.  An empty model fingerprint marks the
     * model uncacheable, and the journal opens inert (lookup misses,
     * record no-ops) — resuming unidentifiable results would be
     * silent corruption.
     */
    CensusJournal(const std::string &dir,
                  const std::string &model_fingerprint,
                  const std::string &grid_fingerprint);

    /** Closes the journal file (without fsync — see file comment). */
    ~CensusJournal();

    CensusJournal(const CensusJournal &) = delete;
    CensusJournal &operator=(const CensusJournal &) = delete;

    /** True when the journal is open and usable. */
    bool active() const { return fd_ >= 0; }

    /**
     * Serve one kernel, by its key, from the replayed journal.  A hit
     * advances checkpoint.replayed.
     */
    bool lookup(const std::string &key,
                std::vector<double> &runtimes) const;

    /**
     * Append one completed kernel under its key.  Thread-safe; a
     * failed append degrades (the kernel is simply re-run on the next
     * resume) and is counted, never fatal.
     */
    void record(const std::string &key,
                const std::vector<double> &runtimes);

    /** Records replayed from disk at construction time. */
    size_t loadedRecords() const { return loaded_.size(); }

    /**
     * Flush buffered records and fsync for power-loss durability.
     * Kill-safety never needs the fsync; call once after the
     * protected work completes, not per record.
     */
    void sync();

    /** Flush buffered records to the journal fd (no fsync). */
    void flush();

    /** Full path of the journal file. */
    const std::string &path() const { return path_; }

    /** Group-commit threshold: pending bytes that trigger a flush. */
    static constexpr size_t kFlushBytes = 64 * 1024;

  private:
    void load(const std::string &header);
    bool writeHeader(const std::string &header);
    void flushLocked();

    std::string path_;
    std::unordered_map<std::string, std::vector<double>> loaded_;
    int fd_ = -1;

    // Serializes appends from sweepKernels() workers so records
    // never interleave mid-line; the buffer is tied to it by
    // guarded_by (enforced by the lock-discipline rule).
    std::mutex append_mutex_;
    // guarded_by(append_mutex_)
    std::string pending_;
};

} // namespace harness
} // namespace gpuscale

#endif // GPUSCALE_HARNESS_CHECKPOINT_HH
