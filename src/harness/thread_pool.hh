/**
 * @file
 * Persistent worker-thread pool behind parallelFor().
 *
 * The sweep hot path (267 kernels x 891 configs, EXPERIMENTS.md T3)
 * calls parallelFor() once per census stage; spawning and joining a
 * fresh std::thread set per call costs milliseconds that dominate
 * short sweeps, and an exception escaping a worker's std::thread
 * body is std::terminate.  ThreadPool fixes both: workers are
 * created once (lazily, on first parallel call) and reused for the
 * life of the process, and the first exception a worker's loop body
 * throws is captured as a std::exception_ptr and rethrown on the
 * calling thread after the remaining work has been drained.
 *
 * Scheduling is chunked index dispensing: one relaxed fetch_add
 * hands a worker a contiguous run of indices instead of paying one
 * atomic RMW per index, which keeps cache-line ping-pong off the
 * dispenser while preserving dynamic load balance.
 *
 * The pool is an implementation detail of parallelFor(); this header
 * is public so tests can observe pool identity (size(), spawned())
 * and so future subsystems can share the same workers.
 */

#ifndef GPUSCALE_HARNESS_THREAD_POOL_HH
#define GPUSCALE_HARNESS_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "harness/cancel.hh"

namespace gpuscale {
namespace harness {

/**
 * Process-wide persistent thread pool with chunked parallel-for
 * dispatch and caller-thread exception propagation.
 *
 * One parallel region runs at a time (concurrent callers queue on an
 * internal mutex); a region submitted from inside a pool worker must
 * not reach run() — callers check onWorkerThread() and degrade to a
 * serial loop instead, since a nested region would deadlock behind
 * its own enclosing call.
 */
class ThreadPool
{
  public:
    /** Upper bound on pool growth; clamps absurd max_threads asks. */
    static constexpr unsigned kMaxWorkers = 256;

    /** The process-wide pool, created on first use and never
     *  destroyed (its workers live until the process exits). */
    static ThreadPool &instance();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Grow the pool to at least `workers` threads (clamped to
     * kMaxWorkers); never shrinks.  Returns the pool size, i.e. the
     * number of participants a following run() may request.
     */
    unsigned ensure(unsigned workers);

    /**
     * Run fn(i) for every i in [0, n) on `participants` pool workers
     * (requires participants >= 1 and <= size(); call ensure()
     * first).  Blocks until every participant is done.  If any fn
     * throws, the first exception is rethrown here on the calling
     * thread once the region has quiesced; indices not yet dispensed
     * at that point are abandoned, and in-flight chunks finish their
     * current index before stopping.
     *
     * per_worker_tasks is resized to `participants` and filled with
     * each participant's executed-index count (for the imbalance
     * gauge).
     *
     * When `cancel` is non-null, each participant polls it before
     * dispensing a chunk; an expired token is reported by throwing
     * CancelledError through the same first-error-wins machinery, so
     * cancellation looks exactly like a work-item failure to callers.
     */
    void run(size_t n, const std::function<void(size_t)> &fn,
             unsigned participants,
             std::vector<uint64_t> &per_worker_tasks,
             const CancelToken *cancel = nullptr);

    /** Worker threads currently alive. */
    unsigned size() const;

    /**
     * Worker threads ever created.  A warm pool keeps this constant
     * across back-to-back parallelFor() calls — the reuse property
     * tests assert on.
     */
    uint64_t spawned() const;

    /** True when the calling thread is one of this pool's workers. */
    static bool onWorkerThread();

  private:
    /** One parallel region's shared state. */
    struct Task {
        size_t n = 0;
        size_t chunk = 1;
        const std::function<void(size_t)> *fn = nullptr;
        unsigned participants = 0;
        /** Next undispensed index; advanced chunk-at-a-time. */
        std::atomic<size_t> next{0};
        /** Workers that claimed a participant slot so far. */
        std::atomic<unsigned> claims{0};
        /** Participants that finished their dispense loop. */
        std::atomic<unsigned> finished{0};
        /** Set on the first throw; stops further dispensing. */
        std::atomic<bool> failed{false};
        /** Guards error and done_cv hand-off to the caller. */
        std::mutex mu;
        std::condition_variable done_cv;
        std::exception_ptr error;
        std::vector<uint64_t> *per_worker_tasks = nullptr;
        /** Optional cooperative-cancellation token, polled per chunk. */
        const CancelToken *cancel = nullptr;
    };

    ThreadPool() = default;

    void workerLoop();
    static void runSlot(Task &task, unsigned slot);

    /** Serializes whole parallel regions, not individual indices. */
    std::mutex run_mu_;

    /** Guards workers_, current_, generation_. */
    mutable std::mutex mu_;
    std::condition_variable work_cv_;
    std::vector<std::thread> workers_;
    std::shared_ptr<Task> current_;
    uint64_t generation_ = 0;

    std::atomic<uint64_t> spawned_{0};
};

} // namespace harness
} // namespace gpuscale

#endif // GPUSCALE_HARNESS_THREAD_POOL_HH
