/**
 * @file
 * ThreadPool implementation.
 */

#include "thread_pool.hh"

#include <algorithm>

#include "base/fault.hh"
#include "base/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace gpuscale {
namespace harness {

namespace {

/** Set for the lifetime of a pool worker thread. */
thread_local bool t_on_pool_worker = false;

} // namespace

ThreadPool &
ThreadPool::instance()
{
    // Intentionally leaked, like obs::Registry::instance(): a region
    // may still be in flight on a detached thread when the process
    // exits, so running a destructor from the atexit chain would race
    // run() over current_ and join workers mid-region.  Exit leaves
    // the workers as they are; the OS reclaims them.
    static ThreadPool &pool = *new ThreadPool();
    return pool;
}

bool
ThreadPool::onWorkerThread()
{
    return t_on_pool_worker;
}

unsigned
ThreadPool::ensure(unsigned workers)
{
    workers = std::min(workers, kMaxWorkers);
    std::lock_guard<std::mutex> lock(mu_);
    while (workers_.size() < workers) {
        // The spawn ordinal doubles as the worker's telemetry-shard
        // hint: workers spread deterministically across the
        // counters' and histograms' stripes instead of being dealt
        // shards by first-touch order.
        const auto ordinal =
            static_cast<unsigned>(workers_.size());
        workers_.emplace_back([this, ordinal]() {
            obs::setThreadShardHint(ordinal);
            workerLoop();
        });
        spawned_.fetch_add(1, std::memory_order_relaxed);
    }
    return static_cast<unsigned>(workers_.size());
}

unsigned
ThreadPool::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<unsigned>(workers_.size());
}

uint64_t
ThreadPool::spawned() const
{
    return spawned_.load(std::memory_order_relaxed);
}

void
ThreadPool::runSlot(Task &task, unsigned slot)
{
    GPUSCALE_TRACE_SCOPE("parallel_for.worker");
    uint64_t done = 0;
    while (!task.failed.load(std::memory_order_relaxed)) {
        // Cooperative cancellation: one token poll per chunk, the
        // same granularity as the fault probe below.  The throw rides
        // the first-error capture so every participant stops
        // dispensing and the caller sees CancelledError.
        if (task.cancel != nullptr && task.cancel->expired()) {
            std::lock_guard<std::mutex> lock(task.mu);
            if (!task.error)
                task.error = std::make_exception_ptr(CancelledError(
                    "parallel region cancelled (drain or deadline)"));
            task.failed.store(true, std::memory_order_release);
            break;
        }
        const size_t begin =
            task.next.fetch_add(task.chunk, std::memory_order_relaxed);
        if (begin >= task.n)
            break;
        const size_t end = std::min(begin + task.chunk, task.n);
        try {
            // Injection site: one probe per dispensed chunk.  An
            // Exception fault here exercises the capture/rethrow
            // drain exactly like a crashing work item; an injected
            // I/O error has no operation to fail, so it degenerates
            // to the same exception.
            if (faultPoint("thread_pool.task")) {
                throw FaultInjectedError(
                    "injected i/o fault at thread_pool.task");
            }
            for (size_t i = begin; i < end; ++i) {
                (*task.fn)(i);
                ++done;
            }
        } catch (...) {
            // First throw wins; everyone stops dispensing, and the
            // caller rethrows once the region quiesces.
            std::lock_guard<std::mutex> lock(task.mu);
            if (!task.error)
                task.error = std::current_exception();
            task.failed.store(true, std::memory_order_release);
        }
    }
    (*task.per_worker_tasks)[slot] = done;
}

void
ThreadPool::workerLoop()
{
    t_on_pool_worker = true;
    uint64_t seen_generation = 0;
    while (true) {
        std::shared_ptr<Task> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(lock, [&]() {
                return current_ && generation_ != seen_generation;
            });
            seen_generation = generation_;
            task = current_;
        }
        // Claim a participant slot; late or surplus workers find the
        // complement full and go back to sleep.
        const unsigned slot =
            task->claims.fetch_add(1, std::memory_order_acq_rel);
        if (slot >= task->participants)
            continue;
        runSlot(*task, slot);
        if (task->finished.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            task->participants) {
            // Take the task mutex so the notify cannot slip between
            // the caller's predicate check and its wait.
            std::lock_guard<std::mutex> lock(task->mu);
            task->done_cv.notify_all();
        }
    }
}

void
ThreadPool::run(size_t n, const std::function<void(size_t)> &fn,
                unsigned participants,
                std::vector<uint64_t> &per_worker_tasks,
                const CancelToken *cancel)
{
    panic_if(onWorkerThread(),
             "ThreadPool::run from a pool worker would deadlock; "
             "callers must degrade nested regions to serial loops");
    std::lock_guard<std::mutex> region_lock(run_mu_);
    panic_if(participants == 0 || participants > size(),
             "ThreadPool::run: %u participants with %u workers "
             "(call ensure() first)",
             participants, size());

    per_worker_tasks.assign(participants, 0);

    auto task = std::make_shared<Task>();
    task->n = n;
    // Chunked dispensing: ~8 chunks per participant keeps dynamic
    // balance while cutting dispenser traffic by the chunk factor.
    task->chunk = std::max<size_t>(1, n / (size_t{participants} * 8));
    task->fn = &fn;
    task->participants = participants;
    task->per_worker_tasks = &per_worker_tasks;
    task->cancel = cancel;

    {
        std::lock_guard<std::mutex> lock(mu_);
        current_ = task;
        ++generation_;
    }
    work_cv_.notify_all();

    {
        std::unique_lock<std::mutex> lock(task->mu);
        task->done_cv.wait(lock, [&]() {
            return task->finished.load(std::memory_order_acquire) ==
                   participants;
        });
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        current_.reset();
    }

    if (task->failed.load(std::memory_order_acquire))
        std::rethrow_exception(task->error);
}

} // namespace harness
} // namespace gpuscale
