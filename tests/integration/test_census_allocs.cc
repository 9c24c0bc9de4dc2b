/**
 * @file
 * The census's heap budget.
 *
 * Each point of the census is a few-nanosecond model evaluation, so
 * the harness around the model sets the census's wall time, and with
 * a single malloc arena every heap allocation on that path takes a
 * lock that all the pool workers share.  This binary replaces the
 * global operator new with a counting one, which also counts the
 * allocations made on pool workers (ThreadPool::onWorkerThread()),
 * and pins these budgets:
 *
 *  - a cold paper-grid runCensus (empty sweep cache, warm process)
 *    makes at most kAllocsPerKernel allocations per kernel in all,
 *    sweep, cache, surfaces and classification included, and at most
 *    kWorkerAllocsPerKernel on the workers: per computed kernel, its
 *    key, its runtime vector and its cache node (each budget adds
 *    kAllocsPerShard per shard);
 *  - a warm runCensus, every kernel a cache hit, makes at most
 *    kWarmWorkerAllocsPerKernel per kernel on the workers;
 *  - a one-thread evaluateGridRuntimes loop over the zoo averages at
 *    most one allocation per kernel, the result vector;
 *  - a cold 10%-budget LHS runSparseCensus makes at most
 *    kSparseAllocsPerKernel allocations per kernel: the cache entry
 *    of its measured plan and the reconstruction it returns.  The
 *    plan, the fit's lanes and the buffers its classifications read
 *    are per-thread and allocate nothing once warm.
 *
 * The workers run every shard of a parallel region; the calling
 * thread copies the kernel names before the region and gathers the
 * results after it.  On a one-core host a census runs on the calling
 * thread, and only the total budgets bind.  The budgets hold under
 * the sanitizers as well: they intercept malloc, which the counting
 * operator new calls.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>

#include "gpu/analytic_model.hh"
#include "harness/experiment.hh"
#include "harness/sparse.hh"
#include "harness/sweep_cache.hh"
#include "harness/thread_pool.hh"
#include "obs/metrics.hh"
#include "scaling/config_space.hh"
#include "workloads/registry.hh"

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_worker_allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (gpuscale::harness::ThreadPool::onWorkerThread())
        g_worker_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace gpuscale {
namespace {

/**
 * Allocations per shard each budget below adds: a shard that keeps a
 * vector allocates its store (one array of slots behind one control
 * block) and the buckets of its staged cache entries.  sweepKernels()
 * and runSparseCensus() cut a census into four shards per hardware
 * thread, so this term follows the host; the per-kernel figures do
 * not.
 */
constexpr double kAllocsPerShard = 2.0;

/**
 * Allocations per kernel a cold census may make, beyond the
 * per-shard ones: the measured figure plus one.  A cold paper-grid
 * census on a 4-core host (16 shards) made 1,405 allocations, 5.14
 * per kernel beyond its 32 per-shard ones: three per computed kernel
 * on the workers (the cache node, the key it copies from the shard's
 * buffer, the runtime vector), two per kernel on the calling thread
 * (the surface's and the classification's copies of the name), and
 * 38 per census on the calling thread (the result vectors among
 * them).
 */
constexpr double kAllocsPerKernel = 6.2;

/**
 * Allocations per kernel a cold census may make on the pool workers,
 * beyond the per-shard ones: the measured figure plus 0.5.  The
 * census above made 833 of its allocations there, 3.0 per kernel
 * beyond the per-shard ones.
 */
constexpr double kWorkerAllocsPerKernel = 3.5;

/**
 * Allocations per kernel a warm census may make on the pool workers.
 * A hit hashes the key in the shard's buffer and returns the cache's
 * own vector, and a shard that keeps nothing builds no store, so the
 * 4-core census made none.
 */
constexpr double kWarmWorkerAllocsPerKernel = 0.2;

/** Allocations per kernel the bare batched model may make. */
constexpr double kModelAllocsPerKernel = 1.0;

/**
 * Allocations per kernel a cold sparse census may make, beyond the
 * per-shard ones: the measured figure plus one.  A cold 10%-budget
 * census on a 4-core host made 2,762 allocations, 10.22 per kernel
 * beyond its 32 per-shard ones: ten per kernel (the cache node and
 * the key it copies; the packed plan, kept in the shard's store; the
 * point surface's runtime vector, control block and name; `lower`
 * and `upper`; the classification's name and the census's copy of
 * it) and a few dozen per census.  2,435 of them were made on the
 * workers, 9.1 per kernel.
 */
constexpr double kSparseAllocsPerKernel = 11.2;

/** Allocations made so far, in all and on pool workers. */
struct Allocations {
    uint64_t total = 0;
    uint64_t on_workers = 0;

    static Allocations
    now()
    {
        return {g_allocations.load(std::memory_order_relaxed),
                g_worker_allocations.load(std::memory_order_relaxed)};
    }

    Allocations
    since(const Allocations &before) const
    {
        return {total - before.total, on_workers - before.on_workers};
    }
};

/** The shards a census of `kernels` kernels is cut into. */
size_t
shardsFor(size_t kernels)
{
    const size_t threads =
        std::max<unsigned>(1u, std::thread::hardware_concurrency());
    return std::min(kernels, threads * 4);
}

/**
 * `per_kernel` allocations per kernel over `kernels` kernels, plus
 * `per_shard` per shard.
 */
uint64_t
budget(double per_kernel, size_t kernels, double per_shard = 0.0)
{
    return static_cast<uint64_t>(
        per_kernel * static_cast<double>(kernels) +
        per_shard * static_cast<double>(shardsFor(kernels)));
}

double
perKernel(uint64_t allocations, size_t kernels)
{
    return static_cast<double>(allocations) /
           static_cast<double>(kernels);
}

TEST(CensusAllocsTest, ColdPaperGridCensusStaysWithinBudget)
{
    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::paperGrid();
    const size_t kernels =
        workloads::WorkloadRegistry::instance().allKernels().size();
    ASSERT_EQ(kernels, 267u);

    // Warm-up: the pool's threads, the registries, the cache's
    // buckets and every per-thread buffer come to exist here.
    for (int i = 0; i < 3; ++i) {
        harness::SweepCache::instance().clear();
        const auto census = harness::runCensus(model, space);
        ASSERT_EQ(census.classifications.size(), kernels);
    }

    harness::SweepCache::instance().clear();
    const Allocations before = Allocations::now();
    const auto census = harness::runCensus(model, space);
    const Allocations made = Allocations::now().since(before);
    ASSERT_EQ(census.classifications.size(), kernels);

    ASSERT_EQ(obs::Registry::instance().gauge("census.shard.count").value(),
              static_cast<double>(shardsFor(kernels)));

    EXPECT_LE(made.total,
              budget(kAllocsPerKernel, kernels, kAllocsPerShard))
        << "a cold census made " << made.total << " allocations ("
        << perKernel(made.total, kernels) << " per kernel)";
    EXPECT_LE(made.on_workers,
              budget(kWorkerAllocsPerKernel, kernels, kAllocsPerShard))
        << "a cold census made " << made.on_workers
        << " allocations on pool workers ("
        << perKernel(made.on_workers, kernels) << " per kernel)";
    RecordProperty("allocations", static_cast<int>(made.total));
    RecordProperty("worker_allocations", static_cast<int>(made.on_workers));
}

TEST(CensusAllocsTest, WarmCensusAllocatesAlmostNothingOnWorkers)
{
    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::paperGrid();
    const size_t kernels =
        workloads::WorkloadRegistry::instance().allKernels().size();
    obs::Counter &hits =
        obs::Registry::instance().counter("sweep.cache.hits");

    // A cold census fills the cache; the warm ones after it bring
    // every per-thread buffer to size.
    harness::SweepCache::instance().clear();
    for (int i = 0; i < 3; ++i) {
        const auto census = harness::runCensus(model, space);
        ASSERT_EQ(census.classifications.size(), kernels);
    }

    const uint64_t hits0 = hits.value();
    const Allocations before = Allocations::now();
    const auto census = harness::runCensus(model, space);
    const Allocations made = Allocations::now().since(before);
    ASSERT_EQ(census.classifications.size(), kernels);
    ASSERT_EQ(hits.value() - hits0, kernels) << "not every kernel hit";

    EXPECT_LE(made.on_workers, budget(kWarmWorkerAllocsPerKernel, kernels))
        << "a warm census made " << made.on_workers
        << " allocations on pool workers ("
        << perKernel(made.on_workers, kernels) << " per kernel)";
    RecordProperty("allocations", static_cast<int>(made.total));
    RecordProperty("worker_allocations", static_cast<int>(made.on_workers));
}

TEST(CensusAllocsTest, ColdSparseCensusStaysWithinBudget)
{
    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::paperGrid();
    const size_t kernels =
        workloads::WorkloadRegistry::instance().allKernels().size();
    harness::SparseCensusOptions options;
    options.samples = space.size() / 10;

    // Warm-up, as above: threads, registries and per-thread buffers.
    for (int i = 0; i < 3; ++i) {
        harness::SweepCache::instance().clear();
        const auto census = harness::runSparseCensus(model, space, options);
        ASSERT_EQ(census.reconstructions.size(), kernels);
    }

    harness::SweepCache::instance().clear();
    const Allocations before = Allocations::now();
    const auto census = harness::runSparseCensus(model, space, options);
    const Allocations made = Allocations::now().since(before);
    ASSERT_EQ(census.reconstructions.size(), kernels);

    EXPECT_LE(made.total,
              budget(kSparseAllocsPerKernel, kernels, kAllocsPerShard))
        << "a cold sparse census made " << made.total << " allocations ("
        << perKernel(made.total, kernels) << " per kernel; "
        << perKernel(made.on_workers, kernels) << " on pool workers)";
    RecordProperty("allocations", static_cast<int>(made.total));
    RecordProperty("worker_allocations", static_cast<int>(made.on_workers));
}

TEST(CensusAllocsTest, BatchedModelAllocatesOnlyItsResult)
{
    const gpu::AnalyticModel model;
    const gpu::ConfigGrid grid = scaling::ConfigSpace::paperGrid().grid();
    const auto kernels = workloads::WorkloadRegistry::instance().allKernels();

    double sink = 0.0;
    for (const auto *kernel : kernels)
        sink += model.evaluateGridRuntimes(*kernel, grid)[0];

    const uint64_t before = Allocations::now().total;
    for (const auto *kernel : kernels)
        sink += model.evaluateGridRuntimes(*kernel, grid)[0];
    const uint64_t made = Allocations::now().total - before;
    EXPECT_GT(sink, 0.0);

    EXPECT_LE(perKernel(made, kernels.size()), kModelAllocsPerKernel)
        << made << " allocations over " << kernels.size() << " kernels";
}

} // namespace
} // namespace gpuscale
