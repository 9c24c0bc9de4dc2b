/**
 * @file
 * The census's heap budget.
 *
 * Each point of the census is a few-nanosecond model evaluation, so
 * the harness around the model sets the census's wall time, and with
 * a single malloc arena every heap allocation on that path takes a
 * lock that all the pool workers share.  This binary replaces the
 * global operator new with a counting one and pins two budgets:
 *
 *  - a cold paper-grid runCensus (empty sweep cache, warm process)
 *    makes at most kAllocsPerKernel allocations per kernel, sweep,
 *    cache, surfaces and classification included;
 *  - a one-thread evaluateGridRuntimes loop over the zoo averages at
 *    most two allocations per kernel: the result vector, plus the
 *    Amdahl buffer of kernels with a serial phase;
 *  - a cold 10%-budget LHS runSparseCensus makes at most
 *    kSparseAllocsPerKernel allocations per kernel: the cache entry
 *    of its measured plan and the reconstruction it returns.  The
 *    plan, the fit's lanes and the buffers its classifications read
 *    are per-thread and allocate nothing once warm.
 *
 * The counter sees every thread, so pool workers count too.  The
 * budgets hold under the sanitizers as well: they intercept malloc,
 * which the counting operator new calls.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "gpu/analytic_model.hh"
#include "harness/experiment.hh"
#include "harness/sparse.hh"
#include "harness/sweep_cache.hh"
#include "scaling/config_space.hh"
#include "workloads/registry.hh"

namespace {

std::atomic<uint64_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
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
 * Allocations per kernel a cold census may make: the measured figure
 * plus one.  A cold paper-grid census on a 4-core host made 1,680
 * allocations, 6.3 per kernel: six per kernel (the key, which moves
 * into its cache node; the runtime vector and its shared-pointer
 * control block; the cache node; the surface's and the
 * classification's copies of the kernel name) and a few dozen per
 * census (each shard's staging buckets, the Amdahl buffers, the
 * result vectors).
 */
constexpr double kAllocsPerKernel = 7.3;

/** Allocations per kernel the bare batched model may make. */
constexpr double kModelAllocsPerKernel = 2.0;

/**
 * Allocations per kernel a cold sparse census may make: the measured
 * figure plus one.  A cold 10%-budget census on a 4-core host made
 * 3,013 allocations, 11.3 per kernel: eleven per kernel (the cache
 * key, which moves into its cache node; the packed plan and its
 * shared-pointer control block; the cache node; the point surface's
 * runtime vector, control block and name; `lower` and `upper`; the
 * classification's name and the census's copy of it) and a few dozen
 * per census (each shard's staging buckets among them).
 */
constexpr double kSparseAllocsPerKernel = 12.3;

uint64_t
allocations()
{
    return g_allocations.load(std::memory_order_relaxed);
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
    const uint64_t before = allocations();
    const auto census = harness::runCensus(model, space);
    const uint64_t made = allocations() - before;
    ASSERT_EQ(census.classifications.size(), kernels);

    const auto budget = static_cast<uint64_t>(
        kAllocsPerKernel * static_cast<double>(kernels));
    EXPECT_LE(made, budget)
        << "a cold census made " << made << " allocations ("
        << static_cast<double>(made) / static_cast<double>(kernels)
        << " per kernel); the budget is " << budget;
    RecordProperty("allocations", static_cast<int>(made));
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
    const uint64_t before = allocations();
    const auto census = harness::runSparseCensus(model, space, options);
    const uint64_t made = allocations() - before;
    ASSERT_EQ(census.reconstructions.size(), kernels);

    const auto budget = static_cast<uint64_t>(
        kSparseAllocsPerKernel * static_cast<double>(kernels));
    EXPECT_LE(made, budget)
        << "a cold sparse census made " << made << " allocations ("
        << static_cast<double>(made) / static_cast<double>(kernels)
        << " per kernel); the budget is " << budget;
    RecordProperty("allocations", static_cast<int>(made));
}

TEST(CensusAllocsTest, BatchedModelAllocatesOnlyItsResult)
{
    const gpu::AnalyticModel model;
    const gpu::ConfigGrid grid = scaling::ConfigSpace::paperGrid().grid();
    const auto kernels = workloads::WorkloadRegistry::instance().allKernels();

    double sink = 0.0;
    for (const auto *kernel : kernels)
        sink += model.evaluateGridRuntimes(*kernel, grid)[0];

    const uint64_t before = allocations();
    for (const auto *kernel : kernels)
        sink += model.evaluateGridRuntimes(*kernel, grid)[0];
    const uint64_t made = allocations() - before;
    EXPECT_GT(sink, 0.0);

    const double per_kernel =
        static_cast<double>(made) / static_cast<double>(kernels.size());
    EXPECT_LE(per_kernel, kModelAllocsPerKernel)
        << made << " allocations over " << kernels.size() << " kernels";
}

} // namespace
} // namespace gpuscale
