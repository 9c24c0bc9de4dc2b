/**
 * @file
 * Tests for the sweep harness and the parallel helper.
 */

#include "harness/sweep.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "gpu/analytic_model.hh"
#include "gpu/kernel_desc.hh"
#include "harness/checkpoint.hh"
#include "harness/parallel.hh"
#include "harness/thread_pool.hh"
#include "support/temp_dir.hh"
#include "workloads/archetypes.hh"

namespace gpuscale {
namespace harness {
namespace {

TEST(ParallelForTest, CoversEveryIndexOnce)
{
    const size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, SingleThreadFallback)
{
    std::vector<int> order;
    parallelFor(5, [&](size_t i) { order.push_back(static_cast<int>(i)); },
                1);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ZeroIterationsIsNoop)
{
    bool called = false;
    parallelFor(0, [&](size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(SweepTest, SurfaceMatchesDirectEstimates)
{
    const gpu::AnalyticModel model;
    const auto kernel = workloads::streaming(
        "t/s/k", {.wgs = 1024, .wi_per_wg = 256});
    const auto space = scaling::ConfigSpace::testGrid();
    const auto surface = sweepKernel(model, kernel, space);

    EXPECT_EQ(surface.kernelName(), "t/s/k");
    for (size_t i = 0; i < space.size(); ++i) {
        EXPECT_DOUBLE_EQ(surface.runtimes()[i],
                         model.estimate(kernel, space.at(i)).time_s);
    }
}

TEST(SweepTest, BatchMatchesSingleSweeps)
{
    const gpu::AnalyticModel model;
    const auto k1 = workloads::streaming(
        "t/s/k1", {.wgs = 1024, .wi_per_wg = 256});
    const auto k2 = workloads::denseCompute(
        "t/c/k2", {.wgs = 1024, .wi_per_wg = 256});
    const auto space = scaling::ConfigSpace::testGrid();

    const auto batch = sweepKernels(model, {&k1, &k2}, space);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].kernelName(), "t/s/k1");
    EXPECT_EQ(batch[1].kernelName(), "t/c/k2");

    const auto solo1 = sweepKernel(model, k1, space);
    const auto solo2 = sweepKernel(model, k2, space);
    EXPECT_EQ(batch[0].runtimes(), solo1.runtimes());
    EXPECT_EQ(batch[1].runtimes(), solo2.runtimes());
}

TEST(SweepTest, BackToBackSweepsReusePoolWorkers)
{
    const gpu::AnalyticModel model;
    const auto k1 = workloads::streaming(
        "t/s/k1", {.wgs = 1024, .wi_per_wg = 256});
    const auto k2 = workloads::denseCompute(
        "t/c/k2", {.wgs = 1024, .wi_per_wg = 256});
    const auto space = scaling::ConfigSpace::testGrid();
    const std::vector<const gpu::KernelDesc *> kernels{&k1, &k2};

    // Warm the pool with the first sweep, then assert the second
    // respawns nothing: the persistent workers are reused.
    sweepKernels(model, kernels, space);
    const uint64_t spawned_before = ThreadPool::instance().spawned();
    sweepKernels(model, kernels, space);
    EXPECT_EQ(ThreadPool::instance().spawned(), spawned_before);
}

TEST(SweepTest, JournalNeverReplaysAChangedKernelUnderTheSameName)
{
    test::ScopedTempDir dir("sweep_journal_identity");
    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::testGrid();
    const std::string grid_fp = space.grid().fingerprint();
    auto kernel = workloads::streaming(
        "t/s/journaled", {.wgs = 1024, .wi_per_wg = 256});
    {
        CensusJournal journal(dir.path(), model.fingerprint(), grid_fp);
        sweepKernels(model, {&kernel}, space, nullptr, &journal);
    }

    // Same name, different descriptor: the resumed sweep must compute
    // the changed kernel, not replay the journaled runtimes.
    kernel.mem_loads *= 2;
    CensusJournal journal(dir.path(), model.fingerprint(), grid_fp);
    ASSERT_EQ(journal.loadedRecords(), 1u);
    const auto surfaces =
        sweepKernels(model, {&kernel}, space, nullptr, &journal);
    ASSERT_EQ(surfaces.size(), 1u);
    EXPECT_EQ(surfaces[0].runtimes(),
              model.evaluateGridRuntimes(kernel, space.grid()));
}

TEST(SweepTest, EmptyBatch)
{
    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::testGrid();
    EXPECT_TRUE(sweepKernels(model, {}, space).empty());
}

} // namespace
} // namespace harness
} // namespace gpuscale
