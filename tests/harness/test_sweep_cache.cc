/**
 * @file
 * SweepCache unit and concurrency tests.
 *
 * The concurrency tests run under the TSan job in CI's sanitizer
 * matrix (see .github/workflows/ci.yml), which is where lock-ordering
 * or data-race bugs in the cache would surface.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "base/fault.hh"
#include "gpu/analytic_model.hh"
#include "harness/noise.hh"
#include "harness/parallel.hh"
#include "harness/sweep.hh"
#include "harness/sweep_cache.hh"
#include "obs/metrics.hh"
#include "scaling/config_space.hh"
#include "support/temp_dir.hh"
#include "workloads/archetypes.hh"
#include "workloads/registry.hh"

namespace gpuscale {
namespace {

uint64_t
counterValue(const char *name)
{
    return obs::Registry::instance().counter(name).value();
}

class SweepCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override { harness::SweepCache::instance().clear(); }
    void TearDown() override
    {
        harness::SweepCache::instance().setDirectory("");
        harness::SweepCache::instance().clear();
    }
};

TEST_F(SweepCacheTest, KeyIsStableAndSensitiveToEveryInput)
{
    const gpu::AnalyticModel model;
    const auto grid = scaling::ConfigSpace::testGrid().grid();
    const auto kernel = workloads::streaming(
        "cache/test/k", {.wgs = 64, .wi_per_wg = 256});

    const std::string key =
        harness::SweepCache::keyFor(model, kernel, grid);
    ASSERT_FALSE(key.empty());
    EXPECT_EQ(key, harness::SweepCache::keyFor(model, kernel, grid));

    // Any model input shifting must shift the key: kernel fields...
    gpu::KernelDesc other = kernel;
    other.mlp += 1.0;
    EXPECT_NE(key, harness::SweepCache::keyFor(model, other, grid));
    other = kernel;
    other.serial_fraction = 0.25;
    EXPECT_NE(key, harness::SweepCache::keyFor(model, other, grid));

    // ...grid axes...
    auto grid2 = grid;
    grid2.mem_clks_mhz.back() += 1.0;
    EXPECT_NE(key, harness::SweepCache::keyFor(model, kernel, grid2));

    // ...fixed microarchitecture parameters of the base config...
    auto grid3 = grid;
    grid3.base.l2_slices *= 2;
    EXPECT_NE(key, harness::SweepCache::keyFor(model, kernel, grid3));

    // ...and model parameters.
    gpu::AnalyticParams params;
    params.atomic_retry_scale *= 2.0;
    const gpu::AnalyticModel other_model(params);
    EXPECT_NE(key,
              harness::SweepCache::keyFor(other_model, kernel, grid));

    // The overload sweepKernels() calls, on fingerprints taken once
    // per call, returns exactly the same bytes.
    EXPECT_EQ(key, harness::SweepCache::keyFor(model.fingerprint(), kernel,
                                               grid.fingerprint()));
}

TEST_F(SweepCacheTest, UncacheableModelsGetEmptyKeysAndAlwaysMiss)
{
    // The base-class fingerprint is "": models must opt in, because a
    // cross-model stale hit would be silent data corruption.
    class Uncacheable : public gpu::PerfModel
    {
      public:
        gpu::KernelPerf
        estimate(const gpu::KernelDesc &k,
                 const gpu::GpuConfig &c) const override
        {
            return inner_.estimate(k, c);
        }
        std::string name() const override { return "uncacheable"; }

      private:
        gpu::AnalyticModel inner_;
    };

    const Uncacheable model;
    EXPECT_EQ(model.fingerprint(), "");
    const auto grid = scaling::ConfigSpace::testGrid().grid();
    const auto kernel = workloads::streaming(
        "cache/test/k", {.wgs = 64, .wi_per_wg = 256});
    EXPECT_EQ(harness::SweepCache::keyFor(model, kernel, grid), "");

    std::vector<double> out;
    EXPECT_FALSE(harness::SweepCache::instance().lookup("", out));
    harness::SweepCache::instance().insert("", {1.0});
    EXPECT_EQ(harness::SweepCache::instance().entries(), 0u);
}

TEST_F(SweepCacheTest, NoisyModelIsCacheablePerSigmaAndSeed)
{
    const gpu::AnalyticModel inner;
    const harness::NoisyModel a(inner, 0.05, 1);
    const harness::NoisyModel b(inner, 0.05, 2);
    const harness::NoisyModel c(inner, 0.02, 1);

    ASSERT_FALSE(a.fingerprint().empty());
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    EXPECT_NE(a.fingerprint(), c.fingerprint());
    EXPECT_EQ(a.fingerprint(),
              harness::NoisyModel(inner, 0.05, 1).fingerprint());
}

TEST_F(SweepCacheTest, RepeatSweepHitsAndReturnsIdenticalRuntimes)
{
    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::testGrid();
    const auto *kernel =
        workloads::WorkloadRegistry::instance().findKernel(
            "rodinia/hotspot/calculate_temp");
    ASSERT_NE(kernel, nullptr);

    const uint64_t hits0 = counterValue("sweep.cache.hits");
    const uint64_t misses0 = counterValue("sweep.cache.misses");
    const uint64_t estimates0 = counterValue("sweep.estimates.count");

    const auto first = harness::sweepKernel(model, *kernel, space);
    EXPECT_EQ(counterValue("sweep.cache.misses"), misses0 + 1);
    EXPECT_EQ(counterValue("sweep.estimates.count"),
              estimates0 + space.size());

    const auto second = harness::sweepKernel(model, *kernel, space);
    EXPECT_EQ(counterValue("sweep.cache.hits"), hits0 + 1);
    // A hit recomputes nothing...
    EXPECT_EQ(counterValue("sweep.estimates.count"),
              estimates0 + space.size());
    // ...and returns the exact same doubles.
    ASSERT_EQ(first.runtimes().size(), second.runtimes().size());
    for (size_t i = 0; i < first.runtimes().size(); ++i)
        EXPECT_EQ(first.runtimes()[i], second.runtimes()[i]);

    // The same for a whole census: a second paper-grid sweep of every
    // kernel is served by the cache alone, one hit per kernel.
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();
    ASSERT_EQ(kernels.size(), 267u);
    const auto paper = scaling::ConfigSpace::paperGrid();
    const auto cold = harness::sweepKernels(model, kernels, paper);
    const uint64_t warm_hits0 = counterValue("sweep.cache.hits");
    const uint64_t warm_misses0 = counterValue("sweep.cache.misses");
    const uint64_t warm_estimates0 = counterValue("sweep.estimates.count");
    const auto warm = harness::sweepKernels(model, kernels, paper);
    EXPECT_EQ(counterValue("sweep.cache.hits"), warm_hits0 + 267);
    EXPECT_EQ(counterValue("sweep.cache.misses"), warm_misses0);
    EXPECT_EQ(counterValue("sweep.estimates.count"), warm_estimates0);
    ASSERT_EQ(cold.size(), warm.size());
    for (size_t k = 0; k < cold.size(); ++k)
        EXPECT_EQ(cold[k].runtimes(), warm[k].runtimes()) << k;
}

TEST_F(SweepCacheTest,
       FifoEvictionKeepsTheNewestEntriesAndSharedSurfacesSurviveIt)
{
    // The in-memory layer holds at most 4096 entries and evicts the
    // oldest first.
    constexpr size_t kCapacity = 4096;
    auto &cache = harness::SweepCache::instance();
    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::testGrid();
    const auto *kernel =
        workloads::WorkloadRegistry::instance().findKernel(
            "rodinia/hotspot/calculate_temp");
    ASSERT_NE(kernel, nullptr);

    // The oldest entry is a real sweep, and its surface holds the
    // cache's own vector rather than a copy of it.
    const auto surface = harness::sweepKernel(model, *kernel, space);
    const std::string sweep_key =
        harness::SweepCache::keyFor(model, *kernel, space.grid());
    const std::vector<double> swept = surface.runtimes();
    {
        const harness::SweepCache::Runtimes entry =
            cache.lookupShared(sweep_key);
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(entry.get(), &surface.runtimes());
    }

    const auto keyAt = [](size_t i) {
        return "eviction-test|k=" + std::to_string(i);
    };
    const auto runtimesAt = [](size_t i) {
        return std::vector<double>{1.0 + static_cast<double>(i), 0.5,
                                   0.25 * static_cast<double>(i + 1)};
    };
    // 4096 + 3 distinct keys in all, the sweep's included.
    const size_t last = kCapacity + 2;
    for (size_t i = 1; i <= last; ++i)
        cache.insert(keyAt(i), runtimesAt(i));

    EXPECT_EQ(cache.entries(), kCapacity);
    std::vector<double> out;
    EXPECT_FALSE(cache.lookup(sweep_key, out));
    EXPECT_FALSE(cache.lookup(keyAt(1), out));
    EXPECT_FALSE(cache.lookup(keyAt(2), out));
    EXPECT_TRUE(cache.lookup(keyAt(3), out));
    ASSERT_TRUE(cache.lookup(keyAt(last), out));
    const std::vector<double> newest = runtimesAt(last);
    ASSERT_EQ(out.size(), newest.size());
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], newest[i]);

    // Eviction dropped the cache's reference, not the surface's.
    ASSERT_EQ(surface.runtimes().size(), swept.size());
    for (size_t i = 0; i < swept.size(); ++i)
        EXPECT_EQ(surface.runtimes()[i], swept[i]);
}

TEST_F(SweepCacheTest, DiskLayerSurvivesInMemoryClear)
{
    const test::ScopedTempDir dir("sweep_cache_disk_test");
    harness::SweepCache::instance().setDirectory(dir.path());

    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::testGrid();
    const auto *kernel =
        workloads::WorkloadRegistry::instance().findKernel(
            "rodinia/hotspot/calculate_temp");
    ASSERT_NE(kernel, nullptr);

    const auto first = harness::sweepKernel(model, *kernel, space);
    const uint64_t disk_writes = counterValue("sweep.cache.disk.writes");
    EXPECT_GE(disk_writes, 1u);

    // Clearing memory simulates a fresh process; the sweep must now
    // be served from disk, bitwise identical.
    harness::SweepCache::instance().clear();
    const uint64_t disk_hits0 = counterValue("sweep.cache.disk.hits");
    const auto second = harness::sweepKernel(model, *kernel, space);
    EXPECT_EQ(counterValue("sweep.cache.disk.hits"), disk_hits0 + 1);
    for (size_t i = 0; i < first.runtimes().size(); ++i)
        EXPECT_EQ(first.runtimes()[i], second.runtimes()[i]);
}

TEST_F(SweepCacheTest, DiskWriteThatThrowsKeepsTheMemoryEntry)
{
    // An insert records to the disk layer before it links the entry
    // into memory; a disk write that throws must still leave the
    // entry in memory, as when memory went first.
    const test::ScopedTempDir dir("sweep_cache_disk_throw_test");
    auto &cache = harness::SweepCache::instance();
    cache.setDirectory(dir.path());
    FaultInjector::instance().arm(
        {{"sweep_cache.disk.write", 1.0, FaultKind::Exception, 0.0}}, 0);
    EXPECT_THROW(cache.insert("disk-throw|k", {1.0, 2.0}),
                 FaultInjectedError);
    FaultInjector::instance().disarm();

    EXPECT_EQ(cache.entries(), 1u);
    std::vector<double> out;
    ASSERT_TRUE(cache.lookup("disk-throw|k", out));
    EXPECT_EQ(out, (std::vector<double>{1.0, 2.0}));
}

TEST_F(SweepCacheTest, CorruptDiskEntryDegradesToMiss)
{
    const test::ScopedTempDir dir("sweep_cache_corrupt_test");
    harness::SweepCache::instance().setDirectory(dir.path());

    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::testGrid();
    const auto *kernel =
        workloads::WorkloadRegistry::instance().findKernel(
            "rodinia/hotspot/calculate_temp");
    ASSERT_NE(kernel, nullptr);
    const auto first = harness::sweepKernel(model, *kernel, space);

    // Truncate every file in the directory (the disk layer's journal)
    // and force a reload: the store finds no header, rewrites it and
    // replays nothing, so the sweep misses and recomputes.
    size_t truncated = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path())) {
        std::ofstream os(entry.path(), std::ios::trunc);
        ++truncated;
    }
    ASSERT_GE(truncated, 1u);
    harness::SweepCache::instance().clear();

    const uint64_t misses0 = counterValue("sweep.cache.misses");
    const auto second = harness::sweepKernel(model, *kernel, space);
    EXPECT_EQ(counterValue("sweep.cache.misses"), misses0 + 1);
    for (size_t i = 0; i < first.runtimes().size(); ++i)
        EXPECT_EQ(first.runtimes()[i], second.runtimes()[i]);
}

TEST_F(SweepCacheTest, TwoProcessWritersNeverTearDiskEntries)
{
    // Two forked processes share the cache directory's journal and
    // race to append records under the same key, each insert
    // flushing at once.  Appends and loads hold the journal's fcntl
    // lock, so a reader never sees two writers' records interleave:
    // every observable entry is one writer's complete payload.
    const test::ScopedTempDir dir("sweep_cache_two_writer_test");
    harness::SweepCache::instance().setDirectory(dir.path());

    const std::string key = "model=race-test|kernel=k|grid=g";
    const std::vector<double> payload_a = {1.25, 2.5, 3.75, 4.0625};
    const std::vector<double> payload_b = {9.5, 8.25, 7.125, 6.5, 5.0};

    const uint64_t corrupt0 = counterValue("sweep.cache.corrupt");

    const auto spawnWriter = [&](const std::vector<double> &payload) {
        const pid_t pid = ::fork();
        if (pid == 0) {
            for (int i = 0; i < 300; ++i)
                harness::SweepCache::instance().insert(key, payload);
            ::_exit(0);
        }
        return pid;
    };
    const pid_t writer_a = spawnWriter(payload_a);
    ASSERT_GT(writer_a, 0);
    const pid_t writer_b = spawnWriter(payload_b);
    ASSERT_GT(writer_b, 0);

    // Read while the writers race.  A miss is fine (nothing flushed
    // yet); a hit must be one complete payload, never an
    // interleaving of the two.
    for (int i = 0; i < 200; ++i) {
        harness::SweepCache::instance().clear(); // force a disk read
        std::vector<double> out;
        if (!harness::SweepCache::instance().lookup(key, out))
            continue;
        EXPECT_TRUE(out == payload_a || out == payload_b)
            << "torn entry observed on read " << i;
    }

    int status = -1;
    ASSERT_EQ(::waitpid(writer_a, &status, 0), writer_a);
    EXPECT_EQ(status, 0);
    status = -1;
    ASSERT_EQ(::waitpid(writer_b, &status, 0), writer_b);
    EXPECT_EQ(status, 0);

    // The last record for the key must be intact, and no record may
    // have failed its checks on any load (a torn or interleaved
    // record would have bumped the corrupt counter)...
    harness::SweepCache::instance().clear();
    std::vector<double> survivor;
    ASSERT_TRUE(harness::SweepCache::instance().lookup(key, survivor));
    EXPECT_TRUE(survivor == payload_a || survivor == payload_b);
    EXPECT_EQ(counterValue("sweep.cache.corrupt"), corrupt0);

    // ...and the writers left nothing but the journal behind: no
    // staging files.
    size_t stale_tmp = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path())) {
        if (entry.path().filename().string().find(".tmp") !=
            std::string::npos)
            ++stale_tmp;
    }
    EXPECT_EQ(stale_tmp, 0u);
}

TEST_F(SweepCacheTest, ConcurrentSweepsHitAndMissCoherently)
{
    // Many threads sweep the same few kernels concurrently through
    // sweepKernels(); every lookup must be either a hit or a miss
    // (lookups == hits + misses), every returned surface must be
    // bitwise identical, and TSan must stay quiet.
    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::testGrid();
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();
    const std::vector<const gpu::KernelDesc *> subset(
        kernels.begin(), kernels.begin() + 16);

    const uint64_t hits0 = counterValue("sweep.cache.hits");
    const uint64_t misses0 = counterValue("sweep.cache.misses");

    const auto reference = harness::sweepKernels(model, subset, space);

    constexpr size_t kRounds = 8;
    std::atomic<size_t> mismatches{0};
    harness::parallelFor(kRounds, [&](size_t) {
        // Nested sweepKernels calls degrade to serial inside the
        // pool, so this exercises cache lookups from worker threads.
        const auto surfaces =
            harness::sweepKernels(model, subset, space);
        for (size_t k = 0; k < surfaces.size(); ++k) {
            if (surfaces[k].runtimes() != reference[k].runtimes())
                mismatches.fetch_add(1);
        }
    });
    EXPECT_EQ(mismatches.load(), 0u);

    const uint64_t hits = counterValue("sweep.cache.hits") - hits0;
    const uint64_t misses =
        counterValue("sweep.cache.misses") - misses0;
    // (1 + kRounds) sweeps of 16 kernels: every lookup accounted for,
    // at least one miss (the first compute) and at least one hit.
    EXPECT_EQ(hits + misses, (1 + kRounds) * subset.size());
    EXPECT_GE(misses, subset.size());
    EXPECT_GE(hits, subset.size());
}

TEST_F(SweepCacheTest, InterruptedSweepKeepsEveryKernelItComputed)
{
    // A shard stages its misses and inserts them when it ends.  An
    // injected sweep.kernel exception must not lose the kernels its
    // shard computed before the throw: every kernel the model
    // evaluated is in the cache, and a retry evaluates only the rest.
    auto &cache = harness::SweepCache::instance();
    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::testGrid();
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();

    // The sweep runs inside a pool worker, where it takes
    // parallelFor's serial path: its shards run in order on one
    // thread, so the seeded draw that throws (the 22nd of the site's
    // stream) hits the same kernel on every host.  For every shard
    // count from 4 to 64 that kernel sits inside its shard, after
    // kernels the shard computed and staged.
    const uint64_t estimates0 = counterValue("sweep.estimates.count");
    FaultInjector::instance().arm(
        {{"sweep.kernel", 0.05, FaultKind::Exception, 0.0}}, 5);
    std::atomic<bool> threw{false};
    harness::parallelFor(2, [&](size_t i) {
        if (i != 0)
            return;
        try {
            harness::sweepKernels(model, kernels, space);
        } catch (const FaultInjectedError &) {
            threw = true;
        }
    }, 2);
    FaultInjector::instance().disarm();
    ASSERT_TRUE(threw.load());

    const uint64_t evaluated =
        (counterValue("sweep.estimates.count") - estimates0) / space.size();
    ASSERT_GT(evaluated, 0u);
    ASSERT_LT(evaluated, kernels.size());
    EXPECT_EQ(cache.entries(), evaluated);

    const uint64_t hits0 = counterValue("sweep.cache.hits");
    const uint64_t retry0 = counterValue("sweep.estimates.count");
    const auto surfaces = harness::sweepKernels(model, kernels, space);
    ASSERT_EQ(surfaces.size(), kernels.size());
    EXPECT_EQ(counterValue("sweep.cache.hits") - hits0, evaluated);
    EXPECT_EQ(counterValue("sweep.estimates.count") - retry0,
              (kernels.size() - evaluated) * space.size());
}

TEST_F(SweepCacheTest, ConcurrentMixedModelsNeverCrossContaminate)
{
    // Two cacheable models with different parameters sweeping the
    // same kernels concurrently must never serve each other's data.
    const gpu::AnalyticModel clean;
    const harness::NoisyModel noisy(clean, 0.1, 3);
    const auto space = scaling::ConfigSpace::testGrid();
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();
    const std::vector<const gpu::KernelDesc *> subset(
        kernels.begin(), kernels.begin() + 8);

    const auto ref_clean = harness::sweepKernels(clean, subset, space);
    const auto ref_noisy = harness::sweepKernels(noisy, subset, space);

    std::atomic<size_t> mismatches{0};
    harness::parallelFor(8, [&](size_t round) {
        const bool use_noisy = round % 2 == 1;
        const auto surfaces = harness::sweepKernels(
            use_noisy ? static_cast<const gpu::PerfModel &>(noisy)
                      : static_cast<const gpu::PerfModel &>(clean),
            subset, space);
        const auto &ref = use_noisy ? ref_noisy : ref_clean;
        for (size_t k = 0; k < surfaces.size(); ++k) {
            if (surfaces[k].runtimes() != ref[k].runtimes())
                mismatches.fetch_add(1);
        }
    });
    EXPECT_EQ(mismatches.load(), 0u);
}

} // namespace
} // namespace gpuscale
