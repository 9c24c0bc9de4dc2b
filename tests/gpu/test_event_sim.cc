/**
 * @file
 * Tests for the discrete-event model: resource semantics, determinism,
 * and agreement with the analytic model on anchor kernels.
 */

#include "gpu/timing/event_sim.hh"

#include <gtest/gtest.h>

#include "gpu/analytic_model.hh"
#include "gpu/gpu_config.hh"
#include "gpu/kernel_desc.hh"
#include "gpu/timing/resource.hh"
#include "workloads/archetypes.hh"

namespace gpuscale {
namespace gpu {
namespace {

using timing::EventModel;
using timing::EventSimParams;
using timing::PipeResource;

TEST(PipeResourceTest, FifoServiceSemantics)
{
    PipeResource pipe("p", 100.0); // 100 units/s
    // First request: starts immediately, takes 0.5 s.
    EXPECT_DOUBLE_EQ(pipe.serve(0.0, 50.0), 0.5);
    // Second request arriving earlier still queues behind the first.
    EXPECT_DOUBLE_EQ(pipe.serve(0.1, 10.0), 0.6);
    // A request arriving after the pipe is free starts on arrival.
    EXPECT_DOUBLE_EQ(pipe.serve(2.0, 100.0), 3.0);
    EXPECT_DOUBLE_EQ(pipe.totalWork(), 160.0);
    EXPECT_DOUBLE_EQ(pipe.busyTime(), 1.6);
}

TEST(PipeResourceTest, UtilizationAndReset)
{
    PipeResource pipe("p", 10.0);
    pipe.serve(0.0, 10.0); // busy 1 s
    EXPECT_DOUBLE_EQ(pipe.utilization(2.0), 0.5);
    EXPECT_DOUBLE_EQ(pipe.utilization(0.5), 1.0); // clamped
    pipe.reset();
    EXPECT_DOUBLE_EQ(pipe.totalWork(), 0.0);
    EXPECT_DOUBLE_EQ(pipe.nextFree(), 0.0);
}

TEST(PipeResourceTest, ZeroWorkIsInstant)
{
    PipeResource pipe("p", 10.0);
    EXPECT_DOUBLE_EQ(pipe.serve(1.0, 0.0), 1.0);
}

TEST(EventModelTest, Deterministic)
{
    const EventModel model;
    const KernelDesc k = workloads::streaming(
        "t/s/k", {.wgs = 256, .wi_per_wg = 256});
    const KernelPerf a = model.estimate(k, makeMidConfig());
    const KernelPerf b = model.estimate(k, makeMidConfig());
    EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
}

TEST(EventModelTest, SeedChangesRuntimeOnlySlightly)
{
    EventSimParams p1, p2;
    p2.seed = 999;
    const EventModel m1(p1), m2(p2);
    const KernelDesc k = workloads::streaming(
        "t/s/k", {.wgs = 512, .wi_per_wg = 256});
    const KernelPerf a = m1.estimate(k, makeMaxConfig());
    const KernelPerf b = m2.estimate(k, makeMaxConfig());
    // Stochastic cache-level selection differs, but steady-state
    // behaviour should not.
    EXPECT_NEAR(a.time_s / b.time_s, 1.0, 0.05);
}

TEST(EventModelTest, AgreesWithAnalyticOnStreaming)
{
    const EventModel event;
    const AnalyticModel analytic;
    const KernelDesc k = workloads::streaming(
        "t/s/k", {.wgs = 2048, .wi_per_wg = 256});
    const GpuConfig cfg = makeMaxConfig();
    const double te = event.estimate(k, cfg).time_s;
    const double ta = analytic.estimate(k, cfg).time_s;
    EXPECT_NEAR(te / ta, 1.0, 0.25);
}

TEST(EventModelTest, AgreesWithAnalyticOnCompute)
{
    const EventModel event;
    const AnalyticModel analytic;
    const KernelDesc k = workloads::denseCompute(
        "t/c/k", {.wgs = 1024, .wi_per_wg = 256});
    const GpuConfig cfg = makeMaxConfig();
    const double te = event.estimate(k, cfg).time_s;
    const double ta = analytic.estimate(k, cfg).time_s;
    EXPECT_NEAR(te / ta, 1.0, 0.25);
}

TEST(EventModelTest, ReproducesCoreClockScaling)
{
    const EventModel model;
    const KernelDesc k = workloads::denseCompute(
        "t/c/k", {.wgs = 1024, .wi_per_wg = 256});
    GpuConfig lo = makeMaxConfig();
    lo.core_clk_mhz = 200.0;
    const double slow = model.estimate(k, lo).time_s;
    const double fast = model.estimate(k, makeMaxConfig()).time_s;
    EXPECT_NEAR(slow / fast, 5.0, 0.5);
}

TEST(EventModelTest, ReproducesMemoryClockScaling)
{
    const EventModel model;
    const KernelDesc k = workloads::streaming(
        "t/s/k", {.wgs = 2048, .wi_per_wg = 256});
    GpuConfig lo = makeMaxConfig();
    lo.mem_clk_mhz = 150.0;
    const double slow = model.estimate(k, lo).time_s;
    const double fast = model.estimate(k, makeMaxConfig()).time_s;
    EXPECT_NEAR(slow / fast, 8.33, 1.2);
}

TEST(EventModelTest, LaunchCapExtrapolates)
{
    EventSimParams capped;
    capped.max_simulated_waves = 512;
    const EventModel small(capped);
    const EventModel full; // default cap far above this launch

    const KernelDesc k = workloads::streaming(
        "t/s/k", {.wgs = 2048, .wi_per_wg = 256}); // 8192 waves
    const GpuConfig cfg = makeMaxConfig();
    const double extrapolated = small.estimate(k, cfg).time_s;
    const double simulated = full.estimate(k, cfg).time_s;
    EXPECT_NEAR(extrapolated / simulated, 1.0, 0.30);
}

TEST(EventModelTest, ResourceBreakdownPopulated)
{
    const EventModel model;
    const KernelDesc k = workloads::streaming(
        "t/s/k", {.wgs = 512, .wi_per_wg = 256});
    const KernelPerf perf = model.estimate(k, makeMaxConfig());
    EXPECT_GT(perf.t_dram, 0.0);
    EXPECT_GT(perf.t_compute, 0.0);
    EXPECT_GT(perf.achieved_dram_bw, 0.0);
    EXPECT_EQ(perf.bound, BoundResource::Dram);
}


TEST(EventModelTest, InstrumentedRunRecordsStats)
{
    const EventModel model;
    const KernelDesc k = workloads::streaming(
        "t/s/k", {.wgs = 128, .wi_per_wg = 256});
    timing::EventSimStats stats;
    const KernelPerf perf = model.estimate(k, makeMaxConfig(), stats);

    // Instrumentation must not change the result.
    const KernelPerf plain = model.estimate(k, makeMaxConfig());
    EXPECT_DOUBLE_EQ(perf.time_s, plain.time_s);

    EXPECT_EQ(stats.waves_simulated, 512);
    EXPECT_EQ(stats.workgroups_simulated, 128);
    EXPECT_GT(stats.events, 0);
    EXPECT_GT(stats.dram_bytes, 0.0);
    EXPECT_GT(stats.dram_utilization, 0.0);
    EXPECT_LE(stats.dram_utilization, 1.0);
}

TEST(EventModelTest, StatsBytesMatchTrafficModel)
{
    // The DRAM bytes the event simulator actually moves should agree
    // with the cache model's traffic accounting.
    const EventModel model;
    const KernelDesc k = workloads::streaming(
        "t/s/k", {.wgs = 256, .wi_per_wg = 256});
    const GpuConfig cfg = makeMaxConfig();
    timing::EventSimStats stats;
    const KernelPerf perf = model.estimate(k, cfg, stats);

    const double expected_dram =
        k.totalBytesRequested() * perf.cache.dram_traffic_per_byte;
    EXPECT_NEAR(stats.dram_bytes / expected_dram, 1.0, 0.10);
}

} // namespace
} // namespace gpu
} // namespace gpuscale
