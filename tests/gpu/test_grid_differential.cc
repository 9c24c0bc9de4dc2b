/**
 * @file
 * Differential proof for the batched census engine.
 *
 * The batched AnalyticModel::evaluateGridRuntimes() hoists
 * grid-invariant work out of the per-configuration loop; the scalar
 * estimate() path is the oracle.  These tests drive both over every
 * zoo kernel and every paper-grid configuration (267 x 891 points)
 * and require bitwise-identical runtimes — not approximately equal,
 * identical — plus identical taxonomy classes end-to-end.  Any
 * hoisting mistake that reorders floating-point arithmetic fails
 * here.
 */

#include <gtest/gtest.h>

#include "gpu/analytic_model.hh"
#include "gpu/config_grid.hh"
#include "harness/noise.hh"
#include "scaling/config_space.hh"
#include "scaling/surface.hh"
#include "scaling/taxonomy.hh"
#include "workloads/archetypes.hh"
#include "workloads/registry.hh"

namespace gpuscale {
namespace {

/**
 * A model that inherits the scalar-walk evaluateGridRuntimes()
 * default, so the PerfModel base implementation itself is under test
 * too.
 */
class ScalarOnlyModel : public gpu::PerfModel
{
  public:
    gpu::KernelPerf
    estimate(const gpu::KernelDesc &kernel,
             const gpu::GpuConfig &cfg) const override
    {
        return inner_.estimate(kernel, cfg);
    }

    std::string name() const override { return "scalar-only"; }

  private:
    gpu::AnalyticModel inner_;
};

TEST(GridDifferentialTest, BatchedMatchesScalarBitwiseAllKernels)
{
    // evaluateGridRuntimes() is what the sweep harness calls: its flat
    // vector must equal the scalar oracle's time_s bit for bit at
    // every zoo kernel and every paper-grid point.
    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::paperGrid();
    const gpu::ConfigGrid &grid = space.grid();
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();
    ASSERT_EQ(kernels.size(), 267u);
    ASSERT_EQ(grid.size(), 891u);

    size_t points_checked = 0;
    for (const auto *kernel : kernels) {
        const auto batched = model.evaluateGridRuntimes(*kernel, grid);
        ASSERT_EQ(batched.size(), grid.size()) << kernel->name;
        for (size_t i = 0; i < grid.size(); ++i) {
            const auto idx = space.unflatten(i);
            // EXPECT_EQ on doubles is exact bit-for-bit comparison
            // (modulo -0.0 == 0.0, which never arises for runtimes).
            ASSERT_EQ(batched[i],
                      model.estimate(*kernel, space.at(i)).time_s)
                << kernel->name << " at flat=" << i << " cu="
                << idx.cu << " core=" << idx.core << " mem=" << idx.mem;
            ++points_checked;
        }
    }
    EXPECT_EQ(points_checked, 267u * 891u);
}

TEST(GridDifferentialTest, TaxonomyClassesIdenticalEndToEnd)
{
    // Classify every kernel from scalar-built and batched-built
    // surfaces; the taxonomy must agree kernel-for-kernel.
    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::paperGrid();
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();

    for (const auto *kernel : kernels) {
        std::vector<double> scalar_rt(space.size());
        for (size_t i = 0; i < space.size(); ++i)
            scalar_rt[i] = model.estimate(*kernel, space.at(i)).time_s;

        const auto cls_scalar = scaling::classifySurface(
            scaling::ScalingSurface(kernel->name, space, scalar_rt));
        const auto cls_batched =
            scaling::classifySurface(scaling::ScalingSurface(
                kernel->name, space,
                model.evaluateGridRuntimes(*kernel, space.grid())));
        EXPECT_EQ(cls_scalar.cls, cls_batched.cls) << kernel->name;
    }
}

TEST(GridDifferentialTest, DefaultEvaluateGridRuntimesIsTheScalarOracle)
{
    const ScalarOnlyModel scalar_only;
    const gpu::AnalyticModel analytic;
    const auto space = scaling::ConfigSpace::testGrid();
    const gpu::ConfigGrid &grid = space.grid();
    const auto *kernel =
        workloads::WorkloadRegistry::instance().findKernel(
            "rodinia/hotspot/calculate_temp");
    ASSERT_NE(kernel, nullptr);

    // The base-class default must itself match per-point estimates in
    // flatten order, and agree with the batched override bitwise.
    const auto defaults = scalar_only.evaluateGridRuntimes(*kernel, grid);
    const auto batched = analytic.evaluateGridRuntimes(*kernel, grid);
    ASSERT_EQ(defaults.size(), grid.size());
    for (size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(defaults[i],
                  scalar_only.estimate(*kernel, space.at(i)).time_s);
        EXPECT_EQ(defaults[i], batched[i]);
    }
}

TEST(GridDifferentialTest, NoisyBatchedMatchesNoisyScalar)
{
    // The decorator's batched path must replay the exact per-point
    // perturbation of its scalar path.
    const gpu::AnalyticModel inner;
    const harness::NoisyModel noisy(inner, 0.05, 42);
    const auto space = scaling::ConfigSpace::testGrid();
    const gpu::ConfigGrid &grid = space.grid();
    const auto *kernel =
        workloads::WorkloadRegistry::instance().findKernel(
            "shoc/reduction/reduce_stage");
    ASSERT_NE(kernel, nullptr);

    const auto batched = noisy.evaluateGridRuntimes(*kernel, grid);
    ASSERT_EQ(batched.size(), grid.size());
    for (size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(batched[i],
                  noisy.estimate(*kernel, space.at(i)).time_s);
    }
}

/** An axes-only grid inheriting the default base machine. */
gpu::ConfigGrid
customGrid(std::vector<int> cus, std::vector<double> cores,
           std::vector<double> mems)
{
    gpu::ConfigGrid grid;
    grid.cu_values = std::move(cus);
    grid.core_clks_mhz = std::move(cores);
    grid.mem_clks_mhz = std::move(mems);
    return grid;
}

/**
 * Drive the scalar oracle and evaluateGridRuntimes() over one grid
 * and require bitwise agreement at every point.
 */
void
expectBitwiseMatch(const gpu::PerfModel &model,
                   const gpu::KernelDesc &kernel,
                   const gpu::ConfigGrid &grid)
{
    const auto runtimes = model.evaluateGridRuntimes(kernel, grid);
    ASSERT_EQ(runtimes.size(), grid.size()) << kernel.name;
    for (size_t cu = 0; cu < grid.numCu(); ++cu) {
        for (size_t core = 0; core < grid.numCoreClk(); ++core) {
            for (size_t mem = 0; mem < grid.numMemClk(); ++mem) {
                ASSERT_EQ(runtimes[grid.flatten(cu, core, mem)],
                          model.estimate(kernel, grid.at(cu, core, mem))
                              .time_s)
                    << kernel.name << " cu=" << cu << " core=" << core
                    << " mem=" << mem;
            }
        }
    }
}

TEST(GridDifferentialTest, DegenerateGridsMatchScalarBitwise)
{
    // The paper grid's axis lengths are comfortable; the hoisted SoA
    // walk must also survive the shapes that break loop bookkeeping:
    // a single-point grid, single-point axes in each dimension, and a
    // 1-CU axis (which routes through the serial-machine path used
    // for Amdahl folding).
    const gpu::AnalyticModel model;
    const gpu::KernelDesc kernel = workloads::streaming(
        "diff/degenerate/stream", {.wgs = 512, .wi_per_wg = 256});

    expectBitwiseMatch(model, kernel, customGrid({44}, {1000.0}, {1250.0}));
    expectBitwiseMatch(model, kernel,
                       customGrid({1}, {300.0, 711.0, 1000.0}, {950.0}));
    expectBitwiseMatch(
        model, kernel,
        customGrid({8}, {455.0}, {150.0, 475.0, 925.0, 1375.0}));
    expectBitwiseMatch(model, kernel,
                       customGrid({1, 4}, {400.0, 800.0}, {500.0}));
}

TEST(GridDifferentialTest, IrregularAxisLengthsMatchScalarBitwise)
{
    // Axis lengths that do not divide the SIMD width (13 core clocks,
    // 7 memory clocks, 5 CU counts) force the vectorized stage-3 loop
    // through its scalar epilogue; kernels with atomics and a serial
    // fraction exercise every branch of the batched kernel.
    const gpu::AnalyticModel model;
    std::vector<double> cores, mems;
    for (int i = 0; i < 13; ++i)
        cores.push_back(307.0 + 53.0 * i);
    for (int i = 0; i < 7; ++i)
        mems.push_back(211.0 + 171.0 * i);
    const gpu::ConfigGrid grid =
        customGrid({1, 3, 7, 13, 44}, cores, mems);

    const gpu::KernelDesc stream = workloads::streaming(
        "diff/irregular/stream", {.wgs = 1024, .wi_per_wg = 256});
    const gpu::KernelDesc contended = workloads::reduction(
        "diff/irregular/reduce", {.wgs = 768, .wi_per_wg = 128}, 0.8);
    const gpu::KernelDesc compute = workloads::denseCompute(
        "diff/irregular/dense", {.wgs = 2048, .wi_per_wg = 64});

    ASSERT_GT(contended.atomic_ops, 0.0);
    ASSERT_GT(contended.serial_fraction, 0.0);
    expectBitwiseMatch(model, stream, grid);
    expectBitwiseMatch(model, contended, grid);
    expectBitwiseMatch(model, compute, grid);
}

TEST(GridDifferentialTest, NoisyRuntimesMatchNoisyScalarOnIrregularGrid)
{
    // The decorator's runtimes hot path must replay the exact
    // per-point lognormal factor on awkward grid shapes too.
    const gpu::AnalyticModel inner;
    const harness::NoisyModel noisy(inner, 0.07, 9);
    const gpu::ConfigGrid grid = customGrid(
        {1, 11, 44}, {333.0, 666.0, 999.0}, {200.0, 650.0, 1100.0,
        1400.0});
    const gpu::KernelDesc kernel = workloads::reduction(
        "diff/noisy/reduce", {.wgs = 256, .wi_per_wg = 256}, 0.5);

    expectBitwiseMatch(noisy, kernel, grid);
}

TEST(GridDifferentialTest, GridFlattenMatchesConfigSpace)
{
    const auto space = scaling::ConfigSpace::paperGrid();
    const gpu::ConfigGrid &grid = space.grid();
    ASSERT_EQ(grid.size(), space.size());
    for (size_t cu = 0; cu < grid.numCu(); ++cu) {
        for (size_t core = 0; core < grid.numCoreClk(); ++core) {
            for (size_t mem = 0; mem < grid.numMemClk(); ++mem) {
                EXPECT_EQ(grid.flatten(cu, core, mem),
                          space.flatten(cu, core, mem));
                EXPECT_EQ(grid.at(cu, core, mem).id(),
                          space.at(cu, core, mem).id());
            }
        }
    }
}

} // namespace
} // namespace gpuscale
