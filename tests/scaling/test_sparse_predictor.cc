/**
 * @file
 * Property tests for the sparse-sample census predictor.
 *
 * The estimator's contract (docs/prediction.md) is behavioural, so
 * the tests are too: a full-grid fit must reproduce the dense census
 * bitwise, reconstructions must not care about sample order, and the
 * seeded sample planners must pick identical sequences across runs
 * and across threads (`ctest -j` runs this binary concurrently with
 * the rest of the suite).
 */

#include "scaling/sparse_predictor.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>

#include "base/logging.hh"
#include "base/random.hh"
#include "gpu/analytic_model.hh"
#include "harness/parallel.hh"
#include "harness/sweep.hh"
#include "workloads/registry.hh"

namespace gpuscale {
namespace scaling {
namespace {

/** Dense truth for one kernel on the fast 3x3x3 grid. */
ScalingSurface
denseSurface(const std::string &name)
{
    static const gpu::AnalyticModel model;
    const auto *kernel =
        workloads::WorkloadRegistry::instance().findKernel(name);
    EXPECT_NE(kernel, nullptr) << name;
    return harness::sweepKernel(model, *kernel,
                                ConfigSpace::testGrid());
}

std::vector<size_t>
allIndices(const ConfigSpace &space)
{
    std::vector<size_t> idx(space.size());
    for (size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    return idx;
}

std::vector<double>
runtimesAt(const ScalingSurface &surface,
           const std::vector<size_t> &indices)
{
    std::vector<double> out;
    out.reserve(indices.size());
    for (const size_t flat : indices)
        out.push_back(surface.runtimes()[flat]);
    return out;
}

TEST(SparsePredictorTest, FullGridFitReproducesDenseCensusBitwise)
{
    // Measured points pass through untouched, so fitting on every
    // grid point *is* the dense census — surface and classification
    // must match bitwise for every noise-free zoo kernel.
    const gpu::AnalyticModel model;
    const auto space = ConfigSpace::testGrid();
    const SparsePredictor predictor(space);
    const auto indices = allIndices(space);

    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();
    ASSERT_FALSE(kernels.empty());
    for (const auto *kernel : kernels) {
        const auto dense =
            harness::sweepKernel(model, *kernel, space);
        const auto rec = predictor.reconstruct(
            kernel->name, indices, dense.runtimes());
        ASSERT_EQ(rec.surface.runtimes(), dense.runtimes())
            << kernel->name;
        EXPECT_EQ(rec.cls.cls, classifySurface(dense).cls)
            << kernel->name;
        EXPECT_EQ(rec.samples, space.size());
    }
}

TEST(SparsePredictorTest, ReconstructionInvariantToSampleOrder)
{
    const auto space = ConfigSpace::testGrid();
    const SparsePredictor predictor(space);
    const auto dense =
        denseSurface("rodinia/hotspot/calculate_temp");

    auto indices = predictor.lhsPlan(12);
    auto runtimes = runtimesAt(dense, indices);
    const auto ordered = predictor.reconstruct(
        dense.kernelName(), indices, runtimes);

    // Deterministic shuffles: every permutation must reconstruct the
    // exact same bytes.
    Rng rng(7);
    for (int trial = 0; trial < 4; ++trial) {
        for (size_t i = indices.size(); i-- > 1;) {
            const size_t j = static_cast<size_t>(
                rng.uniformInt(0, static_cast<int64_t>(i)));
            std::swap(indices[i], indices[j]);
            std::swap(runtimes[i], runtimes[j]);
        }
        const auto shuffled = predictor.reconstruct(
            dense.kernelName(), indices, runtimes);
        ASSERT_EQ(shuffled.surface.runtimes(),
                  ordered.surface.runtimes());
        ASSERT_EQ(shuffled.lower, ordered.lower);
        ASSERT_EQ(shuffled.upper, ordered.upper);
        EXPECT_EQ(shuffled.cls.cls, ordered.cls.cls);
        EXPECT_EQ(shuffled.confidence, ordered.confidence);
        EXPECT_EQ(shuffled.band_crosses_boundary,
                  ordered.band_crosses_boundary);
    }
}

TEST(SparsePredictorTest, LhsPlanIsDeterministicDistinctAndCovering)
{
    const auto space = ConfigSpace::testGrid();
    SparseFitOptions options;
    options.seed = 42;
    const SparsePredictor a(space, options);
    const SparsePredictor b(space, options);

    const auto plan_a = a.lhsPlan(14);
    const auto plan_b = b.lhsPlan(14);
    EXPECT_EQ(plan_a, plan_b);
    EXPECT_EQ(plan_a.size(), 14u);

    const std::set<size_t> distinct(plan_a.begin(), plan_a.end());
    EXPECT_EQ(distinct.size(), plan_a.size());

    // Every axis level must be touched (the anchor slices alone
    // guarantee it; the draw must not break it).
    std::set<size_t> cu, core, mem;
    for (const size_t flat : plan_a) {
        const auto axis = space.unflatten(flat);
        cu.insert(axis.cu);
        core.insert(axis.core);
        mem.insert(axis.mem);
    }
    EXPECT_EQ(cu.size(), space.numCu());
    EXPECT_EQ(core.size(), space.numCoreClk());
    EXPECT_EQ(mem.size(), space.numMemClk());
}

TEST(SparsePredictorTest, AnchorsAreTheClassificationSlices)
{
    const auto space = ConfigSpace::testGrid();
    const SparsePredictor predictor(space);
    const auto anchors = predictor.anchorConfigs();

    EXPECT_TRUE(std::is_sorted(anchors.begin(), anchors.end()));
    const std::set<size_t> set(anchors.begin(), anchors.end());
    EXPECT_EQ(set.size(), anchors.size());

    const size_t cu_hi = space.numCu() - 1;
    const size_t core_hi = space.numCoreClk() - 1;
    const size_t mem_hi = space.numMemClk() - 1;
    for (size_t i = 0; i < space.numCu(); ++i)
        EXPECT_TRUE(set.count(space.flatten(i, core_hi, mem_hi)));
    for (size_t j = 0; j < space.numCoreClk(); ++j)
        EXPECT_TRUE(set.count(space.flatten(cu_hi, j, mem_hi)));
    for (size_t k = 0; k < space.numMemClk(); ++k)
        EXPECT_TRUE(set.count(space.flatten(cu_hi, core_hi, k)));
    EXPECT_TRUE(set.count(space.flatten(0, 0, 0)));
    EXPECT_EQ(predictor.minSamples(), anchors.size() + 1);
}

TEST(SparsePredictorTest, ActivePlanIdenticalAcrossRunsAndThreads)
{
    const auto space = ConfigSpace::testGrid();
    const SparsePredictor predictor(space);
    const auto dense = denseSurface("rodinia/bfs/kernel2");
    const auto measure = [&](size_t flat) {
        return dense.runtimes()[flat];
    };

    const auto reference = predictor.activePlan(14, measure);
    EXPECT_EQ(reference.size(), 14u);
    const std::set<size_t> distinct(reference.begin(),
                                    reference.end());
    EXPECT_EQ(distinct.size(), reference.size());

    // Re-planning must pick the identical sequence, including when
    // several plans run concurrently on the worker pool (the ctest -j
    // regime): the planner may share no hidden mutable state.
    std::vector<std::vector<size_t>> plans(8);
    harness::parallelFor(plans.size(), [&](size_t p) {
        plans[p] = predictor.activePlan(14, measure);
    });
    for (const auto &plan : plans)
        EXPECT_EQ(plan, reference);
}

TEST(SparsePredictorTest, MeasuredPointsPassThroughWithZeroBands)
{
    const auto space = ConfigSpace::testGrid();
    const SparsePredictor predictor(space);
    const auto dense = denseSurface("rodinia/bfs/kernel1");

    const auto indices = predictor.lhsPlan(12);
    const auto runtimes = runtimesAt(dense, indices);
    const auto rec = predictor.reconstruct(dense.kernelName(),
                                           indices, runtimes);

    EXPECT_EQ(rec.samples, indices.size());
    EXPECT_GE(rec.confidence, 0.0);
    EXPECT_LE(rec.confidence, 1.0);
    const std::set<size_t> sampled(indices.begin(), indices.end());
    for (size_t flat = 0; flat < space.size(); ++flat) {
        const double point = rec.surface.runtimes()[flat];
        EXPECT_LE(rec.lower[flat], point);
        EXPECT_GE(rec.upper[flat], point);
        if (sampled.count(flat)) {
            // Bitwise pass-through, zero-width band.
            EXPECT_EQ(point, dense.runtimes()[flat]);
            EXPECT_EQ(rec.lower[flat], point);
            EXPECT_EQ(rec.upper[flat], point);
        } else {
            EXPECT_GT(point, 0.0);
        }
    }
}

/** FNV-1a over `bytes` raw bytes, continuing from `h`. */
uint64_t
fnv1a(uint64_t h, const void *data, size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Every output byte of one reconstruction folded into `h`: the point
 * surface, both band edges, confidence, band flag and class.
 */
uint64_t
digestInto(uint64_t h, const SparseReconstruction &rec)
{
    const auto &point = rec.surface.runtimes();
    h = fnv1a(h, point.data(), point.size() * sizeof(double));
    h = fnv1a(h, rec.lower.data(), rec.lower.size() * sizeof(double));
    h = fnv1a(h, rec.upper.data(), rec.upper.size() * sizeof(double));
    h = fnv1a(h, &rec.confidence, sizeof rec.confidence);
    const unsigned char band = rec.band_crosses_boundary ? 1 : 0;
    h = fnv1a(h, &band, 1);
    const int cls = static_cast<int>(rec.cls.cls);
    return fnv1a(h, &cls, sizeof cls);
}

/**
 * Digest of the 89-sample (10%) paper-grid reconstruction of every
 * `stride`-th zoo kernel, LHS or active plan.
 */
uint64_t
zooDigest(uint64_t seed, SamplerKind sampler, size_t stride)
{
    const gpu::AnalyticModel model;
    const auto space = ConfigSpace::paperGrid();
    SparseFitOptions options;
    options.seed = seed;
    const SparsePredictor predictor(space, options);
    const auto lhs = predictor.lhsPlan(89);

    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t k = 0; k < kernels.size(); k += stride) {
        const auto dense = harness::sweepKernel(model, *kernels[k], space);
        const auto plan =
            sampler == SamplerKind::Lhs
                ? lhs
                : predictor.activePlan(89, [&](size_t flat) {
                      return dense.runtimes()[flat];
                  });
        h = digestInto(h, predictor.reconstruct(kernels[k]->name, plan,
                                                runtimesAt(dense, plan)));
    }
    return h;
}

TEST(SparsePredictorTest, ZooReconstructionDigestsArePinned)
{
    // The golden sparse CSV prints the point surface's columns only;
    // these digests pin every byte of the bands as well.  A change to
    // the fit, the ensemble or the classifier that moves any output
    // bit fails here.
    EXPECT_EQ(zooDigest(0, SamplerKind::Lhs, 1), 0xb20122e2b9a64f27ull);
    EXPECT_EQ(zooDigest(3, SamplerKind::Lhs, 1), 0x389a556a4ba12926ull);
    EXPECT_EQ(zooDigest(0, SamplerKind::Active, 16), 0x7263bb245d2cf51aull);
}

TEST(SparsePredictorTest, SamplerKindNamesRoundTrip)
{
    SamplerKind kind = SamplerKind::Active;
    EXPECT_TRUE(parseSamplerKind("lhs", &kind));
    EXPECT_EQ(kind, SamplerKind::Lhs);
    EXPECT_TRUE(parseSamplerKind("active", &kind));
    EXPECT_EQ(kind, SamplerKind::Active);
    EXPECT_FALSE(parseSamplerKind("sobol", &kind));
    EXPECT_EQ(samplerKindName(SamplerKind::Lhs), "lhs");
    EXPECT_EQ(samplerKindName(SamplerKind::Active), "active");
}

class SparsePredictorFatalTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLogThrowOnTerminate(true); }
    void TearDown() override { setLogThrowOnTerminate(false); }
};

TEST_F(SparsePredictorFatalTest, RejectsBadBudgetsAndSamples)
{
    const auto space = ConfigSpace::testGrid();
    const SparsePredictor predictor(space);
    const auto dense = denseSurface("rodinia/hotspot/calculate_temp");
    const auto measure = [&](size_t flat) {
        return dense.runtimes()[flat];
    };

    // Budgets outside [minSamples, grid size].
    EXPECT_THROW(predictor.lhsPlan(predictor.minSamples() - 1),
                 std::runtime_error);
    EXPECT_THROW(predictor.lhsPlan(space.size() + 1),
                 std::runtime_error);
    EXPECT_THROW(
        predictor.activePlan(predictor.minSamples() - 1, measure),
        std::runtime_error);

    // Malformed samples.  A runtime must be finite and positive: one
    // +inf among the samples would reconstruct most of the grid as
    // non-finite, and NaN is no runtime at all.
    const std::vector<size_t> one_idx{0};
    for (const double bad : {-1.0, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()})
    {
        const std::vector<double> one_bad{bad};
        EXPECT_THROW(predictor.fitSurface(one_idx, one_bad),
                     std::runtime_error)
            << bad;
        const auto plan = predictor.lhsPlan(12);
        auto runtimes = runtimesAt(dense, plan);
        runtimes[7] = bad;
        EXPECT_THROW(predictor.fitSurface(plan, runtimes),
                     std::runtime_error)
            << bad;
        EXPECT_THROW(predictor.reconstruct(dense.kernelName(), plan,
                                           runtimes),
                     std::runtime_error)
            << bad;
    }
    const std::vector<size_t> out_of_range{space.size()};
    const std::vector<double> ok{1.0};
    EXPECT_THROW(predictor.fitSurface(out_of_range, ok),
                 std::runtime_error);
    EXPECT_THROW(predictor.fitSurface({}, {}), std::runtime_error);

    // A duplicated index with *conflicting* runtimes is a data bug,
    // not something to average away.
    const std::vector<size_t> dup_idx{3, 3};
    const std::vector<double> conflicting{1.0, 2.0};
    EXPECT_THROW(predictor.fitSurface(dup_idx, conflicting),
                 std::runtime_error);
}

} // namespace
} // namespace scaling
} // namespace gpuscale
