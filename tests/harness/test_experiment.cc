/**
 * @file
 * Tests for the shared experiment drivers (on the fast test grid).
 */

#include "harness/experiment.hh"

#include <gtest/gtest.h>

#include <string>

#include "gpu/analytic_model.hh"
#include "harness/sweep_cache.hh"
#include "obs/metrics.hh"
#include "workloads/registry.hh"

namespace gpuscale {
namespace harness {
namespace {

const CensusResult &
testCensus()
{
    static const CensusResult census = runCensus(
        gpu::AnalyticModel{}, scaling::ConfigSpace::testGrid());
    return census;
}

TEST(ExperimentTest, CensusCoversWholeZoo)
{
    const auto &census = testCensus();
    EXPECT_EQ(census.surfaces.size(), 267u);
    EXPECT_EQ(census.classifications.size(), 267u);
    EXPECT_EQ(census.space.size(), 27u);
}

void
expectSameVerdict(const scaling::ShapeVerdict &pooled,
                  const scaling::ShapeVerdict &serial,
                  const std::string &what)
{
    EXPECT_EQ(pooled.shape, serial.shape) << what;
    EXPECT_EQ(pooled.total_gain, serial.total_gain) << what;
    EXPECT_EQ(pooled.ideal_gain, serial.ideal_gain) << what;
    EXPECT_EQ(pooled.efficiency, serial.efficiency) << what;
    EXPECT_EQ(pooled.monotone_fraction, serial.monotone_fraction)
        << what;
    EXPECT_EQ(pooled.saturation_knob, serial.saturation_knob) << what;
    EXPECT_EQ(pooled.linearity_r2, serial.linearity_r2) << what;
}

/**
 * runCensus classifies each surface in the pool shard that swept it;
 * the serial classifyAll over the same surfaces is the reference,
 * field by field and bit for bit.
 */
void
expectPooledMatchesSerial(const CensusResult &census)
{
    const auto serial = scaling::classifyAll(census.surfaces);
    ASSERT_EQ(census.classifications.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        const auto &pooled = census.classifications[i];
        const auto &ref = serial[i];
        EXPECT_EQ(pooled.kernel, ref.kernel);
        EXPECT_EQ(pooled.cls, ref.cls) << ref.kernel;
        expectSameVerdict(pooled.freq, ref.freq, ref.kernel + " freq");
        expectSameVerdict(pooled.mem, ref.mem, ref.kernel + " mem");
        expectSameVerdict(pooled.cu, ref.cu, ref.kernel + " cu");
        EXPECT_EQ(pooled.perf_range, ref.perf_range) << ref.kernel;
        EXPECT_EQ(pooled.cu90, ref.cu90) << ref.kernel;
    }
}

TEST(ExperimentTest, PooledClassificationMatchesClassifyAll)
{
    expectPooledMatchesSerial(testCensus());
}

TEST(ExperimentTest, ColdCensusIsOneParallelRegion)
{
    // Sweep and classification share one pool region: no second
    // parallelFor classifies after the sweep.
    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::paperGrid();
    obs::Counter &invocations =
        obs::Registry::instance().counter("parallel.invocations");
    SweepCache::instance().clear();
    const uint64_t before = invocations.value();
    const auto census = runCensus(model, space);
    EXPECT_EQ(invocations.value() - before, 1u);
    EXPECT_EQ(census.classifications.size(), 267u);
}

TEST(ExperimentTest, SurfacesAndClassificationsAligned)
{
    const auto &census = testCensus();
    for (size_t i = 0; i < census.surfaces.size(); ++i) {
        EXPECT_EQ(census.surfaces[i].kernelName(),
                  census.classifications[i].kernel);
    }
}

TEST(ExperimentTest, FindHelpers)
{
    const auto &census = testCensus();
    const auto *c = findClassification(
        census, "rodinia/hotspot/calculate_temp");
    ASSERT_NE(c, nullptr);
    const auto *s =
        findSurface(census, "rodinia/hotspot/calculate_temp");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(findClassification(census, "nope"), nullptr);
    EXPECT_EQ(findSurface(census, "nope"), nullptr);
}

TEST(ExperimentTest, RepresentativesAreDistinctClasses)
{
    const auto &census = testCensus();
    const auto reps = representativesPerClass(census);
    EXPECT_GE(reps.size(), 3u);
    std::set<scaling::TaxonomyClass> seen;
    for (const auto *rep : reps) {
        EXPECT_TRUE(seen.insert(rep->cls).second);
        // The representative is the widest-range member of its class.
        for (const auto &c : census.classifications) {
            if (c.cls == rep->cls) {
                EXPECT_LE(c.perf_range, rep->perf_range + 1e-12);
            }
        }
    }
}

TEST(ExperimentTest, DefaultSpaceIsPaperGrid)
{
    // Run one kernel through the default-space census path by using
    // the full census (this is the expensive path, still < 1 s).
    const auto census = runCensus(gpu::AnalyticModel{});
    EXPECT_EQ(census.space.size(), 891u);
    EXPECT_EQ(census.classifications.size(), 267u);
    expectPooledMatchesSerial(census);
}

} // namespace
} // namespace harness
} // namespace gpuscale
