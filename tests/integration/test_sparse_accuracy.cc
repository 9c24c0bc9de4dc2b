/**
 * @file
 * Accuracy gate for the sparse census.
 *
 * The sparse predictor's contract (ISSUE: reconstruct the 891-config
 * grid from ~5–10% of measured points) is enforced here at the 10%
 * budget (89 of 891 configurations):
 *
 *  - class agreement with the dense census must be >= 95% for BOTH
 *    samplers, and
 *  - every disagreement must be *flagged*: its confidence band has to
 *    straddle a class boundary (band_crosses_boundary), so a consumer
 *    filtering on the band never acts on a silently wrong class.
 *
 * Failures print the offending kernels (sparse vs dense class,
 * confidence, banded or not) so a regression names its defectors.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "gpu/analytic_model.hh"
#include "harness/experiment.hh"
#include "harness/sparse.hh"
#include "harness/sweep_cache.hh"
#include "obs/metrics.hh"
#include "scaling/taxonomy.hh"

namespace gpuscale {
namespace {

/** 10% of the paper grid, rounded down: 89 of 891 configurations. */
constexpr size_t kTenPercentBudget = 89;

const harness::CensusResult &
denseCensus()
{
    static const harness::CensusResult result =
        harness::runCensus(gpu::AnalyticModel{});
    return result;
}

harness::SparseCensusResult
sparseCensusWith(scaling::SamplerKind sampler)
{
    harness::SparseCensusOptions options;
    options.samples = kTenPercentBudget;
    options.sampler = sampler;
    options.seed = 0;
    return harness::runSparseCensus(gpu::AnalyticModel{},
                                    std::nullopt, options);
}

void
checkGate(scaling::SamplerKind sampler)
{
    const auto sparse = sparseCensusWith(sampler);
    ASSERT_EQ(sparse.reconstructions.size(),
              denseCensus().classifications.size());

    std::unordered_map<std::string, const scaling::KernelClassification *>
        dense_by_name;
    for (const auto &c : denseCensus().classifications)
        dense_by_name.emplace(c.kernel, &c);

    size_t disagreements = 0;
    size_t unbanded = 0;
    for (const auto &rec : sparse.reconstructions) {
        const auto it = dense_by_name.find(rec.cls.kernel);
        ASSERT_NE(it, dense_by_name.end()) << rec.cls.kernel;
        if (rec.cls.cls == it->second->cls)
            continue;
        ++disagreements;
        unbanded += rec.band_crosses_boundary ? 0 : 1;
        // Name every defector: which kernel, what the sparse census
        // thinks vs the dense truth, and whether the band flagged it.
        const char *flagged =
            rec.band_crosses_boundary ? "banded" : "UNBANDED";
        EXPECT_TRUE(rec.band_crosses_boundary)
            << scaling::samplerKindName(sampler) << " k=" << kTenPercentBudget
            << ": " << rec.cls.kernel << " sparse="
            << scaling::taxonomyClassName(rec.cls.cls) << " dense="
            << scaling::taxonomyClassName(it->second->cls)
            << " confidence=" << rec.confidence << " (" << flagged
            << ") — disagreement not flagged by its confidence band";
    }

    const double agreement =
        harness::sparseAgreement(sparse, denseCensus().classifications);
    EXPECT_GE(agreement, 0.95)
        << scaling::samplerKindName(sampler) << " sampler at "
        << kTenPercentBudget << "/" << denseCensus().space.size()
        << " samples: " << disagreements << " of "
        << sparse.reconstructions.size()
        << " kernels disagree with the dense census (" << unbanded
        << " without a boundary-crossing band)";
}

TEST(SparseAccuracyTest, LhsMeetsGateAtTenPercent)
{
    checkGate(scaling::SamplerKind::Lhs);
}

TEST(SparseAccuracyTest, ActiveMeetsGateAtTenPercent)
{
    checkGate(scaling::SamplerKind::Active);
}

TEST(SparseAccuracyTest, ActiveSamplerMeasuresEachPlannedConfigOnce)
{
    // activePlan() measures each configuration it chooses, once, in
    // plan order; the census keeps those runtimes instead of measuring
    // the plan again.  From a cleared cache every kernel's plan is a
    // miss, so the model runs exactly once per sample.
    const auto counter = [](const char *name) {
        return obs::Registry::instance().counter(name).value();
    };
    harness::SweepCache::instance().clear();
    harness::SparseCensusOptions options;
    options.samples = 12;
    options.sampler = scaling::SamplerKind::Active;
    const uint64_t estimates0 = counter("model.analytic.estimates");
    const uint64_t samples0 = counter("sparse.samples.count");
    const auto sparse = harness::runSparseCensus(
        gpu::AnalyticModel{}, scaling::ConfigSpace::testGrid(), options);
    const uint64_t samples = counter("sparse.samples.count") - samples0;
    EXPECT_EQ(samples, sparse.reconstructions.size() * options.samples);
    EXPECT_EQ(counter("model.analytic.estimates") - estimates0, samples);
}

TEST(SparseAccuracyTest, AgreementStatisticIsExactOnSelf)
{
    // sparseAgreement() compared against the sparse census's own
    // classifications must be exactly 1.0 — the statistic itself
    // cannot leak error into the gate.
    const auto sparse = sparseCensusWith(scaling::SamplerKind::Lhs);
    EXPECT_EQ(harness::sparseAgreement(sparse, sparse.classifications),
              1.0);
}

} // namespace
} // namespace gpuscale
