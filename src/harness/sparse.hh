/**
 * @file
 * Sparse census driver: the taxonomy census from a sample budget.
 *
 * The dense census (experiment.hh) measures every kernel at every
 * grid point — 267 x 891 model estimates.  This driver instead plans
 * a k-point sample per kernel (scaling::SparsePredictor), measures
 * only those configurations, and reconstructs the rest, producing a
 * full classification census with a confidence column at a fraction
 * of the measurement cost.
 *
 * Harness concerns live here, not in the predictor: model calls, the
 * sweep cache (the sampled points of a (model, kernel, grid, plan)
 * are cache-keyed like full-sweep vectors, so a re-run measures
 * nothing), parallelFor sharding, and telemetry
 * (sparse.samples.count / sparse.fit.latency / sparse.agreement).
 */

#ifndef GPUSCALE_HARNESS_SPARSE_HH
#define GPUSCALE_HARNESS_SPARSE_HH

#include <optional>
#include <vector>

#include "obs/progress.hh"
#include "obs/run_manifest.hh"
#include "scaling/sparse_predictor.hh"
#include "scaling/taxonomy.hh"
#include "sweep.hh"

namespace gpuscale {
namespace harness {

/** What a sparse census measures and how it reconstructs. */
struct SparseCensusOptions {
    /** Configurations measured per kernel. */
    size_t samples = 64;

    /** How the non-anchor budget is spent. */
    scaling::SamplerKind sampler = scaling::SamplerKind::Lhs;

    /** Seed for the sample plans and bootstrap ensembles. */
    uint64_t seed = 0;

    /** Bootstrap ensemble size (bands + confidence). */
    size_t ensemble = 12;
};

/** Sparse-census result: one reconstruction per zoo kernel. */
struct SparseCensusResult {
    scaling::ConfigSpace space;
    SparseCensusOptions options;

    /** Per-kernel reconstructions, in zoo order. */
    std::vector<scaling::SparseReconstruction> reconstructions;

    /**
     * The reconstructions' classifications, in the same order — the
     * shape existing report/analysis code consumes.
     */
    std::vector<scaling::KernelClassification> classifications;
};

/**
 * Run the sparse census over all zoo kernels: plan, measure, and
 * reconstruct each kernel, sharded over the worker pool exactly like
 * the dense sweepKernels().
 *
 * @param space grid to reconstruct (defaults to the paper grid).
 * @param progress optional reporter ticked once per kernel.
 */
SparseCensusResult runSparseCensus(
    const gpu::PerfModel &model,
    std::optional<scaling::ConfigSpace> space = std::nullopt,
    const SparseCensusOptions &options = SparseCensusOptions{},
    const scaling::TaxonomyParams &params = scaling::TaxonomyParams{},
    obs::ProgressReporter *progress = nullptr);

/**
 * Start a run manifest for a sparse census (model, kernel/grid
 * counts, axes) with the sparse extras — sampler, per-kernel budget,
 * seed — in the extras map.
 */
obs::RunManifest sparseCensusManifest(const SparseCensusResult &census,
                                      const gpu::PerfModel &model);

/**
 * Fraction of kernels whose sparse class matches the dense census's,
 * by kernel name; kernels absent from `dense` are ignored.  The
 * accuracy gate's statistic.
 */
double sparseAgreement(
    const SparseCensusResult &sparse,
    const std::vector<scaling::KernelClassification> &dense);

} // namespace harness
} // namespace gpuscale

#endif // GPUSCALE_HARNESS_SPARSE_HH
