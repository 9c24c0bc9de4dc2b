/**
 * @file
 * Sparse-sample census prediction: the full 891-point scaling surface
 * from a handful of measured configurations.
 *
 * A real study pays minutes of hardware time per configuration, so
 * measuring every kernel at every grid point — the assumption the
 * taxonomy census makes — is exactly what keeps it from running
 * against real silicon.  Following Wang & Chu (arXiv:1701.05308),
 * this module fits an analytical scaling surface to k sampled
 * (configuration, runtime) points and reconstructs the remaining
 * grid:
 *
 *  - The fit is separable in the three swept knobs: log T(i, j, k) ~
 *    mu + cu_i + core_j + mem_k, one free parameter per axis *level*,
 *    estimated by ridge-regularized backfitting (alternating
 *    least-squares) over the samples in the log domain.  Separability
 *    is the structure the analytic model's roofline shape mostly
 *    honours; where it does not, the measured anchor curves (below)
 *    carry the classification.
 *  - Measured points pass through untouched: the reconstruction
 *    equals the measurement wherever one exists, so fitting on the
 *    full grid reproduces the dense census bitwise.
 *  - Every sample plan anchors the three classification slices (the
 *    CU / core-clock / memory-clock curves through the max corner):
 *    those ~27 points are what classifySurface() actually reads, and
 *    measuring them directly is the cheapest way to make a sparse
 *    classification trustworthy.  The remaining budget is spent by a
 *    Latin-hypercube draw (lhs) or by active learning (active): fit a
 *    bootstrap ensemble, measure next where the ensemble's
 *    predictions disagree most.
 *  - Confidence comes from the same ensemble: each member is a fit on
 *    a deterministic bootstrap resample of the samples; per-point
 *    bands are the ensemble envelope, and per-kernel confidence is
 *    the fraction of members whose classification matches the point
 *    estimate's.
 *
 * Everything is a pure function of (space, options, samples): fixed
 * iteration counts, ordered loops, and seeded Rng streams — no
 * convergence tests, no unordered containers, no wall clock — so two
 * runs (or two machines) reconstruct bitwise-identical censuses.
 */

#ifndef GPUSCALE_SCALING_SPARSE_PREDICTOR_HH
#define GPUSCALE_SCALING_SPARSE_PREDICTOR_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "base/random.hh"
#include "config_space.hh"
#include "surface.hh"
#include "taxonomy.hh"

namespace gpuscale {
namespace scaling {

/** How a sparse sample plan spends its non-anchor budget. */
enum class SamplerKind {
    /** One stratified Latin-hypercube draw up front. */
    Lhs,

    /** LHS seed, then greedy max-ensemble-disagreement picks. */
    Active,
};

/** Display / CLI name ("lhs", "active"). */
std::string samplerKindName(SamplerKind kind);

/** Parse a sampler name; false when unrecognized. */
bool parseSamplerKind(const std::string &name, SamplerKind *out);

/** Tunables for the sparse fit and its confidence ensemble. */
struct SparseFitOptions {
    /** Seed for every stochastic choice (LHS, bootstrap). */
    uint64_t seed = 0;

    /** Bootstrap ensemble size behind bands and confidence. */
    size_t ensemble = 12;

    /** Backfitting sweeps; fixed count, so the fit is deterministic. */
    size_t backfit_iterations = 32;

    /**
     * Ridge weight added to each level's sample count: shrinks
     * effects estimated from few samples toward the grand mean
     * instead of letting one noisy point own an axis level.
     */
    double ridge = 0.25;
};

/** One kernel's sparse reconstruction with uncertainty. */
struct SparseReconstruction {
    /**
     * Point-estimate surface: fitted values, with measured samples
     * passed through bitwise.
     */
    ScalingSurface surface;

    /** Per-point ensemble envelope (runtimes, seconds). @{ */
    std::vector<double> lower;
    std::vector<double> upper;
    /** @} */

    /** Classification of the point-estimate surface. */
    KernelClassification cls;

    /**
     * Fraction of ensemble members classified identically to cls —
     * the census.confidence column.  1.0 means the class is stable
     * under resampling; anything lower marks a kernel near a class
     * boundary.
     */
    double confidence = 1.0;

    /**
     * True when the confidence band straddles a class boundary: an
     * ensemble member, or the lower/upper envelope surface,
     * classifies differently from the point estimate.  A sparse
     * census should only ever disagree with the dense census on
     * kernels where this is set.
     */
    bool band_crosses_boundary = false;

    /** Number of distinct configurations measured. */
    size_t samples = 0;
};

/** Sparse-sample surface fitting and sample planning for one grid. */
class SparsePredictor
{
  public:
    /**
     * @param space the grid to reconstruct (axes of at least three
     *        values each, as classifySurface() requires).
     * @param options fit / ensemble tunables.
     */
    explicit SparsePredictor(ConfigSpace space,
                             SparseFitOptions options = {});

    const ConfigSpace &space() const { return space_; }
    const SparseFitOptions &options() const { return options_; }

    /**
     * The anchor configurations every plan measures first: the three
     * classification slices through the max corner (CU curve at max
     * clocks, core-clock and memory-clock curves at max CUs /
     * opposite clock), deduplicated, in ascending flat order.
     */
    std::vector<size_t> anchorConfigs() const;

    /** Smallest admissible budget: the anchors plus one free point. */
    size_t minSamples() const { return anchorConfigs().size() + 1; }

    /**
     * Latin-hypercube sample plan: the anchors, then a stratified
     * LHS draw over the grid until `budget` distinct configurations
     * are chosen.  Deterministic in (space, seed, budget); the
     * returned sequence is the measurement order.
     *
     * @param budget total configurations to measure, in
     *        [minSamples(), space().size()].
     */
    std::vector<size_t> lhsPlan(size_t budget) const;

    /**
     * Active-learning sample plan.  Seeds with the anchors plus a
     * third of the remaining budget as an LHS draw, then repeatedly
     * fits the bootstrap ensemble to everything measured so far and
     * measures the configuration with the widest ensemble spread in
     * log-runtime (ties break toward the lowest flat index).
     * Deterministic given (space, options, budget, measure).
     *
     * @param budget as lhsPlan().
     * @param measure called once per chosen configuration, in plan
     *        order, returning the measured runtime in seconds.
     * @return the chosen configurations in measurement order.
     */
    std::vector<size_t> activePlan(
        size_t budget,
        const std::function<double(size_t)> &measure) const;

    /**
     * Fit the separable surface and reconstruct every grid point.
     * Measured points pass through bitwise; sample order never
     * affects the result (samples are canonicalized internally).
     *
     * @param indices distinct flat configuration indices measured.
     * @param runtimes matching runtimes, seconds, all finite and
     *        positive.
     * @return predicted runtime at every grid point.
     */
    std::vector<double> fitSurface(
        std::span<const size_t> indices,
        std::span<const double> runtimes) const;

    /**
     * Full sparse reconstruction for one kernel: point-estimate
     * surface, bootstrap ensemble bands, classification, and
     * confidence.
     *
     * @param kernel_name name stamped on the surface/classification.
     * @param indices / runtimes as fitSurface().
     * @param params classifier thresholds.
     */
    SparseReconstruction reconstruct(
        const std::string &kernel_name,
        std::span<const size_t> indices,
        std::span<const double> runtimes,
        const TaxonomyParams &params = TaxonomyParams{}) const;

  private:
    struct Samples; ///< canonicalized (sorted, deduplicated) samples

    /**
     * Check and canonicalize the samples into this thread's sample
     * set, which the returned reference names until the thread's next
     * call.
     */
    const Samples &canonicalize(std::span<const size_t> indices,
                                std::span<const double> runtimes) const;

    /**
     * Backfit the log-additive model under several weightings of the
     * samples in one lockstep pass, one lane per weighting, and
     * predict every grid point of each (measured points pass
     * through).  With `point`, lane 0 is the unit-weight point
     * estimate; `members` bootstrap lanes follow, resampled from
     * streams salted by `kernel_name`.  Each fitted value must be
     * finite and positive, checked as it is written.
     *
     * @return every lane's surface in one buffer of this thread,
     *         lane by lane: lane l's runtime at flat index f is
     *         element l * space().size() + f.  Valid until the
     *         thread's next fit.
     */
    std::span<const double> fitLanes(const Samples &samples,
                                     const std::string &kernel_name,
                                     bool point, size_t members) const;

    /**
     * Whether `rec`'s envelope proves that every ensemble member and
     * band vector classifies as `rec.cls`, so that confidence 1.0 and
     * no band flag follow without classifying any of them.
     */
    bool envelopeSettlesVotes(const SparseReconstruction &rec,
                              const TaxonomyParams &params) const;

    /** Stratified LHS stream of flat indices (may repeat). */
    std::vector<size_t> lhsCandidates(size_t count, Rng &rng) const;

    ConfigSpace space_;
    SparseFitOptions options_;
};

} // namespace scaling
} // namespace gpuscale

#endif // GPUSCALE_SCALING_SPARSE_PREDICTOR_HH
