/**
 * @file
 * SparsePredictor implementation.
 *
 * Determinism rules (the property tests assert all of these):
 * samples are canonicalized to ascending flat order before any
 * arithmetic, every reduction is an explicitly-ordered loop, the
 * backfit runs a fixed iteration count, and all randomness flows
 * through seeded Rng streams derived from (options.seed, kernel
 * name, ensemble member) — never from global state.
 *
 * The point estimate and the bootstrap members are fitted together,
 * one lane each (docs/prediction.md, "The fitting model").  Each lane
 * performs the IEEE operations of a fit on its own, in the same
 * order, so running them side by side changes no bit.
 */

#include "sparse_predictor.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "base/logging.hh"
#include "base/random.hh"

namespace gpuscale {
namespace scaling {

namespace {

/** FNV-1a over a name: the per-kernel salt for ensemble streams. */
uint64_t
nameSalt(const std::string &name)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char ch : name) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * One axis of the lockstep backfit.  Its level effects and per-level
 * sums are lane-major, level l of lane j at [l * lanes + j], so the
 * lanes of one level sit side by side and the loops over them are
 * unit-stride.
 */
struct LaneAxis {
    std::vector<double> knob;   ///< knob value per level
    std::vector<size_t> row;    ///< per sample: its level's offset
    std::vector<double> effect; ///< level effects
    std::vector<double> den;    ///< per-level weight sums
    std::vector<double> total;  ///< per lane: den summed over levels
    std::vector<size_t> gaps;   ///< lanes with a level of zero weight

    size_t levels() const { return knob.size(); }

    /**
     * Start a fit: the knob values, each sample's row, zero effects,
     * and each lane's per-level weight sums.  The sums depend on the
     * weights alone, so a fit takes them once instead of every sweep.
     */
    void
    reset(const std::vector<size_t> &level_of, const auto &knob_values,
          const std::vector<double> &weights, size_t lanes)
    {
        knob.assign(knob_values.begin(), knob_values.end());
        row.resize(level_of.size());
        den.assign(levels() * lanes, 0.0);
        for (size_t s = 0; s < level_of.size(); ++s) {
            row[s] = level_of[s] * lanes;
            double *d = &den[row[s]];
            const double *w = &weights[s * lanes];
            for (size_t lane = 0; lane < lanes; ++lane)
                d[lane] += w[lane];
        }
        total.assign(lanes, 0.0);
        gaps.clear();
        for (size_t lane = 0; lane < lanes; ++lane) {
            bool gap = false;
            for (size_t l = 0; l < levels(); ++l) {
                total[lane] += den[l * lanes + lane];
                gap = gap || !(den[l * lanes + lane] > 0);
            }
            if (gap)
                gaps.push_back(lane);
        }
        effect.assign(levels() * lanes, 0.0);
    }

    /**
     * Fill one lane's unsampled levels by linear interpolation over
     * the knob values of the sampled ones (nearest-neighbour at the
     * ends: flat extrapolation is conservative where the data says
     * nothing).  Every lane weighs some sample, so some level is
     * sampled.
     */
    void
    fillGaps(size_t lane, size_t lanes)
    {
        const size_t n = levels();
        auto fitted = [&](size_t l) { return den[l * lanes + lane] > 0; };
        auto at = [&](size_t l) -> double & {
            return effect[l * lanes + lane];
        };
        for (size_t l = 0; l < n; ++l) {
            if (fitted(l))
                continue;
            // Nearest fitted level on each side.
            size_t lo = n, hi = n;
            for (size_t s = l; s-- > 0;) {
                if (fitted(s)) {
                    lo = s;
                    break;
                }
            }
            for (size_t s = l + 1; s < n; ++s) {
                if (fitted(s)) {
                    hi = s;
                    break;
                }
            }
            if (lo < n && hi < n) {
                const double t =
                    (knob[l] - knob[lo]) / (knob[hi] - knob[lo]);
                at(l) = at(lo) + t * (at(hi) - at(lo));
            } else if (lo < n) {
                at(l) = at(lo);
            } else {
                at(l) = at(hi);
            }
        }
    }
};

/** The lockstep fit's working set, per thread so its capacity lasts. */
struct LaneScratch {
    std::vector<double> weights; ///< [sample * lanes + lane]
    std::vector<double> mu;      ///< per lane
    std::vector<double> num;     ///< per-level residual sums
    std::vector<double> shift;   ///< per lane
    LaneAxis cu, core, mem;
};

/**
 * num += w * (y - mu - e1 - e2) in every lane: one sample's weighted
 * residual, evaluated left to right as a lane's own fit would.
 */
void
accumulateResiduals(double *__restrict__ num, const double *__restrict__ w,
                    double y, const double *__restrict__ mu,
                    const double *__restrict__ e1,
                    const double *__restrict__ e2, size_t lanes)
{
    // GPUSCALE_SPARSE_LANE_LOOP: the lanes of one sample in one
    // unit-stride loop.  ci/check_vectorization.sh fails if it stops
    // vectorizing; keep the marker directly above it.
    for (size_t lane = 0; lane < lanes; ++lane)
        num[lane] += w[lane] * (y - mu[lane] - e1[lane] - e2[lane]);
}

/**
 * One backfit sweep of `axis` in every lane: re-estimate its level
 * effects from the residuals of the other two axes, with a ridge term
 * damping sparsely-observed levels, then re-centre so the gauge
 * freedom (a constant can slosh between mu and any axis) cannot drift
 * across sweeps.
 *
 * Each level's sums take its samples in ascending order, as a lane's
 * own fit would.  A lane whose weight on a sample is zero adds 0 * r
 * where its own fit would skip the sample; the sums start at +0 and
 * residuals are finite, so adding that zero leaves every bit as it
 * was.
 */
void
sweepLanes(LaneAxis &axis, const LaneAxis &other1, const LaneAxis &other2,
           const std::vector<double> &log_rt, LaneScratch &scratch,
           size_t lanes, double ridge)
{
    std::vector<double> &num = scratch.num;
    num.assign(axis.levels() * lanes, 0.0);
    for (size_t s = 0; s < log_rt.size(); ++s) {
        accumulateResiduals(&num[axis.row[s]], &scratch.weights[s * lanes],
                            log_rt[s], scratch.mu.data(),
                            &other1.effect[other1.row[s]],
                            &other2.effect[other2.row[s]], lanes);
    }
    for (size_t j = 0; j < num.size(); ++j) {
        if (axis.den[j] > 0)
            axis.effect[j] = num[j] / (axis.den[j] + ridge);
    }
    for (const size_t lane : axis.gaps)
        axis.fillGaps(lane, lanes);

    // Re-centre.  total is positive: every lane weighs some sample.
    std::vector<double> &shift = scratch.shift;
    shift.assign(lanes, 0.0);
    for (size_t l = 0; l < axis.levels(); ++l) {
        for (size_t lane = 0; lane < lanes; ++lane)
            shift[lane] += axis.den[l * lanes + lane] *
                           axis.effect[l * lanes + lane];
    }
    for (size_t lane = 0; lane < lanes; ++lane)
        shift[lane] /= axis.total[lane];
    for (size_t l = 0; l < axis.levels(); ++l) {
        for (size_t lane = 0; lane < lanes; ++lane)
            axis.effect[l * lanes + lane] -= shift[lane];
    }
    for (size_t lane = 0; lane < lanes; ++lane)
        scratch.mu[lane] += shift[lane];
}

} // namespace

std::string
samplerKindName(SamplerKind kind)
{
    switch (kind) {
      case SamplerKind::Lhs:    return "lhs";
      case SamplerKind::Active: return "active";
    }
    panic("unknown sampler kind %d", static_cast<int>(kind));
}

bool
parseSamplerKind(const std::string &name, SamplerKind *out)
{
    if (name == "lhs") {
        *out = SamplerKind::Lhs;
        return true;
    }
    if (name == "active") {
        *out = SamplerKind::Active;
        return true;
    }
    return false;
}

/** Canonical sample set: ascending flat order, axis indices cached. */
struct SparsePredictor::Samples {
    std::vector<size_t> flat;    ///< ascending, distinct
    std::vector<size_t> cu_i, core_i, mem_i;
    std::vector<double> log_rt;
    std::vector<double> runtime;

    size_t size() const { return flat.size(); }
};

SparsePredictor::SparsePredictor(ConfigSpace space,
                                 SparseFitOptions options)
    : space_(std::move(space)), options_(options)
{
    fatal_if(options_.ensemble < 2,
             "sparse: ensemble must have at least 2 members, got %zu",
             options_.ensemble);
    fatal_if(options_.backfit_iterations == 0,
             "sparse: backfit_iterations must be positive");
    fatal_if(options_.ridge < 0, "sparse: negative ridge %g",
             options_.ridge);
}

SparsePredictor::Samples
SparsePredictor::canonicalize(std::span<const size_t> indices,
                              std::span<const double> runtimes) const
{
    fatal_if(indices.size() != runtimes.size(),
             "sparse: %zu sample indices vs %zu runtimes",
             indices.size(), runtimes.size());
    fatal_if(indices.empty(), "sparse: no samples");

    std::vector<std::pair<size_t, double>> rows;
    rows.reserve(indices.size());
    for (size_t s = 0; s < indices.size(); ++s) {
        fatal_if(indices[s] >= space_.size(),
                 "sparse: sample index %zu outside the %zu-point grid",
                 indices[s], space_.size());
        // The rule ScalingSurface applies; it also keeps every
        // residual of the lockstep fit finite.
        fatal_if(!(std::isfinite(runtimes[s]) && runtimes[s] > 0),
                 "sparse: runtime %g at index %zu is not finite and "
                 "positive",
                 runtimes[s], indices[s]);
        rows.emplace_back(indices[s], runtimes[s]);
    }
    std::sort(rows.begin(), rows.end());

    Samples out;
    for (auto *v : {&out.flat, &out.cu_i, &out.core_i, &out.mem_i})
        v->reserve(rows.size());
    out.log_rt.reserve(rows.size());
    out.runtime.reserve(rows.size());
    for (const auto &[flat, rt] : rows) {
        if (!out.flat.empty() && out.flat.back() == flat) {
            fatal_if(out.runtime.back() != rt,
                     "sparse: conflicting runtimes %g vs %g for "
                     "config %zu",
                     out.runtime.back(), rt, flat);
            continue;
        }
        const auto axis = space_.unflatten(flat);
        out.flat.push_back(flat);
        out.cu_i.push_back(axis.cu);
        out.core_i.push_back(axis.core);
        out.mem_i.push_back(axis.mem);
        out.runtime.push_back(rt);
        out.log_rt.push_back(std::log(rt));
    }
    return out;
}

std::vector<size_t>
SparsePredictor::anchorConfigs() const
{
    const size_t cu_hi = space_.numCu() - 1;
    const size_t core_hi = space_.numCoreClk() - 1;
    const size_t mem_hi = space_.numMemClk() - 1;

    std::vector<size_t> anchors;
    // The three curves classifySurface() reads: cuCurveAtMax,
    // freqCurveAtMax, memCurveAtMax.
    for (size_t i = 0; i < space_.numCu(); ++i)
        anchors.push_back(space_.flatten(i, core_hi, mem_hi));
    for (size_t j = 0; j < space_.numCoreClk(); ++j)
        anchors.push_back(space_.flatten(cu_hi, j, mem_hi));
    for (size_t k = 0; k < space_.numMemClk(); ++k)
        anchors.push_back(space_.flatten(cu_hi, core_hi, k));
    // The min corner pins the whole-grid range the LaunchBound test
    // reads; cheap insurance for one extra point.
    anchors.push_back(space_.flatten(0, 0, 0));

    std::sort(anchors.begin(), anchors.end());
    anchors.erase(std::unique(anchors.begin(), anchors.end()),
                  anchors.end());
    return anchors;
}

std::vector<size_t>
SparsePredictor::lhsCandidates(size_t count, Rng &rng) const
{
    // Classic Latin hypercube: per axis, a random permutation of
    // `count` strata with a uniform jitter inside each, mapped onto
    // that axis's levels.  Strata cover [0, 1) in 1/count steps, so
    // with count >= levels every level is drawn at least once.
    auto axisDraw = [&](size_t levels) {
        std::vector<size_t> perm(count);
        for (size_t s = 0; s < count; ++s)
            perm[s] = s;
        for (size_t s = count; s-- > 1;) {
            const size_t j = static_cast<size_t>(
                rng.uniformInt(0, static_cast<int64_t>(s)));
            std::swap(perm[s], perm[j]);
        }
        std::vector<size_t> out(count);
        for (size_t s = 0; s < count; ++s) {
            const double u = (static_cast<double>(perm[s]) +
                              rng.uniform()) /
                             static_cast<double>(count);
            out[s] = std::min(
                levels - 1,
                static_cast<size_t>(u * static_cast<double>(levels)));
        }
        return out;
    };

    const auto cu = axisDraw(space_.numCu());
    const auto core = axisDraw(space_.numCoreClk());
    const auto mem = axisDraw(space_.numMemClk());

    std::vector<size_t> flats(count);
    for (size_t s = 0; s < count; ++s)
        flats[s] = space_.flatten(cu[s], core[s], mem[s]);
    return flats;
}

std::vector<size_t>
SparsePredictor::lhsPlan(size_t budget) const
{
    fatal_if(budget < minSamples(),
             "sparse: budget %zu below the minimum %zu "
             "(anchor slices + 1)",
             budget, minSamples());
    fatal_if(budget > space_.size(),
             "sparse: budget %zu exceeds the %zu-point grid", budget,
             space_.size());

    std::vector<char> selected(space_.size(), 0);
    std::vector<size_t> plan = anchorConfigs();
    for (const size_t flat : plan)
        selected[flat] = 1;

    Rng rng(options_.seed);
    // Fresh stratified draws until the budget is filled; collisions
    // with the anchors (or earlier draws) are skipped.  The bounded
    // retry keeps the plan a pure function of (space, seed, budget);
    // the exhaustive tail walk guarantees termination even for
    // budgets near the full grid.
    for (int round = 0; round < 16 && plan.size() < budget; ++round) {
        const auto candidates = lhsCandidates(budget, rng);
        for (const size_t flat : candidates) {
            if (plan.size() >= budget)
                break;
            if (selected[flat])
                continue;
            selected[flat] = 1;
            plan.push_back(flat);
        }
    }
    for (size_t flat = 0; flat < selected.size() && plan.size() < budget;
         ++flat)
    {
        if (!selected[flat]) {
            selected[flat] = 1;
            plan.push_back(flat);
        }
    }
    return plan;
}

std::vector<std::vector<double>>
SparsePredictor::fitLanes(const Samples &samples,
                          const std::string &kernel_name, bool point,
                          size_t members) const
{
    const size_t n = samples.size();
    const size_t lanes = (point ? 1 : 0) + members;
    thread_local LaneScratch scratch;

    // Lane-major weights: lane 0 of a point fit is all ones, and each
    // member lane holds bootstrap multiplicities drawn from its own
    // stream per (seed, kernel, member).  The resample is invariant to
    // sample order because it indexes the canonical (sorted) list.
    std::vector<double> &weights = scratch.weights;
    weights.assign(n * lanes, 0.0);
    if (point) {
        for (size_t s = 0; s < n; ++s)
            weights[s * lanes] = 1.0;
    }
    const uint64_t salt = nameSalt(kernel_name);
    for (size_t m = 0; m < members; ++m) {
        const size_t lane = (point ? 1 : 0) + m;
        Rng rng(options_.seed ^ salt ^ (0x9e3779b97f4a7c15ull * (m + 1)));
        for (size_t s = 0; s < n; ++s) {
            const size_t pick = static_cast<size_t>(
                rng.uniformInt(0, static_cast<int64_t>(n) - 1));
            weights[pick * lanes + lane] += 1.0;
        }
    }

    std::vector<double> &mu = scratch.mu;
    std::vector<double> &wsum = scratch.shift;
    mu.assign(lanes, 0.0);
    wsum.assign(lanes, 0.0);
    for (size_t s = 0; s < n; ++s) {
        for (size_t lane = 0; lane < lanes; ++lane) {
            const double w = weights[s * lanes + lane];
            wsum[lane] += w;
            mu[lane] += w * samples.log_rt[s];
        }
    }
    for (size_t lane = 0; lane < lanes; ++lane)
        mu[lane] /= wsum[lane];

    LaneAxis &a = scratch.cu, &b = scratch.core, &c = scratch.mem;
    a.reset(samples.cu_i, space_.cuValues(), weights, lanes);
    b.reset(samples.core_i, space_.coreClks(), weights, lanes);
    c.reset(samples.mem_i, space_.memClks(), weights, lanes);

    // Backfitting: each sweep re-estimates one axis's level effects
    // from the residuals of the other two.  A fixed sweep count (no
    // convergence test) keeps the fit bitwise deterministic.
    for (size_t iter = 0; iter < options_.backfit_iterations; ++iter) {
        sweepLanes(a, b, c, samples.log_rt, scratch, lanes,
                   options_.ridge);
        sweepLanes(b, a, c, samples.log_rt, scratch, lanes,
                   options_.ridge);
        sweepLanes(c, a, b, samples.log_rt, scratch, lanes,
                   options_.ridge);
    }

    // Measured points pass through bitwise: the reconstruction never
    // contradicts a measurement, and a full-grid fit *is* the dense
    // census.  So exp runs at the unmeasured points only.
    std::vector<std::vector<double>> surfaces(lanes);
    for (size_t lane = 0; lane < lanes; ++lane) {
        std::vector<double> &out = surfaces[lane];
        out.resize(space_.size());
        size_t flat = 0;
        size_t next = 0; // next measured sample, in flat order
        for (size_t i = 0; i < space_.numCu(); ++i) {
            for (size_t j = 0; j < space_.numCoreClk(); ++j) {
                const double ij = mu[lane] + a.effect[i * lanes + lane] +
                                  b.effect[j * lanes + lane];
                for (size_t k = 0; k < space_.numMemClk(); ++k) {
                    if (next < n && samples.flat[next] == flat) {
                        out[flat] = samples.runtime[next];
                        ++next;
                    } else {
                        out[flat] = std::exp(ij + c.effect[k * lanes + lane]);
                    }
                    ++flat;
                }
            }
        }
    }
    return surfaces;
}

std::vector<double>
SparsePredictor::fitSurface(std::span<const size_t> indices,
                            std::span<const double> runtimes) const
{
    const Samples samples = canonicalize(indices, runtimes);
    return std::move(fitLanes(samples, "", true, 0).front());
}

std::vector<size_t>
SparsePredictor::activePlan(
    size_t budget, const std::function<double(size_t)> &measure) const
{
    fatal_if(budget < minSamples(),
             "sparse: budget %zu below the minimum %zu "
             "(anchor slices + 1)",
             budget, minSamples());
    fatal_if(budget > space_.size(),
             "sparse: budget %zu exceeds the %zu-point grid", budget,
             space_.size());
    fatal_if(!measure, "sparse: active plan needs a measure callback");

    std::vector<char> selected(space_.size(), 0);
    std::vector<size_t> plan;
    std::vector<double> measured;
    auto take = [&](size_t flat) {
        selected[flat] = 1;
        plan.push_back(flat);
        measured.push_back(measure(flat));
    };

    for (const size_t flat : anchorConfigs())
        take(flat);

    // Seed: a third of the free budget by LHS, so the first ensemble
    // fit has off-slice support before the greedy loop steers.
    const size_t seeded = plan.size() + (budget - plan.size()) / 3;
    Rng rng(options_.seed);
    for (int round = 0; round < 16 && plan.size() < seeded; ++round) {
        const auto candidates = lhsCandidates(budget, rng);
        for (const size_t flat : candidates) {
            if (plan.size() >= seeded)
                break;
            if (selected[flat])
                continue;
            take(flat);
        }
    }

    // Greedy: measure next where the bootstrap ensemble disagrees
    // most (widest log-runtime spread); ties break toward the lowest
    // flat index so the sequence is deterministic.
    while (plan.size() < budget) {
        const Samples samples = canonicalize(plan, measured);
        const auto members =
            fitLanes(samples, "", false, options_.ensemble);
        size_t best = space_.size();
        double best_spread = -1.0;
        for (size_t flat = 0; flat < space_.size(); ++flat) {
            if (selected[flat])
                continue;
            double lo = std::numeric_limits<double>::infinity();
            double hi = -std::numeric_limits<double>::infinity();
            for (const auto &member : members) {
                const double y = std::log(member[flat]);
                lo = std::min(lo, y);
                hi = std::max(hi, y);
            }
            const double spread = hi - lo;
            if (spread > best_spread) {
                best_spread = spread;
                best = flat;
            }
        }
        if (best == space_.size())
            break; // every configuration measured
        take(best);
    }
    return plan;
}

SparseReconstruction
SparsePredictor::reconstruct(const std::string &kernel_name,
                             std::span<const size_t> indices,
                             std::span<const double> runtimes,
                             const TaxonomyParams &params) const
{
    const Samples samples = canonicalize(indices, runtimes);

    // Lane 0 is the point estimate, lanes 1.. the ensemble members.
    // Members honour the measurements too: bands collapse to zero
    // width where the truth is known.
    std::vector<std::vector<double>> fits =
        fitLanes(samples, kernel_name, true, options_.ensemble);

    std::vector<double> lower = fits[0];
    std::vector<double> upper = fits[0];
    for (size_t m = 1; m < fits.size(); ++m) {
        const std::vector<double> &member = fits[m];
        for (size_t j = 0; j < member.size(); ++j) {
            lower[j] = std::min(lower[j], member[j]);
            upper[j] = std::max(upper[j], member[j]);
        }
    }

    SparseReconstruction out{
        ScalingSurface(kernel_name, space_, std::move(fits[0])),
        std::move(lower),
        std::move(upper),
        {},
        1.0,
        false,
        samples.size(),
    };
    out.cls = classifySurface(out.surface, params);

    // Each member's vector moves into the surface that classifies it.
    size_t votes = 0;
    bool member_crosses = false;
    for (size_t m = 1; m < fits.size(); ++m) {
        const KernelClassification mc = classifySurface(
            ScalingSurface(kernel_name, space_, std::move(fits[m])),
            params);
        if (mc.cls == out.cls.cls)
            ++votes;
        else
            member_crosses = true;
    }
    out.confidence = static_cast<double>(votes) /
                     static_cast<double>(options_.ensemble);

    // Adversarial range surfaces.  The ensemble members share the
    // separable fit's bias, so the envelope alone can miss boundary
    // kernels whose whole-grid sensitivity (robustPerfRange, the
    // LaunchBound test) sits near a threshold: scaling every point by
    // a common factor cancels in perf ratios.  Instead, push each
    // point to the band edge that widens (spread) or narrows (shrunk)
    // the grid's dynamic range — fast points faster / slow points
    // slower, and vice versa.  Measured points have zero-width bands,
    // so the anchor curves (and the shape verdicts read from them)
    // are untouched; only the range statistic moves.
    const std::vector<double> &estimate = out.surface.runtimes();
    std::vector<double> spread(estimate.size());
    std::vector<double> shrunk(estimate.size());
    // spread holds each estimate's log until the band edges replace
    // it, so every log is taken once.
    double mean_log = 0.0;
    for (size_t j = 0; j < estimate.size(); ++j) {
        spread[j] = std::log(estimate[j]);
        mean_log += spread[j];
    }
    mean_log /= static_cast<double>(estimate.size());
    for (size_t j = 0; j < estimate.size(); ++j) {
        const bool fast = spread[j] <= mean_log;
        spread[j] = fast ? out.lower[j] : out.upper[j];
        shrunk[j] = fast ? out.upper[j] : out.lower[j];
    }

    bool band_crosses = member_crosses;
    for (std::vector<double> *band :
         {&out.lower, &out.upper, &spread, &shrunk})
    {
        // Lend the band to its surface and take it back: no copy.
        auto held = std::make_shared<std::vector<double>>(std::move(*band));
        const KernelClassification bc = classifySurface(
            ScalingSurface(kernel_name, space_, held), params);
        *band = std::move(*held);
        band_crosses = band_crosses || bc.cls != out.cls.cls;
    }
    out.band_crosses_boundary = band_crosses;
    return out;
}

} // namespace scaling
} // namespace gpuscale
