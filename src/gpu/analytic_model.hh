/**
 * @file
 * Fast analytic (interval-analysis) GPU timing model.
 *
 * The model bounds a launch's runtime by each hardware resource in
 * turn — SIMD issue, LDS, L1 ports, the core-clocked L2/crossbar,
 * DRAM bandwidth, serialized atomics, and exposed memory latency
 * under limited wavefront concurrency — and takes the maximum,
 * roofline style.  The latency bound is the closed-queueing-network
 * asymptote (unloaded latency; the bandwidth terms cap throughput at
 * saturation).  Workgroup quantization (ceil(num_wgs / num_cus)
 * imbalance), Amdahl serial fractions, and per-launch host overhead
 * complete the picture.
 *
 * Each term maps onto one of the paper's observed scaling behaviours;
 * see DESIGN.md for the table.  The model evaluates in ~1 us, which
 * is what makes the full 267-kernel x 891-configuration census
 * (238k estimates) practical on a laptop.
 */

#ifndef GPUSCALE_GPU_ANALYTIC_MODEL_HH
#define GPUSCALE_GPU_ANALYTIC_MODEL_HH

#include "analytic_batch.hh"
#include "perf_model.hh"

namespace gpuscale {
namespace gpu {

/** Tunable calibration constants for the analytic model. */
struct AnalyticParams {
    /** Core cycles to resynchronize one barrier per extra wave. */
    double barrier_cycles_per_wave = 4.0;

    /** Fixed core cycles per barrier. */
    double barrier_base_cycles = 20.0;

    /**
     * Retry cost scale for contended atomics: the extra cost factor a
     * fully contended kernel (atomic_contention = 1) pays when the
     * whole reference machine's wavefronts hammer one address.
     */
    double atomic_retry_scale = 2.5;

    /** Reference wavefront population the retry scale is quoted at. */
    double atomic_reference_waves = 1760.0;
};

/** The fast interval-analysis model. */
class AnalyticModel : public PerfModel
{
  public:
    AnalyticModel() = default;
    explicit AnalyticModel(AnalyticParams params);

    KernelPerf estimate(const KernelDesc &kernel,
                        const GpuConfig &cfg) const override;

    /**
     * Batched census walk.  The evaluation is staged by how often
     * each quantity changes across the grid:
     *
     *  - per kernel:  launch geometry, instruction mix, byte counts,
     *    barrier cost — everything depending only on the kernel and
     *    the fixed microarchitecture (Invariants);
     *  - per CU value:  occupancy, cache behaviour (the expensive
     *    exp() calls), workgroup quantization, dispatch — the
     *    clock-independent machine state (CuState, 11 evaluations
     *    instead of 891 on the paper grid);
     *  - per (CU, core clock, memory clock):  only the clock-domain
     *    arithmetic and the roofline max, on the flat SoA operands of
     *    batch::BatchPlan (see analytic_batch.hh).
     *
     * Stages 1-2 fill a per-thread plan whose vectors keep their
     * capacity from call to call (so a warm thread allocates nothing
     * there); stage 3, batch::runBatch(), writes straight into the
     * flat result — no KernelPerf materialization at all.  Every
     * stage runs the same arithmetic as the scalar estimate() path —
     * the shared helpers in analytic_batch.hh are called by both — so
     * the two are bitwise identical point-for-point; the differential
     * tests assert exactly that.  This is what the sweep harness
     * calls and what the >= 8x single-core bench gate measures.
     */
    std::vector<double> evaluateGridRuntimes(
        const KernelDesc &kernel,
        const ConfigGrid &grid) const override;

    /**
     * Stages 1-2: validate, hoist the kernel invariants and per-CU
     * state, and lay them out flat for batch::runBatch().  Public so
     * the bench harness can time the stages separately; the same
     * fill evaluateGridRuntimes() runs, into a fresh plan.
     */
    batch::BatchPlan prepareBatch(const KernelDesc &kernel,
                                  const ConfigGrid &grid) const;

    std::string name() const override { return "analytic"; }

    /** name() plus every calibration constant. */
    std::string fingerprint() const override;

    const AnalyticParams &params() const { return params_; }

  private:
    /** Grid-invariant derived quantities for one kernel. */
    struct Invariants;

    /** Clock-independent machine state for one (kernel, CU count). */
    struct CuState;

    /**
     * Hoist everything depending only on the kernel and the fixed
     * microarchitecture; `arch` supplies the fixed parameters (any
     * grid point works — the swept knobs are not read).
     */
    Invariants computeInvariants(const KernelDesc &kernel,
                                 const GpuConfig &arch) const;

    /** Hoist the clock-independent state for cfg.num_cus. */
    CuState computeCuState(const KernelDesc &kernel,
                           const GpuConfig &cfg,
                           const Invariants &inv) const;

    /** Copy the stage-1 operands flat (batch::KernelTerms). */
    batch::KernelTerms kernelTerms(const Invariants &inv) const;

    /** Flatten one CuState into stage-2 operands (batch::CuTerms). */
    batch::CuTerms makeCuTerms(const Invariants &inv, const CuState &cu,
                               const CuUnits &units,
                               const GpuConfig &arch) const;

    /**
     * Stages 1-2: validate, then refill every field of `plan`.  Its
     * vectors are resized in place, so a reused plan allocates
     * nothing once it has seen the grid's shape.
     */
    void fillPlan(const KernelDesc &kernel, const ConfigGrid &grid,
                  batch::BatchPlan &plan) const;

    /**
     * Full single-point estimate from precomputed stages.  `serial_cu`
     * is the CuState for the one-CU machine the Amdahl phase runs on;
     * unused when the kernel has no serial fraction.
     */
    KernelPerf estimatePoint(const KernelDesc &kernel,
                             const GpuConfig &cfg,
                             const Invariants &inv,
                             const CuState &cu,
                             const CuState &serial_cu) const;

    AnalyticParams params_;
};

} // namespace gpu
} // namespace gpuscale

#endif // GPUSCALE_GPU_ANALYTIC_MODEL_HH
