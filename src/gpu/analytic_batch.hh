/**
 * @file
 * Flat structure-of-arrays operands and the stage-3 kernel of the
 * batched analytic census walk.
 *
 * The analytic model's grid evaluation is staged by how often each
 * quantity changes (see AnalyticModel::evaluateGridRuntimes): stages
 * 1-2 hoist kernel invariants and per-CU machine state into the plain
 * double arrays below, and stage 3 — runBatch() — is a single
 * contiguous loop over (core clock, memory clock) doing only
 * clock-domain arithmetic: no virtual calls, no GpuConfig
 * materialization, results written straight into a flat runtime
 * vector.  The loop body is branch-light on purpose so the compiler
 * auto-vectorizes it (ci/check_vectorization.sh asserts that it
 * does; docs/performance.md explains how to read the report).
 *
 * Bitwise contract: every expression here mirrors, operation for
 * operation, the formula the scalar estimate() path uses — the
 * shared helpers below are *called by* the scalar path — so the
 * batched and scalar walks are bitwise identical.  The speedup comes
 * from layout and hoisting, never from reassociating the math; the
 * grid differential tests pin this point-for-point.
 */

#ifndef GPUSCALE_GPU_ANALYTIC_BATCH_HH
#define GPUSCALE_GPU_ANALYTIC_BATCH_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace gpuscale {
namespace gpu {
namespace batch {

/** Kernel-invariant operands of the roofline terms (stage 1). */
struct KernelTerms {
    /** SIMD issue cycles over the whole launch. */
    double simd_cycles_total = 0.0;

    /** LDS lane operations over the whole launch. */
    double lds_lane_ops = 0.0;

    /** Bytes moved through the L1 at line granularity. */
    double l1_bytes = 0.0;

    /** Memory dependency chains per wavefront. */
    double chains = 0.0;

    /** Wavefronts over the whole launch. */
    double total_waves = 0.0;

    /** Whether the kernel issues atomics at all (term gate). */
    bool has_atomics = false;
};

/**
 * Flat per-(kernel, CU count) operands (stage 2): the CuState fields
 * the clock loop reads, pre-multiplied with the clock-independent
 * throughput units so stage 3 touches only plain doubles.
 */
struct CuTerms {
    /** Workgroup-quantization multiplier. */
    double imbalance = 1.0;

    /** Throughput units (CuUnits), copied flat. @{ */
    double simd_units = 0.0;
    double lds_units = 0.0;
    double l1_units = 0.0;
    double xbar_units = 0.0;
    /** @} */

    /** Bytes reaching the L2 / DRAM for this CU count. @{ */
    double l2_bytes = 0.0;
    double dram_bytes = 0.0;
    /** @} */

    /** total_atomics x retry multiplier (t_atomic numerator). */
    double atomic_num = 0.0;

    /** L1 hit fraction x L1 latency cycles (latency numerator). */
    double l1_lat_num = 0.0;

    /** Access fractions resolved at the L2 / in DRAM. @{ */
    double l2_frac = 0.0;
    double dram_frac = 0.0;
    /** @} */

    /** Concurrent wavefronts for the latency bound. */
    double concurrency = 1.0;
};

/** The core-clock-domain roofline terms for one (CU, core clock). */
struct CoreTerms {
    double t_compute = 0.0;
    double t_lds = 0.0;
    double t_l1 = 0.0;
    double t_l2 = 0.0;
    double t_atomic = 0.0;
    double t_latency = 0.0;

    /** max() of the six terms above (everything but t_dram). */
    double base_max = 0.0;
};

/**
 * Core-clock-domain arithmetic for one (CU count, core clock) pair.
 *
 * Called by the scalar estimate() path with per-point operands and by
 * the batched walk with hoisted ones; since both feed it bitwise-equal
 * inputs, the outputs agree bitwise too.  Only t_dram depends on the
 * memory clock, so everything here hoists out of the stage-3 loop.
 */
inline CoreTerms
computeCoreTerms(const KernelTerms &kt, const CuTerms &cu,
                 double clk_hz, double core_time_s, double l2_hop_s,
                 double dram_hop_s, double atomic_rate)
{
    CoreTerms ct;
    ct.t_compute =
        kt.simd_cycles_total / (cu.simd_units * clk_hz) * cu.imbalance;
    ct.t_lds =
        kt.lds_lane_ops / (cu.lds_units * clk_hz) * cu.imbalance;
    ct.t_l1 = kt.l1_bytes / (cu.l1_units * clk_hz) * cu.imbalance;
    ct.t_l2 = cu.l2_bytes / (cu.xbar_units * clk_hz);
    // The gate keeps a 0/0 NaN out of kernels without atomics, and
    // matches the scalar path's `total_atomics > 0` branch.
    ct.t_atomic =
        kt.has_atomics ? cu.atomic_num / atomic_rate : 0.0;
    // Closed-system latency bound: with N concurrent wavefronts each
    // alternating compute segments and memory-dependency chains, the
    // asymptotic runtime is total_waves x wave_time / N using the
    // *unloaded* latency (bounds analysis for closed queueing
    // networks).  Saturation is not modelled by inflating latency —
    // the bandwidth terms already in the roofline max() cap the
    // throughput — which keeps the model monotone in both clocks.
    const double avg_latency = cu.l1_lat_num / clk_hz +
                               cu.l2_frac * l2_hop_s +
                               cu.dram_frac * dram_hop_s;
    const double wave_time = core_time_s + kt.chains * avg_latency;
    ct.t_latency = kt.total_waves * wave_time / cu.concurrency;
    ct.base_max = std::max({ct.t_compute, ct.t_lds, ct.t_l1, ct.t_l2,
                            ct.t_atomic, ct.t_latency});
    return ct;
}

/**
 * Everything stage 3 consumes, hoisted flat.  Filled by
 * AnalyticModel::prepareBatch() and, into a per-thread plan, by
 * evaluateGridRuntimes(); each axis vector is indexed by the grid's
 * index on that axis.
 */
struct BatchPlan {
    /** Stage-1 kernel invariants. */
    KernelTerms kernel;

    /** Stage-2 state per CU-axis value. */
    std::vector<CuTerms> cu;

    /** Stage-2 state of the one-CU machine the Amdahl phase runs on. */
    CuTerms serial_cu;

    /** Whether the kernel has a serial fraction at all. */
    bool has_serial = false;

    /** Amdahl weights; parallel_fraction is 1 - serial_fraction. @{ */
    double serial_fraction = 0.0;
    double parallel_fraction = 1.0;
    /** @} */

    /** Launch count and per-launch host overhead. @{ */
    double launches = 0.0;
    double launch_overhead_s = 0.0;
    /** @} */

    /** Per core-clock axis value. @{ */
    std::vector<double> core_clk_hz;
    std::vector<double> core_time_s;
    std::vector<double> l2_hop_s;
    std::vector<double> dram_hop_s;
    std::vector<double> atomic_rate;
    /** @} */

    /** Per memory-clock axis value. */
    std::vector<double> dram_bw;

    /** Total flops over the run (for achieved-rate reporting). */
    double total_flops = 0.0;
};

/**
 * Stage 3: evaluate every grid point of the plan, writing time_s per
 * point into `out` (ConfigGrid::flatten order, cu slowest).  `out`
 * must hold cu.size() x core_clk_hz.size() x dram_bw.size() doubles.
 *
 * Lives in its own translation unit so the vectorization-report
 * flags (-fopt-info-vec, GPUSCALE_VEC_REPORT) stay local to it.
 */
void runBatch(const BatchPlan &plan, double *out);

} // namespace batch
} // namespace gpu
} // namespace gpuscale

#endif // GPUSCALE_GPU_ANALYTIC_BATCH_HH
