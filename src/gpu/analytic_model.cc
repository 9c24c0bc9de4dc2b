/**
 * @file
 * Analytic model implementation.
 *
 * The evaluation is staged so the batched census walk can hoist work
 * out of the inner loops (see evaluateGridRuntimes() in the header):
 * Invariants captures everything derived from the kernel and the
 * fixed microarchitecture alone, CuState everything that additionally
 * depends on the compute-unit count, and the clock-domain arithmetic
 * lives in the shared inline helpers of analytic_batch.hh.  The
 * scalar estimate() path derives the same flat operands per point and
 * calls the same helpers, which is what keeps the batched and scalar
 * paths bitwise identical (docs/performance.md spells out the
 * contract).
 */

#include "analytic_model.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/string_util.hh"
#include "obs/metrics.hh"
#include "cache_model.hh"
#include "dispatch.hh"
#include "gpu_config.hh"
#include "interconnect.hh"
#include "kernel_desc.hh"
#include "memory_system.hh"
#include "occupancy.hh"

namespace gpuscale {
namespace gpu {

std::string
boundResourceName(BoundResource r)
{
    switch (r) {
      case BoundResource::Compute: return "compute";
      case BoundResource::Lds:     return "lds";
      case BoundResource::L1:      return "l1";
      case BoundResource::L2:      return "l2";
      case BoundResource::Dram:    return "dram";
      case BoundResource::Latency: return "latency";
      case BoundResource::Atomics: return "atomics";
      case BoundResource::Launch:  return "launch";
    }
    panic("unknown bound resource %d", static_cast<int>(r));
}

/**
 * Derived quantities that are constant across the whole grid: launch
 * geometry, instruction mix, and byte counts depend on the kernel and
 * the fixed microarchitecture only, never on the three swept knobs.
 */
struct AnalyticModel::Invariants {
    double total_waves = 0.0;
    double total_items = 0.0;
    double wgs = 0.0;
    double div_mult = 1.0;
    int issue_cycles_per_inst = 1;
    double compute_cycles_per_wave = 0.0;
    double simd_cycles_total = 0.0;
    double lds_lane_ops = 0.0;
    double useful_bytes = 0.0;
    double l1_bytes = 0.0;
    double total_atomics = 0.0;
    double chains = 0.0;
    double barrier_cycles = 0.0;
    double launches = 0.0;
    double total_flops = 0.0;
};

/**
 * Machine state that changes with the CU count but not with either
 * clock: occupancy, cache behaviour (the expensive exp() calls),
 * workgroup quantization, and dispatch.  On the paper grid this is
 * evaluated 11 times per kernel instead of 891.
 */
struct AnalyticModel::CuState {
    Occupancy occ;
    CacheBehavior cache;
    double imbalance = 1.0;
    double l2_bytes = 0.0;
    double dram_bytes = 0.0;
    double l1_frac = 0.0;
    double l2_frac = 0.0;
    double dram_access_frac = 0.0;
    double concurrency = 1.0;
    double retry_mult = 1.0;
    DispatchState disp;
};

AnalyticModel::AnalyticModel(AnalyticParams params)
    : params_(params)
{
}

// Tripwire: fingerprint() below hand-enumerates every AnalyticParams
// field, and a field it misses would let the sweep cache serve stale
// hits across models with different parameters — silent data
// corruption.  If this assert fires, you added (or resized) a param:
// fold it into fingerprint(), extend the drift test in
// tests/gpu/test_analytic_model.cc, and only then bump the count.
static_assert(sizeof(AnalyticParams) == 4 * sizeof(double),
              "AnalyticParams changed: update AnalyticModel::"
              "fingerprint() and its drift test first");

std::string
AnalyticModel::fingerprint() const
{
    return "analytic(" +
           formatDoubleShortest(params_.barrier_cycles_per_wave) + "," +
           formatDoubleShortest(params_.barrier_base_cycles) + "," +
           formatDoubleShortest(params_.atomic_retry_scale) + "," +
           formatDoubleShortest(params_.atomic_reference_waves) + ")";
}

AnalyticModel::Invariants
AnalyticModel::computeInvariants(const KernelDesc &kernel,
                                 const GpuConfig &arch) const
{
    Invariants inv;
    inv.total_waves = static_cast<double>(kernel.totalWaves(arch));
    inv.total_items = static_cast<double>(kernel.totalWorkItems());
    inv.wgs = static_cast<double>(kernel.num_workgroups);

    // Each wavefront instruction occupies a SIMD for
    // wavefront_size / lanes_per_simd cycles (4 on GCN); divergence
    // wastes issued cycles; transcendentals run at quarter rate.
    inv.div_mult = 1.0 / (1.0 - kernel.branch_divergence);
    inv.issue_cycles_per_inst = arch.wavefront_size / arch.lanes_per_simd;
    inv.compute_cycles_per_wave =
        (kernel.valu_ops + 4.0 * kernel.sfu_ops) *
        inv.issue_cycles_per_inst * inv.div_mult;
    inv.simd_cycles_total =
        inv.total_waves * inv.compute_cycles_per_wave;

    inv.lds_lane_ops = inv.total_items * kernel.lds_ops;

    inv.useful_bytes = kernel.totalBytesRequested();
    // Every access touches the L1 at line granularity.
    inv.l1_bytes = inv.useful_bytes / kernel.coalescing;

    inv.total_atomics = inv.total_items * kernel.atomic_ops;

    const double mem_insts_per_wave =
        kernel.mem_loads + kernel.mem_stores;
    inv.chains = mem_insts_per_wave / kernel.mlp;

    inv.barrier_cycles =
        kernel.barriers * (params_.barrier_base_cycles +
                           params_.barrier_cycles_per_wave *
                               kernel.wavesPerWg(arch));

    inv.launches = static_cast<double>(kernel.launches);
    inv.total_flops = inv.launches * inv.total_items *
                      (kernel.valu_ops + 4.0 * kernel.sfu_ops);
    return inv;
}

AnalyticModel::CuState
AnalyticModel::computeCuState(const KernelDesc &kernel,
                              const GpuConfig &cfg,
                              const Invariants &inv) const
{
    CuState cu;
    cu.occ = computeOccupancy(kernel, cfg);
    cu.cache = computeCacheBehavior(kernel, cfg, cu.occ);

    //
    // Workgroup quantization: each CU drains ceil(nwg/cus) workgroups
    // while an ideally divisible launch would drain nwg/cus.  This is
    // the multiplier on every CU-local throughput term, and it is what
    // makes small launches plateau (and saw-tooth) as CUs are added.
    //
    const double cus = static_cast<double>(cfg.num_cus);
    cu.imbalance = std::ceil(inv.wgs / cus) / (inv.wgs / cus);

    cu.l2_bytes = inv.useful_bytes * cu.cache.l2_traffic_per_byte;
    cu.dram_bytes = inv.useful_bytes * cu.cache.dram_traffic_per_byte;

    cu.l1_frac = cu.cache.l1_hit_rate;
    cu.l2_frac = (1.0 - cu.l1_frac) * cu.cache.l2_hit_rate;
    cu.dram_access_frac =
        (1.0 - cu.cache.l1_hit_rate) * (1.0 - cu.cache.l2_hit_rate);

    cu.concurrency =
        std::max<double>(1.0, static_cast<double>(cu.occ.active_waves));

    // Retry growth is the mechanism that turns CU scaling *negative*
    // for reduction-style kernels (applied only when the kernel issues
    // atomics at all).
    cu.retry_mult =
        1.0 + kernel.atomic_contention * params_.atomic_retry_scale *
                  static_cast<double>(cu.occ.active_waves) /
                  params_.atomic_reference_waves;

    cu.disp = computeDispatch(kernel, cfg, cu.occ);
    return cu;
}

batch::KernelTerms
AnalyticModel::kernelTerms(const Invariants &inv) const
{
    batch::KernelTerms kt;
    kt.simd_cycles_total = inv.simd_cycles_total;
    kt.lds_lane_ops = inv.lds_lane_ops;
    kt.l1_bytes = inv.l1_bytes;
    kt.chains = inv.chains;
    kt.total_waves = inv.total_waves;
    kt.has_atomics = inv.total_atomics > 0;
    return kt;
}

batch::CuTerms
AnalyticModel::makeCuTerms(const Invariants &inv, const CuState &cu,
                           const CuUnits &units,
                           const GpuConfig &arch) const
{
    batch::CuTerms t;
    t.imbalance = cu.imbalance;
    t.simd_units = units.simd_units;
    t.lds_units = units.lds_units;
    t.l1_units = units.l1_units;
    t.xbar_units = units.xbar_units;
    t.l2_bytes = cu.l2_bytes;
    t.dram_bytes = cu.dram_bytes;
    // Atomics: a fixed global pipeline plus contention-driven retries
    // that grow with the number of concurrently active waves.
    t.atomic_num = inv.total_atomics * cu.retry_mult;
    t.l1_lat_num = cu.l1_frac * arch.l1_latency_cycles;
    t.l2_frac = cu.l2_frac;
    t.dram_frac = cu.dram_access_frac;
    t.concurrency = cu.concurrency;
    return t;
}

namespace {

/**
 * Fill every KernelPerf field of one point from the flat operands:
 * the roofline terms, bound selection, the Amdahl fold, per-launch
 * host overhead, and the delivered-rate bookkeeping.
 *
 * `serial_core_s` is the one-CU machine's kernel time (its roofline
 * max), ignored when serial_fraction is zero.
 */
void
assemblePoint(KernelPerf &perf, const batch::CoreTerms &ct,
              double t_dram, double dram_bytes, const MemorySystem &mem,
              double serial_fraction, double serial_core_s,
              double launches, double launch_overhead_s,
              double total_flops)
{
    perf.t_compute = ct.t_compute;
    perf.t_lds = ct.t_lds;
    perf.t_l1 = ct.t_l1;
    perf.t_l2 = ct.t_l2;
    perf.t_dram = t_dram;
    perf.t_atomic = ct.t_atomic;
    perf.t_latency = ct.t_latency;

    const double t_core = std::max(ct.base_max, t_dram);
    perf.kernel_time_s = t_core;

    // Delivered-bandwidth bookkeeping (reporting only).
    const double demand_bw = t_core > 0 ? dram_bytes / t_core : 0.0;
    const DramState dram_state = mem.evaluate(demand_bw);
    perf.achieved_dram_bw = dram_state.achieved_bw;
    perf.dram_utilization = dram_state.utilization;

    perf.bound = BoundResource::Compute;
    struct { double t; BoundResource r; } terms[] = {
        { perf.t_compute, BoundResource::Compute },
        { perf.t_lds, BoundResource::Lds },
        { perf.t_l1, BoundResource::L1 },
        { perf.t_l2, BoundResource::L2 },
        { perf.t_dram, BoundResource::Dram },
        { perf.t_atomic, BoundResource::Atomics },
        { perf.t_latency, BoundResource::Latency },
    };
    for (const auto &term : terms) {
        if (term.t >= t_core) {
            perf.bound = term.r;
            break;
        }
    }

    //
    // Amdahl: a serial fraction of the work executes at single-CU
    // throughput regardless of the machine size.
    //
    double serial_time = 0.0;
    if (serial_fraction > 0.0) {
        serial_time = serial_fraction * serial_core_s;
        perf.kernel_time_s =
            (1.0 - serial_fraction) * perf.kernel_time_s + serial_time;
    }

    perf.t_launch = launch_overhead_s;

    const double per_launch = perf.kernel_time_s + perf.t_launch;
    perf.time_s = launches * per_launch;
    perf.t_serial = launches * serial_time;

    if (perf.t_launch > perf.kernel_time_s)
        perf.bound = BoundResource::Launch;

    // Delivered rates over the whole run.
    perf.achieved_gflops =
        perf.time_s > 0 ? total_flops / perf.time_s / 1e9 : 0.0;
}

} // namespace

KernelPerf
AnalyticModel::estimatePoint(const KernelDesc &kernel,
                             const GpuConfig &cfg,
                             const Invariants &inv,
                             const CuState &cu,
                             const CuState &serial_cu) const
{
    KernelPerf perf;
    perf.occupancy = cu.occ;
    perf.cache = cu.cache;
    perf.imbalance_factor = cu.imbalance;

    // Derive per point the same flat operands the batched plan hoists
    // (computeCuUnits / computeClockTerms / makeCuTerms), then run
    // the shared clock-domain helper — the bitwise contract between
    // the scalar and batched paths in one place.
    const batch::KernelTerms kt = kernelTerms(inv);
    const ClockTerms clock = computeClockTerms(cfg);
    const batch::CuTerms terms =
        makeCuTerms(inv, cu, computeCuUnits(cfg.num_cus, cfg), cfg);
    const double core_time_s =
        inv.compute_cycles_per_wave / clock.clk_hz +
        inv.barrier_cycles / clock.clk_hz;
    const batch::CoreTerms ct = batch::computeCoreTerms(
        kt, terms, clock.clk_hz, core_time_s, clock.l2_hop_s,
        clock.dram_hop_s, clock.atomic_rate);

    const MemorySystem mem(cfg);
    const double t_dram = terms.dram_bytes / mem.peakBandwidth();

    double serial_core_s = 0.0;
    if (kernel.serial_fraction > 0.0) {
        const batch::CuTerms s_terms =
            makeCuTerms(inv, serial_cu, computeCuUnits(1, cfg), cfg);
        const batch::CoreTerms s_ct = batch::computeCoreTerms(
            kt, s_terms, clock.clk_hz, core_time_s, clock.l2_hop_s,
            clock.dram_hop_s, clock.atomic_rate);
        const double s_dram = s_terms.dram_bytes / mem.peakBandwidth();
        serial_core_s = std::max(s_ct.base_max, s_dram);
    }

    assemblePoint(perf, ct, t_dram, terms.dram_bytes, mem,
                  kernel.serial_fraction, serial_core_s, inv.launches,
                  cu.disp.launch_overhead_s, inv.total_flops);
    return perf;
}

KernelPerf
AnalyticModel::estimate(const KernelDesc &kernel,
                        const GpuConfig &cfg) const
{
    static obs::Counter &evaluations =
        obs::Registry::instance().counter(
            "model.analytic.estimates",
            "analytic-model evaluations");
    evaluations.inc();

    kernel.validate();
    cfg.validate();

    const Invariants inv = computeInvariants(kernel, cfg);
    const CuState cu = computeCuState(kernel, cfg, inv);
    CuState serial_cu;
    if (kernel.serial_fraction > 0.0) {
        GpuConfig one_cu = cfg;
        one_cu.num_cus = 1;
        serial_cu = computeCuState(kernel, one_cu, inv);
    }
    return estimatePoint(kernel, cfg, inv, cu, serial_cu);
}

void
AnalyticModel::fillPlan(const KernelDesc &kernel, const ConfigGrid &grid,
                        batch::BatchPlan &plan) const
{
    kernel.validate();
    grid.validate();
    // Any grid point supplies the fixed microarchitecture parameters.
    const GpuConfig arch = grid.at(0, 0, 0);
    const Invariants inv = computeInvariants(kernel, arch);

    plan.kernel = kernelTerms(inv);
    plan.has_serial = kernel.serial_fraction > 0.0;
    plan.serial_fraction = kernel.serial_fraction;
    plan.parallel_fraction = 1.0 - kernel.serial_fraction;
    plan.launches = inv.launches;
    plan.total_flops = inv.total_flops;

    // Per core-clock value: the clock-domain terms of the base
    // configuration at that clock.
    const size_t n_core = grid.numCoreClk();
    plan.core_clk_hz.resize(n_core);
    plan.core_time_s.resize(n_core);
    plan.atomic_rate.resize(n_core);
    plan.l2_hop_s.resize(n_core);
    plan.dram_hop_s.resize(n_core);
    for (size_t c = 0; c < n_core; ++c) {
        GpuConfig cfg = grid.base;
        cfg.core_clk_mhz = grid.core_clks_mhz[c];
        const ClockTerms t = computeClockTerms(cfg);
        plan.core_clk_hz[c] = t.clk_hz;
        plan.core_time_s[c] = inv.compute_cycles_per_wave / t.clk_hz +
                              inv.barrier_cycles / t.clk_hz;
        plan.atomic_rate[c] = t.atomic_rate;
        plan.l2_hop_s[c] = t.l2_hop_s;
        plan.dram_hop_s[c] = t.dram_hop_s;
    }

    // Per memory-clock value.
    plan.dram_bw.resize(grid.numMemClk());
    for (size_t m = 0; m < grid.numMemClk(); ++m) {
        GpuConfig cfg = grid.base;
        cfg.mem_clk_mhz = grid.mem_clks_mhz[m];
        plan.dram_bw[m] = cfg.effectiveDramBw();
    }

    plan.cu.resize(grid.numCu());
    for (size_t cu_i = 0; cu_i < grid.numCu(); ++cu_i) {
        // Occupancy, cache, quantization, dispatch: once per CU
        // setting, reused across all clock pairs.
        const CuState cu =
            computeCuState(kernel, grid.at(cu_i, 0, 0), inv);
        const CuUnits units = computeCuUnits(grid.cu_values[cu_i], grid.base);
        plan.cu[cu_i] = makeCuTerms(inv, cu, units, arch);
        if (cu_i == 0)
            plan.launch_overhead_s = cu.disp.launch_overhead_s;
    }

    // The Amdahl phase always runs on a one-CU machine, so its
    // clock-independent state is shared by the entire grid.  A reused
    // plan must not keep the previous kernel's serial machine.
    plan.serial_cu = batch::CuTerms{};
    if (plan.has_serial) {
        GpuConfig one_cu = arch;
        one_cu.num_cus = 1;
        const CuState serial_cu = computeCuState(kernel, one_cu, inv);
        plan.serial_cu =
            makeCuTerms(inv, serial_cu, computeCuUnits(1, arch), arch);
    }
}

batch::BatchPlan
AnalyticModel::prepareBatch(const KernelDesc &kernel,
                            const ConfigGrid &grid) const
{
    batch::BatchPlan plan;
    fillPlan(kernel, grid, plan);
    return plan;
}

std::vector<double>
AnalyticModel::evaluateGridRuntimes(const KernelDesc &kernel,
                                    const ConfigGrid &grid) const
{
    static obs::Counter &evaluations =
        obs::Registry::instance().counter(
            "model.analytic.estimates",
            "analytic-model evaluations");
    evaluations.inc(grid.size());

    // One plan per thread, refilled in full by every call: once its
    // vectors have the grid's shape, stages 1-2 allocate nothing.
    thread_local batch::BatchPlan plan;
    fillPlan(kernel, grid, plan);
    std::vector<double> out(grid.size());
    batch::runBatch(plan, out.data());
    return out;
}

} // namespace gpu
} // namespace gpuscale
