/**
 * @file
 * Discrete-event model implementation.
 */

#include "event_sim.hh"

#include <algorithm>
#include <cmath>
#include <queue>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "gpu/cache_model.hh"
#include "gpu/dispatch.hh"
#include "gpu/gpu_config.hh"
#include "gpu/interconnect.hh"
#include "gpu/kernel_desc.hh"
#include "gpu/memory_system.hh"
#include "gpu/occupancy.hh"
#include "resource.hh"

namespace gpuscale {
namespace gpu {
namespace timing {

namespace {

/** FNV-1a hash used to derive per-kernel RNG streams. */
uint64_t
hashName(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Per-wavefront execution state. */
struct WaveState {
    int cu = 0;
    int64_t wg = 0;
    /** Phases remaining: a wave runs segments+chains phases. */
    int phase = 0;
    int total_phases = 0;
    Rng rng{0};
};

/** Heap event: advance one wave at a time. */
struct Event {
    double time = 0.0;
    uint64_t seq = 0; ///< tie-breaker for determinism
    size_t wave = 0;

    bool operator>(const Event &other) const
    {
        if (time != other.time)
            return time > other.time;
        return seq > other.seq;
    }
};

} // namespace

EventModel::EventModel(EventSimParams params)
    : params_(params)
{
}

KernelPerf
EventModel::simulateParallelPhase(const KernelDesc &kernel,
                                  const GpuConfig &cfg,
                                  EventSimStats *stats) const
{
    KernelPerf perf;
    perf.occupancy = computeOccupancy(kernel, cfg);
    perf.cache = computeCacheBehavior(kernel, cfg, perf.occupancy);

    const double clk = cfg.coreClkHz();
    const int waves_per_wg = kernel.wavesPerWg(cfg);

    //
    // Optionally shrink the launch to the simulation budget and
    // extrapolate.  We keep at least several full residency batches so
    // steady-state contention is preserved.
    //
    int64_t sim_wgs = kernel.num_workgroups;
    const int64_t total_waves = kernel.totalWaves(cfg);
    double scale = 1.0;
    if (total_waves > params_.max_simulated_waves) {
        sim_wgs = std::max<int64_t>(
            params_.max_simulated_waves / waves_per_wg, 1);
        scale = static_cast<double>(kernel.num_workgroups) /
                static_cast<double>(sim_wgs);
    }

    //
    // Resources.
    //
    const XbarState xbar = computeXbar(cfg);
    const MemorySystem mem(cfg);

    std::vector<PipeResource> compute_pipes;
    std::vector<PipeResource> l1_pipes;
    compute_pipes.reserve(cfg.num_cus);
    l1_pipes.reserve(cfg.num_cus);
    for (int cu = 0; cu < cfg.num_cus; ++cu) {
        compute_pipes.emplace_back(strprintf("cu%d.simd", cu),
                                   cfg.simds_per_cu * clk);
        l1_pipes.emplace_back(strprintf("cu%d.l1", cu),
                              cfg.l1_bytes_per_cycle * clk);
    }
    PipeResource l2_pipe("l2", xbar.effective_bw);
    PipeResource dram_pipe("dram", mem.peakBandwidth());
    PipeResource atomic_pipe("atomic", cfg.atomic_ops_per_cycle * clk);

    //
    // Per-wave workload shape.
    //
    const double div_mult = 1.0 / (1.0 - kernel.branch_divergence);
    const int issue_cycles =
        cfg.wavefront_size / cfg.lanes_per_simd;
    const double lds_cycles_per_wave =
        kernel.lds_ops * cfg.wavefront_size / cfg.lds_lanes_per_cycle;
    const double barrier_cycles =
        kernel.barriers * (20.0 + 4.0 * waves_per_wg);
    const double compute_cycles_per_wave =
        (kernel.valu_ops + 4.0 * kernel.sfu_ops) * issue_cycles *
            div_mult +
        lds_cycles_per_wave + barrier_cycles;

    const double mem_insts_per_wave =
        kernel.mem_loads + kernel.mem_stores;
    const int chains = mem_insts_per_wave > 0
                           ? static_cast<int>(std::ceil(
                                 mem_insts_per_wave / kernel.mlp))
                           : 0;
    const double insts_per_chain =
        chains > 0 ? mem_insts_per_wave / chains : 0.0;
    const double bytes_per_inst =
        cfg.wavefront_size * kernel.bytes_per_access / kernel.coalescing;
    const double compute_segment_cycles =
        compute_cycles_per_wave / (chains + 1);

    const double atomics_per_wave =
        kernel.atomic_ops * cfg.wavefront_size;
    // Matches AnalyticParams' default retry model.
    const double retry_mult =
        1.0 + kernel.atomic_contention * 2.5 *
                  static_cast<double>(perf.occupancy.active_waves) /
                  1760.0;

    const double l1_lat = cfg.l1_latency_cycles / clk;
    const double l2_lat = cfg.l2_latency_cycles / clk + xbar.latency_s;
    // The event model uses the unloaded DRAM latency; queueing emerges
    // from the DRAM pipe itself.
    const double dram_lat = l2_lat + mem.unloadedLatency();

    //
    // Dispatcher state: per-CU workgroup slots.
    //
    const int slots_per_cu = perf.occupancy.wgs_per_cu;
    std::vector<WaveState> waves;
    waves.reserve(static_cast<size_t>(
        std::min<int64_t>(sim_wgs, 4 * cfg.num_cus * slots_per_cu) *
        waves_per_wg));

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        heap;
    uint64_t seq = 0;

    std::vector<int> wg_waves_left;
    int64_t next_wg = 0;
    double makespan = 0.0;

    Rng kernel_rng(hashName(kernel.name) ^ params_.seed);

    auto dispatch_wg = [&](int cu, double now) {
        ++next_wg;
        wg_waves_left.push_back(waves_per_wg);
        const size_t wg_slot = wg_waves_left.size() - 1;
        for (int w = 0; w < waves_per_wg; ++w) {
            WaveState ws;
            ws.cu = cu;
            ws.wg = static_cast<int64_t>(wg_slot);
            ws.phase = 0;
            ws.total_phases = 2 * chains + 1;
            ws.rng = Rng(kernel_rng.next());
            waves.push_back(ws);
            heap.push({now, seq++, waves.size() - 1});
        }
    };

    // Initial fill: round-robin workgroups across CU slots.
    for (int s = 0; s < slots_per_cu && next_wg < sim_wgs; ++s) {
        for (int cu = 0; cu < cfg.num_cus && next_wg < sim_wgs; ++cu)
            dispatch_wg(cu, 0.0);
    }

    //
    // Main event loop.
    //
    uint64_t events_processed = 0;
    while (!heap.empty()) {
        const Event ev = heap.top();
        heap.pop();
        ++events_processed;
        WaveState &ws = waves[ev.wave];
        const double now = ev.time;

        if (ws.phase == ws.total_phases) {
            // Wave retired; account the workgroup.
            double done_time = now;
            if (atomics_per_wave > 0) {
                done_time = atomic_pipe.serve(
                    now, atomics_per_wave * retry_mult);
            }
            makespan = std::max(makespan, done_time);
            if (--wg_waves_left[static_cast<size_t>(ws.wg)] == 0 &&
                next_wg < sim_wgs) {
                dispatch_wg(ws.cu, done_time);
            }
            continue;
        }

        double next_time;
        if (ws.phase % 2 == 0) {
            // Compute segment on this CU's SIMD pipe.
            next_time = compute_pipes[static_cast<size_t>(ws.cu)].serve(
                now, compute_segment_cycles);
        } else {
            // Memory-dependency chain: insts_per_chain independent
            // requests; the chain completes when the slowest returns.
            next_time = now;
            const int whole_insts =
                static_cast<int>(std::floor(insts_per_chain));
            const double frac =
                insts_per_chain - static_cast<double>(whole_insts);
            const int n_insts =
                whole_insts + (ws.rng.chance(frac) ? 1 : 0);
            for (int i = 0; i < n_insts; ++i) {
                double t = l1_pipes[static_cast<size_t>(ws.cu)].serve(
                    now, bytes_per_inst);
                const bool l1_hit =
                    ws.rng.chance(perf.cache.l1_hit_rate);
                if (l1_hit) {
                    t += l1_lat;
                } else {
                    t = l2_pipe.serve(t, bytes_per_inst);
                    const bool l2_hit =
                        ws.rng.chance(perf.cache.l2_hit_rate);
                    if (l2_hit) {
                        t += l2_lat;
                    } else {
                        t = dram_pipe.serve(t, bytes_per_inst);
                        t += dram_lat;
                    }
                }
                next_time = std::max(next_time, t);
            }
        }

        ++ws.phase;
        heap.push({next_time, seq++, ev.wave});
    }

    //
    // Results.  Extrapolate linearly when the launch was shrunk.
    //
    perf.kernel_time_s = makespan * scale;

    perf.t_compute = 0.0;
    perf.t_l1 = 0.0;
    for (int cu = 0; cu < cfg.num_cus; ++cu) {
        perf.t_compute = std::max(
            perf.t_compute,
            compute_pipes[static_cast<size_t>(cu)].busyTime());
        perf.t_l1 = std::max(
            perf.t_l1, l1_pipes[static_cast<size_t>(cu)].busyTime());
    }
    perf.t_compute *= scale;
    perf.t_l1 *= scale;
    perf.t_l2 = l2_pipe.busyTime() * scale;
    perf.t_dram = dram_pipe.busyTime() * scale;
    perf.t_atomic = atomic_pipe.busyTime() * scale;
    perf.achieved_dram_bw =
        makespan > 0 ? dram_pipe.totalWork() / makespan : 0.0;
    perf.dram_utilization =
        mem.peakBandwidth() > 0
            ? perf.achieved_dram_bw / mem.peakBandwidth()
            : 0.0;

    // Bound attribution: the busiest resource, or latency when nothing
    // is near saturation.
    struct { double t; BoundResource r; } terms[] = {
        { perf.t_compute, BoundResource::Compute },
        { perf.t_l1, BoundResource::L1 },
        { perf.t_l2, BoundResource::L2 },
        { perf.t_dram, BoundResource::Dram },
        { perf.t_atomic, BoundResource::Atomics },
    };
    double best = 0.0;
    perf.bound = BoundResource::Latency;
    for (const auto &term : terms) {
        if (term.t > best) {
            best = term.t;
            perf.bound = term.r;
        }
    }
    if (best < 0.60 * perf.kernel_time_s)
        perf.bound = BoundResource::Latency;

    if (stats) {
        stats->waves_simulated = static_cast<int64_t>(waves.size());
        stats->workgroups_simulated = static_cast<int64_t>(next_wg);
        stats->events = static_cast<int64_t>(events_processed);
        stats->extrapolation = scale;
        stats->makespan_us = makespan * 1e6;
        stats->l2_bytes = l2_pipe.totalWork();
        stats->dram_bytes = dram_pipe.totalWork();
        stats->atomic_ops = atomic_pipe.totalWork();
        stats->dram_utilization =
            makespan > 0 ? dram_pipe.busyTime() / makespan : 0.0;
    }

    return perf;
}

KernelPerf
EventModel::estimate(const KernelDesc &kernel, const GpuConfig &cfg) const
{
    return estimateImpl(kernel, cfg, nullptr);
}

KernelPerf
EventModel::estimate(const KernelDesc &kernel, const GpuConfig &cfg,
                     EventSimStats &stats) const
{
    return estimateImpl(kernel, cfg, &stats);
}

KernelPerf
EventModel::estimateImpl(const KernelDesc &kernel, const GpuConfig &cfg,
                         EventSimStats *stats) const
{
    static obs::Counter &evaluations =
        obs::Registry::instance().counter(
            "model.event.estimates",
            "event-model simulations");
    evaluations.inc();
    GPUSCALE_TRACE_SCOPE("event_sim/", kernel.name);

    kernel.validate();
    cfg.validate();

    KernelPerf perf = simulateParallelPhase(kernel, cfg, stats);

    double serial_time = 0.0;
    if (kernel.serial_fraction > 0.0) {
        GpuConfig one_cu = cfg;
        one_cu.num_cus = 1;
        const KernelPerf serial_perf =
            simulateParallelPhase(kernel, one_cu, nullptr);
        serial_time = kernel.serial_fraction * serial_perf.kernel_time_s;
        perf.kernel_time_s =
            (1.0 - kernel.serial_fraction) * perf.kernel_time_s +
            serial_time;
    }

    const DispatchState disp =
        computeDispatch(kernel, cfg, perf.occupancy);
    perf.t_launch = disp.launch_overhead_s;

    const double per_launch = perf.kernel_time_s + perf.t_launch;
    perf.time_s = static_cast<double>(kernel.launches) * per_launch;
    perf.t_serial = static_cast<double>(kernel.launches) * serial_time;

    if (perf.t_launch > perf.kernel_time_s)
        perf.bound = BoundResource::Launch;

    const double total_flops =
        static_cast<double>(kernel.launches) *
        static_cast<double>(kernel.totalWorkItems()) *
        (kernel.valu_ops + 4.0 * kernel.sfu_ops);
    perf.achieved_gflops =
        perf.time_s > 0 ? total_flops / perf.time_s / 1e9 : 0.0;

    return perf;
}

} // namespace timing
} // namespace gpu
} // namespace gpuscale
