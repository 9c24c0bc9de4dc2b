/**
 * @file
 * Wavefront-granularity discrete-event GPU timing model.
 *
 * Mechanistic counterpart to the AnalyticModel: workgroups are
 * dispatched greedily onto CU slots, each wavefront alternates compute
 * segments with memory-dependency chains, and every hardware resource
 * (per-CU SIMD pipe, per-CU L1 port, shared L2, shared DRAM, global
 * atomic unit) is a rate-limited FIFO server.  Cache level selection
 * is stochastic against the cache model's hit rates with a per-wave
 * deterministic RNG, so runs are bit-reproducible.
 *
 * This model is O(waves x memory chains) per launch and is intended
 * for validation (tests and the A1 model-fidelity ablation), not for
 * the full 238k-point census.
 */

#ifndef GPUSCALE_GPU_TIMING_EVENT_SIM_HH
#define GPUSCALE_GPU_TIMING_EVENT_SIM_HH

#include <cstdint>

#include "gpu/perf_model.hh"

namespace gpuscale {
namespace gpu {
namespace timing {

/** Tunables for the event-driven model. */
struct EventSimParams {
    /**
     * Cap on simulated wavefronts per launch.  Launches larger than
     * the cap are scaled: the simulator runs `cap` waves and
     * extrapolates the makespan linearly in the remaining work.  This
     * keeps validation runs bounded while preserving steady-state
     * contention behaviour.
     */
    int64_t max_simulated_waves = 200000;

    /** Seed mixed into per-wave RNG streams. */
    uint64_t seed = 0x5eedu;
};

/** What one instrumented run measured (EventModel::estimate). */
struct EventSimStats {
    int64_t waves_simulated = 0;      ///< wavefronts simulated
    int64_t workgroups_simulated = 0; ///< workgroups dispatched
    int64_t events = 0;               ///< event-loop iterations
    double extrapolation = 0.0;       ///< launch shrink factor
    double makespan_us = 0.0;         ///< simulated makespan
    double l2_bytes = 0.0;            ///< bytes served by the L2 pipe
    double dram_bytes = 0.0;          ///< bytes served by DRAM
    double atomic_ops = 0.0;          ///< atomic operations serviced
    double dram_utilization = 0.0;    ///< DRAM busy share of makespan
};

/** The discrete-event model. */
class EventModel : public PerfModel
{
  public:
    EventModel() = default;
    explicit EventModel(EventSimParams params);

    KernelPerf estimate(const KernelDesc &kernel,
                        const GpuConfig &cfg) const override;

    /**
     * Like estimate(), additionally filling `stats` with what the
     * simulator did (waves/events simulated, per-level bytes, DRAM
     * busy fraction) — the instrumented run.
     */
    KernelPerf estimate(const KernelDesc &kernel, const GpuConfig &cfg,
                        EventSimStats &stats) const;

    std::string name() const override { return "event"; }

    const EventSimParams &params() const { return params_; }

  private:
    KernelPerf simulateParallelPhase(const KernelDesc &kernel,
                                     const GpuConfig &cfg,
                                     EventSimStats *stats) const;

    KernelPerf estimateImpl(const KernelDesc &kernel,
                            const GpuConfig &cfg,
                            EventSimStats *stats) const;

    EventSimParams params_;
};

} // namespace timing
} // namespace gpu
} // namespace gpuscale

#endif // GPUSCALE_GPU_TIMING_EVENT_SIM_HH
