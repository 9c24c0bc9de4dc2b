/**
 * @file
 * Performance-result types shared by every timing model.
 */

#ifndef GPUSCALE_GPU_PERF_RESULT_HH
#define GPUSCALE_GPU_PERF_RESULT_HH

#include <string>

#include "cache_model.hh"
#include "occupancy.hh"

namespace gpuscale {
namespace gpu {

/** The resource that bounds a kernel's runtime on a configuration. */
enum class BoundResource {
    Compute,    ///< SIMD issue bandwidth
    Lds,        ///< local-data-share bandwidth
    L1,         ///< L1 port bandwidth
    L2,         ///< L2/crossbar bandwidth (core-clock domain)
    Dram,       ///< DRAM bandwidth (memory-clock domain)
    Latency,    ///< exposed memory latency (insufficient concurrency)
    Atomics,    ///< serialized atomic traffic
    Launch,     ///< host-side launch overhead
};

/** Human-readable resource name. */
std::string boundResourceName(BoundResource r);

/**
 * The outcome of estimating one kernel on one configuration.
 *
 * Component times are *per launch*; time_s covers the whole program
 * run (all launches, including host overhead and the serial fraction).
 */
struct KernelPerf {
    /** End-to-end time for the program run, seconds. */
    double time_s = 0.0;

    /** Device time for a single launch, seconds. */
    double kernel_time_s = 0.0;

    //
    // Roofline component times for one launch (seconds).
    //
    double t_compute = 0.0;
    double t_lds = 0.0;
    double t_l1 = 0.0;
    double t_l2 = 0.0;
    double t_dram = 0.0;
    double t_latency = 0.0;
    double t_atomic = 0.0;

    /** Host overhead per launch, seconds. */
    double t_launch = 0.0;

    /** Amdahl serial time folded into the run, seconds (whole run). */
    double t_serial = 0.0;

    /** The binding resource for the launch. */
    BoundResource bound = BoundResource::Compute;

    /** Occupancy snapshot. */
    Occupancy occupancy;

    /** Cache-behaviour snapshot. */
    CacheBehavior cache;

    /** Delivered DRAM bandwidth, bytes/s. */
    double achieved_dram_bw = 0.0;

    /** DRAM utilization in [0, 1). */
    double dram_utilization = 0.0;

    /** Delivered arithmetic rate, GFLOP/s. */
    double achieved_gflops = 0.0;

    /** Workgroup-quantization multiplier applied to CU-local terms. */
    double imbalance_factor = 1.0;

    /** Performance in launches of useful work per second. */
    double throughput() const { return time_s > 0 ? 1.0 / time_s : 0.0; }
};

} // namespace gpu
} // namespace gpuscale

#endif // GPUSCALE_GPU_PERF_RESULT_HH
