/**
 * @file
 * Abstract timing-model interface.
 *
 * Two implementations exist: AnalyticModel (fast interval analysis,
 * used for the 267-kernel x 891-config sweeps) and EventModel
 * (wavefront-granularity discrete-event simulation, used to validate
 * the analytic model's shapes).  The taxonomy engine is written
 * against this interface, so it is oblivious to which fidelity — or a
 * real GPU — produced the measurements.
 */

#ifndef GPUSCALE_GPU_PERF_MODEL_HH
#define GPUSCALE_GPU_PERF_MODEL_HH

#include <string>
#include <vector>

#include "config_grid.hh"
#include "perf_result.hh"

namespace gpuscale {
namespace gpu {

struct GpuConfig;
struct KernelDesc;

/** Interface implemented by every timing model. */
class PerfModel
{
  public:
    virtual ~PerfModel() = default;

    /**
     * Estimate the runtime of one kernel on one configuration.
     *
     * Both arguments are validated; a malformed kernel or
     * configuration is a fatal() user error.
     */
    virtual KernelPerf estimate(const KernelDesc &kernel,
                                const GpuConfig &cfg) const = 0;

    /**
     * Estimate only the end-to-end runtime (KernelPerf::time_s) of
     * every grid point, in ConfigGrid::flatten order.
     *
     * This is the census hot path: the sweep harness keys its cache
     * on exactly this vector.  The base implementation is the scalar
     * oracle — one estimate() call per point — so any override is
     * checkable against it point-for-point, and overrides must return
     * bitwise the same doubles (the differential tests assert it).
     * AnalyticModel overrides it with a flat structure-of-arrays walk
     * that hoists kernel- and CU-invariant work out of the clock
     * loops (see analytic_batch.hh).
     */
    virtual std::vector<double> evaluateGridRuntimes(
        const KernelDesc &kernel, const ConfigGrid &grid) const;

    /** Model name for reports ("analytic", "event"). */
    virtual std::string name() const = 0;

    /**
     * Identity string for sweep-cache keys: two models with equal,
     * non-empty fingerprints must produce identical estimates for
     * identical inputs.  An empty string marks the model uncacheable,
     * and is the default — a model must opt in by folding its name
     * and *every* tunable parameter into the string, because a stale
     * hit served across models with different parameters is silent
     * data corruption.
     */
    virtual std::string fingerprint() const { return ""; }
};

} // namespace gpu
} // namespace gpuscale

#endif // GPUSCALE_GPU_PERF_MODEL_HH
