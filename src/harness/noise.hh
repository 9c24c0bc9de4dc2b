/**
 * @file
 * Measurement-noise injection.
 *
 * Real scaling studies time kernels on hardware, where run-to-run
 * variation (clock ramping, OS interference, DVFS residue) perturbs
 * every sample.  NoisyModel decorates any PerfModel with
 * deterministic, per-(kernel, configuration) multiplicative lognormal
 * noise so the robustness of the taxonomy to measurement error can be
 * studied (experiment A4) and the Irregular class exercised end to
 * end.
 */

#ifndef GPUSCALE_HARNESS_NOISE_HH
#define GPUSCALE_HARNESS_NOISE_HH

#include <cstdint>

#include "gpu/perf_model.hh"

namespace gpuscale {
namespace harness {

/** A PerfModel decorator adding multiplicative lognormal noise. */
class NoisyModel : public gpu::PerfModel
{
  public:
    /**
     * @param inner the model to perturb (not owned; must outlive
     *        this object).
     * @param sigma standard deviation of log-runtime noise; 0.01 is a
     *        well-controlled testbed, 0.05 a noisy shared machine.
     * @param seed noise stream seed; the same (kernel, config, seed)
     *        always yields the same perturbation, so noisy sweeps are
     *        reproducible.
     */
    NoisyModel(const gpu::PerfModel &inner, double sigma,
               uint64_t seed = 1);

    gpu::KernelPerf estimate(const gpu::KernelDesc &kernel,
                             const gpu::GpuConfig &cfg) const override;

    /**
     * Runtimes hot path: the inner model's flat vector scaled by the
     * same per-point factor estimate() applies to time_s, so the
     * noisy grid and scalar paths stay bitwise identical too.
     */
    std::vector<double> evaluateGridRuntimes(
        const gpu::KernelDesc &kernel,
        const gpu::ConfigGrid &grid) const override;

    std::string name() const override;

    /**
     * Noise is deterministic per (kernel, config, seed), so a noisy
     * sweep is cacheable: the inner fingerprint plus sigma and seed
     * (empty whenever the inner model is uncacheable).
     */
    std::string fingerprint() const override;

    double sigma() const { return sigma_; }
    uint64_t seed() const { return seed_; }

  private:
    double noiseFactor(const gpu::KernelDesc &kernel,
                       const gpu::GpuConfig &cfg) const;

    const gpu::PerfModel &inner_;
    double sigma_;
    uint64_t seed_;
};

} // namespace harness
} // namespace gpuscale

#endif // GPUSCALE_HARNESS_NOISE_HH
