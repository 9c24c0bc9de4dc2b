/**
 * @file
 * The stage-3 census kernel: a flat, branch-light clock-domain loop.
 *
 * This translation unit is compiled separately so the optional
 * vectorization-report flags (GPUSCALE_VEC_REPORT) apply to it alone,
 * and so ci/check_vectorization.sh can compile just this file and
 * assert the marked loop below auto-vectorizes.  Keep the inner loop
 * free of branches, virtual calls, and struct indirection: only
 * t_dram varies with the memory clock, so everything else is hoisted
 * to the (CU, core clock) level and the loop is division + max +
 * multiply-add on plain double arrays.
 */

#include "analytic_batch.hh"

namespace gpuscale {
namespace gpu {
namespace batch {

namespace {

/**
 * The serial/non-serial variants are split at compile time so the
 * common case (no Amdahl phase) pays nothing and the serial case
 * stays branch-free inside the loop.
 */
template <bool kHasSerial>
void
runBatchImpl(const BatchPlan &plan, double *out)
{
    const size_t n_core = plan.core_clk_hz.size();
    const size_t n_mem = plan.dram_bw.size();
    const double *__restrict__ dram_bw = plan.dram_bw.data();

    // Hoist the scalar plan fields: `out` could legally alias the
    // plan's storage as far as the compiler knows, and reloading them
    // per point would defeat vectorization.
    const double launches = plan.launches;
    const double launch_overhead_s = plan.launch_overhead_s;
    const double parallel_fraction = plan.parallel_fraction;
    const double serial_fraction = plan.serial_fraction;
    const double s_bytes = plan.serial_cu.dram_bytes;

    // The Amdahl phase always runs on the one-CU machine, so its
    // core-domain max is CU-invariant: hoist it per core clock, into
    // a per-thread buffer whose capacity lasts, so that the model
    // allocates only its result.
    const double *serial_base = nullptr;
    if constexpr (kHasSerial) {
        thread_local std::vector<double> buffer;
        buffer.resize(n_core);
        for (size_t c = 0; c < n_core; ++c) {
            buffer[c] = computeCoreTerms(plan.kernel, plan.serial_cu,
                                         plan.core_clk_hz[c],
                                         plan.core_time_s[c],
                                         plan.l2_hop_s[c],
                                         plan.dram_hop_s[c],
                                         plan.atomic_rate[c])
                            .base_max;
        }
        serial_base = buffer.data();
    }

    double *__restrict__ row = out;
    for (const CuTerms &cu : plan.cu) {
        const double bytes = cu.dram_bytes;
        for (size_t c = 0; c < n_core; ++c) {
            const CoreTerms ct = computeCoreTerms(
                plan.kernel, cu, plan.core_clk_hz[c],
                plan.core_time_s[c], plan.l2_hop_s[c],
                plan.dram_hop_s[c], plan.atomic_rate[c]);
            const double base = ct.base_max;
            const double s_base = kHasSerial ? serial_base[c] : 0.0;
            // GPUSCALE_STAGE3_LOOP: the flat memory-clock sweep the
            // vectorization gate asserts on (marker consumed by
            // ci/check_vectorization.sh; keep it on the line above
            // the `for`).
            for (size_t m = 0; m < n_mem; ++m) {
                const double t_dram = bytes / dram_bw[m];
                double kernel_time = std::max(base, t_dram);
                if constexpr (kHasSerial) {
                    const double s_core =
                        std::max(s_base, s_bytes / dram_bw[m]);
                    kernel_time = parallel_fraction * kernel_time +
                                  serial_fraction * s_core;
                }
                row[m] = launches * (kernel_time + launch_overhead_s);
            }
            row += n_mem;
        }
    }
}

} // namespace

void
runBatch(const BatchPlan &plan, double *out)
{
    if (plan.has_serial)
        runBatchImpl<true>(plan, out);
    else
        runBatchImpl<false>(plan, out);
}

} // namespace batch
} // namespace gpu
} // namespace gpuscale
