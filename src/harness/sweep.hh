/**
 * @file
 * Sweep harness: measure kernels across the configuration grid.
 *
 * This is the code a real study runs against hardware; here the
 * "measurement" is a PerfModel::estimate() call, so the same harness
 * drives either fidelity.
 */

#ifndef GPUSCALE_HARNESS_SWEEP_HH
#define GPUSCALE_HARNESS_SWEEP_HH

#include <vector>

#include "gpu/perf_model.hh"
#include "harness/cancel.hh"
#include "scaling/config_space.hh"
#include "scaling/surface.hh"
#include "scaling/taxonomy.hh"

namespace gpuscale {
namespace obs {
class ProgressReporter;
} // namespace obs
namespace harness {

class CensusJournal;

/**
 * Measure one kernel at every grid point — one
 * PerfModel::evaluateGridRuntimes() call, served from the SweepCache
 * when the identical (model, kernel, grid) sweep has run before.
 *
 * @return the kernel's scaling surface.
 */
scaling::ScalingSurface sweepKernel(const gpu::PerfModel &model,
                                    const gpu::KernelDesc &kernel,
                                    const scaling::ConfigSpace &space);

/**
 * Measure a batch of kernels; kernels are distributed across worker
 * threads in contiguous shards (census.shard.* metrics), each kernel
 * evaluated as one batched grid call through the SweepCache.  A
 * shard stages the vectors it computes and hands them to the cache
 * in one SweepCache::insertBatch() when it ends, thrown exceptions
 * included, so an interrupted sweep keeps every kernel it computed.
 *
 * Each swept kernel records a "sweep/<name>" trace span and feeds the
 * sweep.estimate.latency histogram (see docs/observability.md).
 *
 * With a journal (checkpoint.hh), kernels already recorded are
 * replayed bitwise instead of re-swept, and every freshly computed
 * kernel is appended — a killed run resumes where it stopped.
 * Records are keyed by SweepCache::keyFor, so a kernel whose
 * descriptor changed under the same name is swept again.
 *
 * @param kernels non-owning kernel pointers; all non-null.
 * @param progress optional reporter ticked once per finished kernel.
 * @param journal optional checkpoint journal for crash-safe resume.
 * @param cancel optional cooperative-cancellation token (cancel.hh);
 *        an expired token aborts the sweep with CancelledError.
 *        Kernels already journaled stay journaled, so a cancelled
 *        sweep resumes exactly like a killed one.
 * @param classifications optional output: resized to one slot per
 *        kernel, each classified with `params` by the shard that
 *        built its surface (replayed kernels included), so a census
 *        is one parallel region rather than a sweep and a second
 *        classification pass.
 */
std::vector<scaling::ScalingSurface> sweepKernels(
    const gpu::PerfModel &model,
    const std::vector<const gpu::KernelDesc *> &kernels,
    const scaling::ConfigSpace &space,
    obs::ProgressReporter *progress = nullptr,
    CensusJournal *journal = nullptr,
    const CancelToken *cancel = nullptr,
    std::vector<scaling::KernelClassification> *classifications = nullptr,
    const scaling::TaxonomyParams &params = scaling::TaxonomyParams{});

} // namespace harness
} // namespace gpuscale

#endif // GPUSCALE_HARNESS_SWEEP_HH
