/**
 * @file
 * Report emitters: render taxonomy results as tables/CSV in the shape
 * the paper's evaluation section presents them.
 */

#ifndef GPUSCALE_SCALING_REPORT_HH
#define GPUSCALE_SCALING_REPORT_HH

#include <ostream>
#include <vector>

#include "base/table.hh"
#include "config_space.hh"
#include "sparse_predictor.hh"
#include "suite_analysis.hh"
#include "taxonomy.hh"

namespace gpuscale {
namespace scaling {

/** T1: the hardware configuration space. */
TextTable configSpaceTable(const ConfigSpace &space);

/** T3/F4: taxonomy class populations with percentages. */
TextTable classHistogramTable(
    const std::vector<KernelClassification> &classifications);

/** T4: the non-obvious scalers (CU-adverse + plateau kernels). */
TextTable nonObviousTable(
    const std::vector<KernelClassification> &classifications,
    size_t max_rows = 30);

/** T5/F5: per-suite scalability summary. */
TextTable suiteBreakdownTable(const std::vector<SuiteReport> &reports,
                              int max_cus);

/** Per-kernel classification dump (CSV, one row per kernel). */
void writeClassificationsCsv(
    std::ostream &os,
    const std::vector<KernelClassification> &classifications);

/**
 * Per-kernel sparse-census dump: the classification columns of
 * writeClassificationsCsv() plus the sparse extras — confidence (the
 * census.confidence column: ensemble class-agreement in [0, 1]),
 * band_crosses (1 when the confidence band straddles a class
 * boundary), and samples (configurations measured).
 */
void writeSparseCensusCsv(
    std::ostream &os,
    const std::vector<SparseReconstruction> &reconstructions);

/** Per-kernel surface dump (CSV, one row per configuration). */
void writeSurfaceCsv(std::ostream &os, const ScalingSurface &surface);

/**
 * Parse scaling surfaces from CSV text in writeSurfaceCsv()'s format
 * ("kernel,cus,core_mhz,mem_mhz,runtime_s", one row per sample).
 *
 * This is the bring-your-own-measurements entry point: time kernels
 * on real hardware, dump the samples, and run the same taxonomy.
 * The grid is inferred from the distinct knob values; every kernel
 * must cover the full grid exactly once or the parse is a fatal()
 * user error.  A row with a malformed number (unparseable, nan, inf,
 * or a cus outside int range) is warned about, skipped and counted in
 * csv.rows.skipped, and the kernel it leaves short is dropped.
 *
 * @param text CSV content.
 * @param base fixed microarchitecture parameters for the inferred
 *        grid.
 */
std::vector<ScalingSurface> readSurfacesCsv(
    std::string_view text, gpu::GpuConfig base = gpu::GpuConfig{});

} // namespace scaling
} // namespace gpuscale

#endif // GPUSCALE_SCALING_REPORT_HH
