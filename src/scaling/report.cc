/**
 * @file
 * Report emitter implementation.
 */

#include "report.hh"

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "base/csv.hh"
#include "base/fault.hh"
#include "base/logging.hh"
#include "base/string_util.hh"
#include "obs/fault_telemetry.hh"
#include "obs/metrics.hh"

namespace gpuscale {
namespace scaling {

TextTable
configSpaceTable(const ConfigSpace &space)
{
    TextTable t;
    t.addColumn("knob");
    t.addColumn("settings", TextTable::Align::Right);
    t.addColumn("min", TextTable::Align::Right);
    t.addColumn("max", TextTable::Align::Right);
    t.addColumn("range", TextTable::Align::Right);

    t.row({"compute units",
           strprintf("%zu", space.numCu()),
           strprintf("%d", space.cuValues().front()),
           strprintf("%d", space.cuValues().back()),
           strprintf("%.2fx", static_cast<double>(
                                  space.cuValues().back()) /
                                  space.cuValues().front())});
    t.row({"core clock (MHz)",
           strprintf("%zu", space.numCoreClk()),
           strprintf("%.0f", space.coreClks().front()),
           strprintf("%.0f", space.coreClks().back()),
           strprintf("%.2fx", space.coreClks().back() /
                                  space.coreClks().front())});
    t.row({"memory clock (MHz)",
           strprintf("%zu", space.numMemClk()),
           strprintf("%.0f", space.memClks().front()),
           strprintf("%.0f", space.memClks().back()),
           strprintf("%.2fx", space.memClks().back() /
                                  space.memClks().front())});
    t.row({"total configurations",
           strprintf("%zu", space.size()), "", "", ""});
    return t;
}

TextTable
classHistogramTable(
    const std::vector<KernelClassification> &classifications)
{
    const std::vector<size_t> hist = classHistogram(classifications);
    const double total =
        static_cast<double>(classifications.size());

    TextTable t;
    t.addColumn("class");
    t.addColumn("kernels", TextTable::Align::Right);
    t.addColumn("share", TextTable::Align::Right);
    for (const auto cls : allTaxonomyClasses()) {
        const size_t n = hist[static_cast<size_t>(cls)];
        t.row({taxonomyClassName(cls), strprintf("%zu", n),
               strprintf("%.1f%%",
                         total > 0 ? 100.0 * static_cast<double>(n) /
                                         total
                                   : 0.0)});
    }
    t.row({"total", strprintf("%zu", classifications.size()), "100.0%"});
    return t;
}

TextTable
nonObviousTable(const std::vector<KernelClassification> &classifications,
                size_t max_rows)
{
    TextTable t;
    t.addColumn("kernel");
    t.addColumn("class");
    t.addColumn("cu shape");
    t.addColumn("cu gain", TextTable::Align::Right);
    t.addColumn("freq gain", TextTable::Align::Right);
    t.addColumn("mem gain", TextTable::Align::Right);

    size_t rows = 0;
    for (const auto &c : classifications) {
        const bool non_obvious =
            c.cls == TaxonomyClass::CuAdverse ||
            c.cls == TaxonomyClass::LatencyBound ||
            c.cls == TaxonomyClass::ParallelismStarved ||
            c.cls == TaxonomyClass::LaunchBound;
        if (!non_obvious)
            continue;
        if (rows++ >= max_rows)
            break;
        t.row({c.kernel, taxonomyClassName(c.cls), shapeName(c.cu.shape),
               strprintf("%.2fx", c.cu.total_gain),
               strprintf("%.2fx", c.freq.total_gain),
               strprintf("%.2fx", c.mem.total_gain)});
    }
    return t;
}

TextTable
suiteBreakdownTable(const std::vector<SuiteReport> &reports, int max_cus)
{
    TextTable t;
    t.addColumn("suite");
    t.addColumn("kernels", TextTable::Align::Right);
    for (const auto cls : allTaxonomyClasses())
        t.addColumn(taxonomyClassName(cls), TextTable::Align::Right);
    t.addColumn("median cu90", TextTable::Align::Right);
    t.addColumn("non-scaling", TextTable::Align::Right);

    for (const auto &r : reports) {
        t.beginRow();
        t.cell(r.suite);
        t.cell(strprintf("%zu", r.kernels));
        for (const auto cls : allTaxonomyClasses())
            t.cell(strprintf(
                "%zu", r.class_counts[static_cast<size_t>(cls)]));
        t.cell(strprintf("%.0f/%d", r.median_cu90, max_cus));
        t.cell(strprintf("%.0f%%", 100.0 * r.frac_non_scaling));
    }
    return t;
}

void
writeClassificationsCsv(
    std::ostream &os,
    const std::vector<KernelClassification> &classifications)
{
    CsvWriter w(os);
    w.row({"kernel", "class", "cu_shape", "freq_shape", "mem_shape",
           "cu_gain", "freq_gain", "mem_gain", "perf_range", "cu90"});
    for (const auto &c : classifications) {
        w.cell(c.kernel);
        w.cell(taxonomyClassName(c.cls));
        w.cell(shapeName(c.cu.shape));
        w.cell(shapeName(c.freq.shape));
        w.cell(shapeName(c.mem.shape));
        w.cell(c.cu.total_gain);
        w.cell(c.freq.total_gain);
        w.cell(c.mem.total_gain);
        w.cell(c.perf_range);
        w.cell(static_cast<int64_t>(c.cu90));
        w.endRow();
    }
}

void
writeSparseCensusCsv(
    std::ostream &os,
    const std::vector<SparseReconstruction> &reconstructions)
{
    CsvWriter w(os);
    w.row({"kernel", "class", "cu_shape", "freq_shape", "mem_shape",
           "cu_gain", "freq_gain", "mem_gain", "perf_range", "cu90",
           "confidence", "band_crosses", "samples"});
    for (const auto &r : reconstructions) {
        const KernelClassification &c = r.cls;
        w.cell(c.kernel);
        w.cell(taxonomyClassName(c.cls));
        w.cell(shapeName(c.cu.shape));
        w.cell(shapeName(c.freq.shape));
        w.cell(shapeName(c.mem.shape));
        w.cell(c.cu.total_gain);
        w.cell(c.freq.total_gain);
        w.cell(c.mem.total_gain);
        w.cell(c.perf_range);
        w.cell(static_cast<int64_t>(c.cu90));
        w.cell(r.confidence);
        w.cell(static_cast<int64_t>(r.band_crosses_boundary ? 1 : 0));
        w.cell(static_cast<int64_t>(r.samples));
        w.endRow();
    }
}

std::vector<ScalingSurface>
readSurfacesCsv(std::string_view text, gpu::GpuConfig base)
{
    const CsvDocument doc = parseCsv(text);
    const size_t col_kernel = doc.columnIndex("kernel");
    const size_t col_cus = doc.columnIndex("cus");
    const size_t col_core = doc.columnIndex("core_mhz");
    const size_t col_mem = doc.columnIndex("mem_mhz");
    const size_t col_rt = doc.columnIndex("runtime_s");

    static obs::Counter &rows_skipped =
        obs::Registry::instance().counter(
            "csv.rows.skipped",
            "malformed surface-CSV rows skipped during ingest");
    const uint64_t skipped_before = rows_skipped.value();

    // One validated row; `line` points back at the source for
    // warnings.
    struct GoodRow {
        const std::vector<std::string> *cells;
        int cus;
        double core;
        double mem;
        double rt;
        size_t line;
    };

    // Locale-independent field parse; atof would read "1,5" as 1
    // under e.g. de_DE and silently bend the whole grid.  Returns
    // nullopt instead of aborting so one mangled row costs one grid
    // point, not the whole report.  parseDouble accepts "nan" and
    // "inf", which no knob or runtime can be, so they count as
    // malformed here; so does a cus that does not fit an int.
    auto csvNumber =
        [](const std::string &field) -> std::optional<double> {
        const auto v = parseDouble(field);
        if (!v || !std::isfinite(*v))
            return std::nullopt;
        return v;
    };

    // Single validation pass: a row with any malformed number (or an
    // injected ingest fault) is skipped with a line-numbered warning
    // and counted, never silently dropped.
    std::vector<GoodRow> good;
    good.reserve(doc.rows.size());
    for (size_t r = 0; r < doc.rows.size(); ++r) {
        const auto &row = doc.rows[r];
        const size_t line = r < doc.row_lines.size()
                                ? doc.row_lines[r] : r + 2;
        const auto cus = parseInteger<int>(row[col_cus]);
        const auto core = csvNumber(row[col_core]);
        const auto mem = csvNumber(row[col_mem]);
        const auto rt = csvNumber(row[col_rt]);
        const bool injected = faultPoint("csv.ingest.row");
        if (injected || !cus || !core || !mem || !rt) {
            warn("surface CSV line %zu: %s; row skipped", line,
                 injected ? "injected ingest fault"
                          : "malformed number");
            rows_skipped.inc();
            obs::noteDegradation("csv.ingest.row");
            continue;
        }
        good.push_back({&row, *cus, *core, *mem, *rt, line});
    }

    // Infer the grid axes from the distinct knob values of the rows
    // that survived validation.
    std::set<int> cu_set;
    std::set<double> core_set, mem_set;
    for (const auto &g : good) {
        cu_set.insert(g.cus);
        core_set.insert(g.core);
        mem_set.insert(g.mem);
    }
    const ConfigSpace space(
        std::vector<int>(cu_set.begin(), cu_set.end()),
        std::vector<double>(core_set.begin(), core_set.end()),
        std::vector<double>(mem_set.begin(), mem_set.end()), base);

    auto axisIndex = [](const auto &values, auto v, const char *name) {
        for (size_t i = 0; i < values.size(); ++i) {
            if (values[i] == v)
                return i;
        }
        fatal("surface CSV: %s value not on the inferred axis", name);
    };

    // Collect samples per kernel, preserving first-seen order.
    std::vector<std::string> order;
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, size_t> filled;
    for (const auto &g : good) {
        const std::string &kernel = (*g.cells)[col_kernel];
        auto it = samples.find(kernel);
        if (it == samples.end()) {
            order.push_back(kernel);
            it = samples.emplace(kernel,
                                 std::vector<double>(space.size(), 0.0))
                     .first;
        }
        const size_t flat = space.flatten(
            axisIndex(space.cuValues(), g.cus, "cus"),
            axisIndex(space.coreClks(), g.core, "core_mhz"),
            axisIndex(space.memClks(), g.mem, "mem_mhz"));
        fatal_if(it->second[flat] != 0.0,
                 "surface CSV: duplicate sample for %s at %zu",
                 kernel.c_str(), flat);
        it->second[flat] = g.rt;
        ++filled[kernel];
    }

    const uint64_t skipped = rows_skipped.value() - skipped_before;
    std::vector<ScalingSurface> surfaces;
    surfaces.reserve(order.size());
    for (const auto &kernel : order) {
        if (filled[kernel] != space.size()) {
            // With skipped rows the hole is explained and the kernel
            // degrades to "not reported"; without any, the file is
            // truncated and silently continuing would misattribute
            // samples.
            fatal_if(skipped == 0,
                     "surface CSV: kernel %s covers %zu of %zu grid "
                     "points",
                     kernel.c_str(), filled[kernel], space.size());
            warn("surface CSV: kernel %s covers %zu of %zu grid "
                 "points after skipped rows; kernel dropped",
                 kernel.c_str(), filled[kernel], space.size());
            obs::noteDegradation("csv.ingest.kernel");
            continue;
        }
        surfaces.emplace_back(kernel, space,
                              std::move(samples[kernel]));
    }
    return surfaces;
}

void
writeSurfaceCsv(std::ostream &os, const ScalingSurface &surface)
{
    CsvWriter w(os);
    w.row({"kernel", "cus", "core_mhz", "mem_mhz", "runtime_s"});
    const ConfigSpace &space = surface.space();
    for (size_t i = 0; i < space.size(); ++i) {
        const auto idx = space.unflatten(i);
        w.cell(surface.kernelName());
        w.cell(static_cast<int64_t>(space.cuValues()[idx.cu]));
        w.cell(space.coreClks()[idx.core]);
        w.cell(space.memClks()[idx.mem]);
        w.cell(surface.runtimes()[i]);
        w.endRow();
    }
}

} // namespace scaling
} // namespace gpuscale
