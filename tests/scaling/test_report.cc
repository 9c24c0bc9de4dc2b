/**
 * @file
 * Tests for the report emitters, including the measured-surface CSV
 * round trip that backs the bring-your-own-data workflow.
 */

#include "scaling/report.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "base/logging.hh"
#include "base/string_util.hh"
#include "gpu/analytic_model.hh"
#include "harness/sweep.hh"
#include "obs/metrics.hh"
#include "workloads/archetypes.hh"

namespace gpuscale {
namespace scaling {
namespace {

ScalingSurface
sampleSurface(const std::string &name = "t/r/k")
{
    const gpu::AnalyticModel model;
    auto kernel = workloads::streaming(
        "x", {.wgs = 1024, .wi_per_wg = 256});
    kernel.name = name;
    return harness::sweepKernel(model, kernel,
                                ConfigSpace::testGrid());
}

TEST(ReportTest, ConfigSpaceTableContents)
{
    const auto table = configSpaceTable(ConfigSpace::paperGrid());
    const std::string out = table.render();
    EXPECT_NE(out.find("11.00x"), std::string::npos);
    EXPECT_NE(out.find("5.00x"), std::string::npos);
    EXPECT_NE(out.find("8.33x"), std::string::npos);
    EXPECT_NE(out.find("891"), std::string::npos);
}

TEST(ReportTest, HistogramTableSharesSumTo100)
{
    KernelClassification a;
    a.kernel = "s/p/a";
    a.cls = TaxonomyClass::CoreBound;
    KernelClassification b = a;
    b.kernel = "s/p/b";
    b.cls = TaxonomyClass::MemoryBound;

    const auto table = classHistogramTable({a, b});
    const std::string out = table.render();
    EXPECT_NE(out.find("50.0%"), std::string::npos);
    EXPECT_NE(out.find("total"), std::string::npos);
}

TEST(ReportTest, NonObviousTableFiltersClasses)
{
    KernelClassification intuitive;
    intuitive.kernel = "s/p/core";
    intuitive.cls = TaxonomyClass::CoreBound;
    KernelClassification adverse;
    adverse.kernel = "s/p/adverse";
    adverse.cls = TaxonomyClass::CuAdverse;

    const auto table = nonObviousTable({intuitive, adverse});
    const std::string out = table.render();
    EXPECT_EQ(out.find("s/p/core"), std::string::npos);
    EXPECT_NE(out.find("s/p/adverse"), std::string::npos);
}

TEST(ReportTest, SurfaceCsvRoundTrip)
{
    const ScalingSurface original = sampleSurface();
    std::ostringstream os;
    writeSurfaceCsv(os, original);

    const auto surfaces = readSurfacesCsv(os.str());
    ASSERT_EQ(surfaces.size(), 1u);
    const auto &restored = surfaces.front();
    EXPECT_EQ(restored.kernelName(), original.kernelName());
    ASSERT_EQ(restored.space().size(), original.space().size());
    for (size_t i = 0; i < original.runtimes().size(); ++i) {
        EXPECT_DOUBLE_EQ(restored.runtimes()[i],
                         original.runtimes()[i])
            << i;
    }
    EXPECT_EQ(restored.space().cuValues(),
              original.space().cuValues());
}

TEST(ReportTest, MultiKernelCsvPreservesOrder)
{
    const ScalingSurface a = sampleSurface("t/r/a");
    const ScalingSurface b = sampleSurface("t/r/b");
    std::ostringstream os;
    writeSurfaceCsv(os, a);
    // Append b's rows without a second header.
    std::ostringstream os_b;
    writeSurfaceCsv(os_b, b);
    const std::string b_text = os_b.str();
    os << b_text.substr(b_text.find('\n') + 1);

    const auto surfaces = readSurfacesCsv(os.str());
    ASSERT_EQ(surfaces.size(), 2u);
    EXPECT_EQ(surfaces[0].kernelName(), "t/r/a");
    EXPECT_EQ(surfaces[1].kernelName(), "t/r/b");
}

TEST(ReportTest, ClassifyingRestoredSurfaceMatches)
{
    const ScalingSurface original = sampleSurface();
    std::ostringstream os;
    writeSurfaceCsv(os, original);
    const auto restored = readSurfacesCsv(os.str());
    EXPECT_EQ(classifySurface(restored.front()).cls,
              classifySurface(original).cls);
}

class ReportErrorTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLogThrowOnTerminate(true); }
    void TearDown() override { setLogThrowOnTerminate(false); }
};

TEST_F(ReportErrorTest, IncompleteGridIsFatal)
{
    const ScalingSurface original = sampleSurface();
    std::ostringstream os;
    writeSurfaceCsv(os, original);
    // Drop the last sample row.
    std::string text = os.str();
    text.erase(text.rfind('\n', text.size() - 2) + 1);
    EXPECT_THROW(readSurfacesCsv(text), std::runtime_error);
}

TEST_F(ReportErrorTest, MissingColumnIsFatal)
{
    EXPECT_THROW(readSurfacesCsv("a,b\n1,2\n"), std::runtime_error);
}

/** Replace field `col` of data row `row` (0 = first after the header). */
std::string
withField(const std::string &csv, size_t row, size_t col,
          const std::string &value)
{
    std::vector<std::string> lines = split(csv, '\n');
    std::vector<std::string> fields = split(lines.at(row + 1), ',');
    fields.at(col) = value;
    lines[row + 1] = join(fields, ",");
    return join(lines, "\n");
}

TEST_F(ReportErrorTest, NonFiniteFieldSkipsTheRowAndDropsItsKernel)
{
    // Two kernels; one field of one of a's rows is corrupted.  Each
    // case is one malformed number: the row is skipped and counted,
    // a is dropped for its missing grid point, and b survives.
    std::ostringstream os;
    writeSurfaceCsv(os, sampleSurface("t/r/a"));
    std::ostringstream os_b;
    writeSurfaceCsv(os_b, sampleSurface("t/r/b"));
    const std::string b_text = os_b.str();
    os << b_text.substr(b_text.find('\n') + 1);
    const std::string clean = os.str();

    constexpr size_t kCus = 1, kRuntime = 4;
    const struct {
        size_t col;
        const char *value;
    } cases[] = {
        {kRuntime, "nan"}, {kRuntime, "inf"}, {kRuntime, "-inf"},
        {kCus, "nan"},     {kCus, "1e300"},   {kCus, "-3e9"},
    };
    obs::Counter &skipped =
        obs::Registry::instance().counter("csv.rows.skipped");
    for (const auto &c : cases) {
        const uint64_t before = skipped.value();
        const auto surfaces =
            readSurfacesCsv(withField(clean, 3, c.col, c.value));
        EXPECT_EQ(skipped.value(), before + 1) << c.value;
        ASSERT_EQ(surfaces.size(), 1u) << c.value;
        EXPECT_EQ(surfaces[0].kernelName(), "t/r/b") << c.value;
    }
}

} // namespace
} // namespace scaling
} // namespace gpuscale
