/**
 * @file
 * Tests for the JSONL metrics exporter: every emitted line must
 * round-trip through the locale-safe JSON parser, counters and
 * histogram counts must be per-line deltas, and gauges absolute.
 *
 * Ticks are driven deterministically with MetricsExporter::flushNow()
 * under an interval long enough that the background flusher never
 * fires on its own; stop() contributes the final line.
 */

#include "obs/exporter.hh"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hh"
#include "obs/metrics.hh"
#include "support/temp_dir.hh"

namespace gpuscale {
namespace obs {
namespace {

std::vector<JsonValue>
parseLines(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::vector<JsonValue> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(parseJson(line));
    }
    return lines;
}

TEST(ExporterTest, JsonlLinesRoundTripWithDeltaSemantics)
{
    test::ScopedTempDir dir("exporter_jsonl");
    const std::string path = dir.sub("metrics.jsonl");

    auto &reg = Registry::instance();
    Counter &c = reg.counter("test.exporter.counter", "test counter");
    Gauge &g = reg.gauge("test.exporter.gauge", "test gauge");
    Histogram &h =
        reg.histogram("test.exporter.hist", "test histogram");
    Counter &sc = reg.counter("test.exporter.split.counter",
                              "test counter fed from two shards");
    c.reset();
    g.reset();
    h.reset();
    sc.reset();

    // An hour-long interval: only flushNow()/stop() produce lines.
    ASSERT_TRUE(MetricsExporter::start(path, 3600 * 1000));
    EXPECT_TRUE(MetricsExporter::active());
    // A second start is refused, not stacked.
    EXPECT_FALSE(MetricsExporter::start(path, 1));

    c.inc(7);
    sc.inc(3);
    g.set(1.5);
    h.record(2e-6);
    MetricsExporter::flushNow();

    c.inc(5);
    // The second increment lands on another shard than the first.
    const unsigned other_shard = currentShard() + 1;
    std::thread([&sc, other_shard] {
        setThreadShardHint(other_shard);
        sc.inc(4);
    }).join();
    g.set(0.25);
    h.record(4e-6);
    h.record(8e-6);
    MetricsExporter::flushNow();

    MetricsExporter::stop();
    EXPECT_FALSE(MetricsExporter::active());

    const std::vector<JsonValue> lines = parseLines(path);
    ASSERT_EQ(lines.size(), 3u); // two explicit ticks + stop()'s.

    for (size_t i = 0; i < lines.size(); ++i) {
        const JsonValue &l = lines[i];
        ASSERT_TRUE(l.isObject()) << "line " << i;
        EXPECT_GT(l.at("ts_ms").number, 0.0);
        EXPECT_DOUBLE_EQ(l.at("seq").number,
                         static_cast<double>(i + 1));
    }

    // Counters export deltas: 7 then 5 then 0; the counter fed from
    // two shards exports the deltas of its merged value (3, 4, 0).
    const char *ctr = "test.exporter.counter";
    const char *sctr = "test.exporter.split.counter";
    EXPECT_DOUBLE_EQ(lines[0].at("counters").at(ctr).number, 7.0);
    EXPECT_DOUBLE_EQ(lines[1].at("counters").at(ctr).number, 5.0);
    EXPECT_DOUBLE_EQ(lines[2].at("counters").at(ctr).number, 0.0);
    EXPECT_DOUBLE_EQ(lines[0].at("counters").at(sctr).number, 3.0);
    EXPECT_DOUBLE_EQ(lines[1].at("counters").at(sctr).number, 4.0);

    // Gauges are absolute per line.
    const char *gau = "test.exporter.gauge";
    EXPECT_DOUBLE_EQ(lines[0].at("gauges").at(gau).number, 1.5);
    EXPECT_DOUBLE_EQ(lines[1].at("gauges").at(gau).number, 0.25);

    // Histogram counts are deltas; the statistics are instantaneous.
    const JsonValue &h0 =
        lines[0].at("histograms").at("test.exporter.hist");
    const JsonValue &h1 =
        lines[1].at("histograms").at("test.exporter.hist");
    EXPECT_DOUBLE_EQ(h0.at("count").number, 1.0);
    EXPECT_DOUBLE_EQ(h1.at("count").number, 2.0);
    EXPECT_GT(h1.at("mean").number, h0.at("mean").number);
    EXPECT_GE(h1.at("p99").number, h1.at("p50").number);
}

TEST(ExporterTest, StopWithoutStartIsANoOp)
{
    MetricsExporter::stop();
    EXPECT_FALSE(MetricsExporter::active());
    MetricsExporter::flushNow(); // Must not crash or write anywhere.
}

TEST(ExporterTest, UnopenablePathIsRefused)
{
    EXPECT_FALSE(
        MetricsExporter::start("/nonexistent/dir/metrics.jsonl", 10));
    EXPECT_FALSE(MetricsExporter::active());
}

} // namespace
} // namespace obs
} // namespace gpuscale
