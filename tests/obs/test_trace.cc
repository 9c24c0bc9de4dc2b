/**
 * @file
 * Unit tests for the trace emitter: the emitted file is valid Chrome
 * trace-event JSON, spans nest, and concurrent recording is safe.
 */

#include "obs/trace.hh"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json.hh"

namespace gpuscale {
namespace obs {
namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is) << path;
    std::stringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

/** All "X" span events, keyed by name, from a parsed trace. */
std::vector<const JsonValue *>
spanEvents(const JsonValue &doc)
{
    std::vector<const JsonValue *> spans;
    for (const auto &ev : doc.at("traceEvents").array) {
        if (ev.at("ph").str == "X")
            spans.push_back(&ev);
    }
    return spans;
}

TEST(TraceTest, InactiveSessionRecordsNothing)
{
    EXPECT_FALSE(TraceSession::active());
    {
        GPUSCALE_TRACE_SCOPE("ignored");
    }
    EXPECT_EQ(TraceSession::stop(), 0u);
}

TEST(TraceTest, EmitsParseableNestedSpans)
{
    const std::string path = tempPath("trace_nested.json");
    TraceSession::start(path);
    ASSERT_TRUE(TraceSession::active());
    {
        GPUSCALE_TRACE_SCOPE("outer");
        {
            GPUSCALE_TRACE_SCOPE("inner");
        }
    }
    const size_t written = TraceSession::stop();
    EXPECT_FALSE(TraceSession::active());
    EXPECT_EQ(written, 2u);

    const JsonValue doc = parseJson(slurp(path));
    const auto spans = spanEvents(doc);
    ASSERT_EQ(spans.size(), 2u);

    const JsonValue *outer = nullptr, *inner = nullptr;
    for (const auto *s : spans) {
        if (s->at("name").str == "outer")
            outer = s;
        if (s->at("name").str == "inner")
            inner = s;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);

    // Spans carry the complete-event schema...
    for (const auto *s : {outer, inner}) {
        EXPECT_EQ(s->at("cat").str, "gpuscale");
        EXPECT_GE(s->at("dur").number, 0.0);
        EXPECT_GE(s->at("ts").number, 0.0);
        EXPECT_GT(s->at("tid").number, 0.0);
    }
    // ...and the inner interval is contained in the outer one.
    EXPECT_GE(inner->at("ts").number, outer->at("ts").number);
    EXPECT_LE(inner->at("ts").number + inner->at("dur").number,
              outer->at("ts").number + outer->at("dur").number + 1e-3);
}

TEST(TraceTest, TwoPartNameIsConcatenated)
{
    const std::string path = tempPath("trace_two_part.json");
    const std::string kernel = "rodinia/hotspot/calculate_temp";
    TraceSession::start(path);
    {
        GPUSCALE_TRACE_SCOPE("sweep/", kernel);
    }
    EXPECT_EQ(TraceSession::stop(), 1u);

    const JsonValue doc = parseJson(slurp(path));
    const auto spans = spanEvents(doc);
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0]->at("name").str, "sweep/" + kernel);
}

TEST(TraceTest, ThreadsGetDistinctTracks)
{
    const std::string path = tempPath("trace_threads.json");
    TraceSession::start(path);

    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([]() {
            for (int i = 0; i < 50; ++i) {
                GPUSCALE_TRACE_SCOPE("worker-span");
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const size_t written = TraceSession::stop();
    EXPECT_EQ(written, kThreads * 50u);

    const JsonValue doc = parseJson(slurp(path));
    std::set<double> tids;
    for (const auto *s : spanEvents(doc))
        tids.insert(s->at("tid").number);
    EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

TEST(TraceTest, SecondSessionReusesBuffers)
{
    const std::string path = tempPath("trace_second.json");
    TraceSession::start(path);
    {
        GPUSCALE_TRACE_SCOPE("round-two");
    }
    EXPECT_EQ(TraceSession::stop(), 1u);

    const JsonValue doc = parseJson(slurp(path));
    ASSERT_EQ(spanEvents(doc).size(), 1u);
    EXPECT_EQ(spanEvents(doc)[0]->at("name").str, "round-two");
}

} // namespace
} // namespace obs
} // namespace gpuscale
