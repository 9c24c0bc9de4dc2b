/**
 * @file
 * Shutdown-ordering tests: the races a draining gpuscaled walks
 * through every SIGTERM.  The exporter's final flush must observe
 * counters bumped right up to stop(); process exit with a parallel
 * region still in flight must neither crash nor race (the pool is
 * never destroyed, so exit leaves the region and its workers as they
 * are); and an abort with
 * both the exporter and the flight recorder live must still produce
 * the black-box dump from inside the crash handler.
 *
 * The fork-based tests run first and fork before this process
 * creates any threads (forking a multi-threaded process can clone a
 * held malloc lock into the child).
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "harness/parallel.hh"
#include "obs/exporter.hh"
#include "obs/flight_recorder.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "support/temp_dir.hh"

namespace gpuscale {
namespace obs {
namespace {

TEST(ShutdownOrderForked, ExitWithInflightParallelForTearsDownCleanly)
{
    const pid_t child = fork();
    ASSERT_NE(child, -1);
    if (child == 0) {
        // Child: leave a parallel region in flight on a detached
        // thread, then exit while it runs.  Exit does not drain the
        // region or join the pool workers; it must still exit 0,
        // with no crash and (under TSan) no race between static
        // teardown and the region's own bookkeeping.
        std::thread([] {
            harness::parallelFor(20000, [](size_t) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(5));
            });
        }).detach();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        std::exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status))
        << "child died of signal " << WTERMSIG(status);
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ShutdownOrderForked, AbortWithLiveExporterStillDumpsBlackBox)
{
    test::ScopedTempDir dir("shutdown_abort");
    const std::string ring = dir.sub("flight.ring");
    const std::string json = dir.sub("flight.json");
    const std::string jsonl = dir.sub("metrics.jsonl");

    const pid_t child = fork();
    ASSERT_NE(child, -1);
    if (child == 0) {
        // Child: both observers live — the exporter's flusher thread
        // must not keep the crash handler from writing the dump.
        if (!FlightRecorder::start(ring))
            _exit(10);
        FlightRecorder::installCrashDump(json);
        if (!MetricsExporter::start(jsonl, 5))
            _exit(11);
        Registry::instance().counter("shutdown.abort.test").inc();
        FlightRecorder::recordSpan("shutdown/abort-marker", 1.0, 2.0);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        std::abort();
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGABRT);

    std::ifstream in(json);
    ASSERT_TRUE(in.is_open()) << "no crash dump at " << json;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const JsonValue doc = parseJson(text);
    ASSERT_TRUE(doc.isObject());
    EXPECT_NE(text.find("shutdown/abort-marker"), std::string::npos);
}

TEST(ShutdownOrder, ExporterFinalFlushSeesLastIncrement)
{
    test::ScopedTempDir dir("shutdown_flush");
    const std::string jsonl = dir.sub("metrics.jsonl");

    auto &counter =
        Registry::instance().counter("shutdown.final.flush.test");
    // A one-minute interval: no periodic tick can fire during the
    // test, so any snapshot of the increments below must come from
    // stop()'s final flush.
    ASSERT_TRUE(MetricsExporter::start(jsonl, 60000));
    counter.inc(41);
    counter.inc();
    MetricsExporter::stop();
    ASSERT_FALSE(MetricsExporter::active());

    std::ifstream in(jsonl);
    ASSERT_TRUE(in.is_open());
    std::string line, last;
    while (std::getline(in, line)) {
        if (!line.empty())
            last = line;
    }
    ASSERT_FALSE(last.empty());
    const JsonValue doc = parseJson(last);
    ASSERT_TRUE(doc.isObject());
    EXPECT_NE(last.find("\"shutdown.final.flush.test\":42"),
              std::string::npos)
        << last;
}

} // namespace
} // namespace obs
} // namespace gpuscale
