/**
 * @file
 * CensusJournal unit tests: bitwise round trip, header pinning,
 * group-commit flush visibility, and the three corruption responses
 * (mangled metadata stops replay, a bad body checksum skips one
 * record, a torn tail stops replay).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>
#include <string>
#include <vector>

#include "harness/checkpoint.hh"
#include "obs/metrics.hh"
#include "support/temp_dir.hh"

namespace gpuscale {
namespace {

uint64_t
counterValue(const char *name)
{
    return obs::Registry::instance().counter(name).value();
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << content;
}

/** Three kernels with value patterns that must survive bitwise. */
const std::vector<std::pair<std::string, std::vector<double>>> &
sampleRecords()
{
    static const std::vector<
        std::pair<std::string, std::vector<double>>>
        records = {
            {"aaa", {1.5, -2.25, 1e-300, 0.0}},
            {"bbb", {3.14159, 2.0, -0.0, 1e300}},
            {"ccc", {42.0, 0.125, 7.0, -1.0}},
        };
    return records;
}

/** Write all sample records and close the journal (dtor flushes). */
void
writeSampleJournal(const std::string &dir)
{
    harness::CensusJournal journal(dir, "m1", "g1");
    ASSERT_TRUE(journal.active());
    for (const auto &[kernel, runtimes] : sampleRecords())
        journal.record(kernel, runtimes);
}

TEST(Checkpoint, InertWithoutModelFingerprint)
{
    test::ScopedTempDir dir("ckpt_inert");
    harness::CensusJournal journal(dir.path(), "", "g1");
    EXPECT_FALSE(journal.active());
    journal.record("k", {1.0});
    std::vector<double> out;
    EXPECT_FALSE(journal.lookup("k", out));
    EXPECT_EQ(journal.loadedRecords(), 0u);
}

TEST(Checkpoint, RoundTripReplaysBitwise)
{
    test::ScopedTempDir dir("ckpt_roundtrip");
    writeSampleJournal(dir.path());

    const uint64_t replayed0 = counterValue("checkpoint.replayed");
    harness::CensusJournal reopened(dir.path(), "m1", "g1");
    EXPECT_EQ(reopened.loadedRecords(), sampleRecords().size());
    for (const auto &[kernel, runtimes] : sampleRecords()) {
        std::vector<double> out;
        ASSERT_TRUE(reopened.lookup(kernel, out)) << kernel;
        ASSERT_EQ(out.size(), runtimes.size());
        for (size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], runtimes[i]) << kernel << "[" << i << "]";
    }
    EXPECT_EQ(counterValue("checkpoint.replayed"),
              replayed0 + sampleRecords().size());
}

TEST(Checkpoint, RecordsLargerThanTheLoadWindowReplay)
{
    // A load streams the file through a bounded window; bodies far
    // larger than it, between small records, must replay bitwise.
    test::ScopedTempDir dir("ckpt_large");
    std::vector<double> big(100000);
    for (size_t i = 0; i < big.size(); ++i)
        big[i] = 1.0 / static_cast<double>(i + 1);
    {
        harness::CensusJournal journal(dir.path(), "m1", "g1");
        journal.record("small-1", {1.0});
        journal.record("big-1", big);
        journal.record("small-2", {2.0});
        journal.record("big-2", big);
    }
    harness::CensusJournal reopened(dir.path(), "m1", "g1");
    EXPECT_EQ(reopened.loadedRecords(), 4u);
    std::vector<double> out;
    ASSERT_TRUE(reopened.lookup("big-2", out));
    EXPECT_EQ(out, big);
    ASSERT_TRUE(reopened.lookup("small-2", out));
    EXPECT_EQ(out, std::vector<double>{2.0});
}

TEST(Checkpoint, LookupRechecksABodyDiscardedUnderItsIndex)
{
    // The index keeps offsets, not vectors: once another open with a
    // different model rewrote the file, those offsets hold other
    // bytes, and a lookup must miss rather than return them.
    test::ScopedTempDir dir("ckpt_recheck");
    writeSampleJournal(dir.path());
    harness::CensusJournal stale(dir.path(), "m1", "g1");
    ASSERT_EQ(stale.loadedRecords(), sampleRecords().size());
    {
        harness::CensusJournal other(dir.path(), "m2", "g1");
        other.record("zzz", std::vector<double>(64, 9.0));
    }

    const uint64_t corrupt0 = counterValue("checkpoint.corrupt");
    std::vector<double> out;
    EXPECT_FALSE(stale.lookup("aaa", out));
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(counterValue("checkpoint.corrupt"), corrupt0 + 1);
}

TEST(Checkpoint, HeaderMismatchDiscardsTheJournal)
{
    test::ScopedTempDir dir("ckpt_header");
    writeSampleJournal(dir.path());

    harness::CensusJournal other_model(dir.path(), "m2", "g1");
    EXPECT_EQ(other_model.loadedRecords(), 0u);
}

TEST(Checkpoint, BufferedRecordsBecomeVisibleOnFlush)
{
    test::ScopedTempDir dir("ckpt_flush");
    const std::string path = dir.path() + "/census.journal";

    harness::CensusJournal writer(dir.path(), "m1", "g1");
    ASSERT_TRUE(writer.active());
    const auto header_size = std::filesystem::file_size(path);
    writer.record("k", {1.0, 2.0});

    // Small records group-commit: nothing on disk yet...
    EXPECT_EQ(std::filesystem::file_size(path), header_size);
    // ...until an explicit flush (or close) lands the buffer.
    writer.flush();
    EXPECT_GT(std::filesystem::file_size(path), header_size);

    // A later run replays the flushed record.
    {
        harness::CensusJournal reader(dir.path(), "m1", "g1");
        EXPECT_EQ(reader.loadedRecords(), 1u);
        std::vector<double> out;
        EXPECT_TRUE(reader.lookup("k", out));
    }
}

TEST(Checkpoint, CorruptMetadataStopsReplayThere)
{
    test::ScopedTempDir dir("ckpt_meta");
    writeSampleJournal(dir.path());
    const std::string path = dir.path() + "/census.journal";

    // Flip a CRC hex digit on the middle record's metadata line: the
    // framing after it is untrusted, so replay keeps "aaa" and stops.
    std::string content = readFile(path);
    const size_t pos = content.find("bbb|");
    ASSERT_NE(pos, std::string::npos);
    content[pos - 9] = content[pos - 9] == '0' ? '1' : '0';
    writeFile(path, content);

    const uint64_t corrupt0 = counterValue("checkpoint.corrupt");
    harness::CensusJournal reopened(dir.path(), "m1", "g1");
    EXPECT_EQ(reopened.loadedRecords(), 1u);
    std::vector<double> out;
    EXPECT_TRUE(reopened.lookup("aaa", out));
    EXPECT_FALSE(reopened.lookup("ccc", out));
    EXPECT_EQ(counterValue("checkpoint.corrupt"), corrupt0 + 1);
}

TEST(Checkpoint, CorruptBodySkipsOnlyThatRecord)
{
    test::ScopedTempDir dir("ckpt_body");
    writeSampleJournal(dir.path());
    const std::string path = dir.path() + "/census.journal";

    // Flip one byte inside the middle record's binary body: the frame
    // is intact, so only that record fails its checksum; "ccc" after
    // it still replays.
    std::string content = readFile(path);
    const size_t pos = content.find("bbb|");
    ASSERT_NE(pos, std::string::npos);
    const size_t body = content.find('\n', pos) + 1;
    content[body] = static_cast<char>(content[body] ^ 0x01);
    writeFile(path, content);

    const uint64_t corrupt0 = counterValue("checkpoint.corrupt");
    harness::CensusJournal reopened(dir.path(), "m1", "g1");
    EXPECT_EQ(reopened.loadedRecords(), 2u);
    std::vector<double> out;
    EXPECT_TRUE(reopened.lookup("aaa", out));
    EXPECT_FALSE(reopened.lookup("bbb", out));
    EXPECT_TRUE(reopened.lookup("ccc", out));
    EXPECT_EQ(counterValue("checkpoint.corrupt"), corrupt0 + 1);
}

TEST(Checkpoint, TornTailStopsReplayAndKeepsThePrefix)
{
    test::ScopedTempDir dir("ckpt_torn");
    writeSampleJournal(dir.path());
    const std::string path = dir.path() + "/census.journal";

    // Drop the last few bytes, as a kill mid-write would: the final
    // record is torn, the prefix replays.
    std::string content = readFile(path);
    ASSERT_GT(content.size(), 5u);
    writeFile(path, content.substr(0, content.size() - 5));

    const uint64_t corrupt0 = counterValue("checkpoint.corrupt");
    harness::CensusJournal reopened(dir.path(), "m1", "g1");
    EXPECT_EQ(reopened.loadedRecords(), 2u);
    std::vector<double> out;
    EXPECT_TRUE(reopened.lookup("aaa", out));
    EXPECT_TRUE(reopened.lookup("bbb", out));
    EXPECT_FALSE(reopened.lookup("ccc", out));
    EXPECT_EQ(counterValue("checkpoint.corrupt"), corrupt0 + 1);
}

TEST(Checkpoint, RecordsAppendedAfterATornTailReplay)
{
    test::ScopedTempDir dir("ckpt_torn_append");
    writeSampleJournal(dir.path());
    const std::string path = dir.path() + "/census.journal";
    std::string content = readFile(path);
    ASSERT_GT(content.size(), 5u);
    writeFile(path, content.substr(0, content.size() - 5));

    // The resumed run re-records the torn kernel and a new one.  They
    // must land where the next load can reach them, not after the
    // torn bytes.
    {
        harness::CensusJournal resumed(dir.path(), "m1", "g1");
        ASSERT_EQ(resumed.loadedRecords(), 2u);
        resumed.record("ccc", sampleRecords()[2].second);
        resumed.record("ddd", {5.0, 6.0});
    }

    harness::CensusJournal reopened(dir.path(), "m1", "g1");
    EXPECT_EQ(reopened.loadedRecords(), 4u);
    std::vector<double> out;
    EXPECT_TRUE(reopened.lookup("ccc", out));
    EXPECT_EQ(out, sampleRecords()[2].second);
    EXPECT_TRUE(reopened.lookup("ddd", out));
    EXPECT_EQ(out, (std::vector<double>{5.0, 6.0}));
}

TEST(Checkpoint, ProcessesSharingAFileNeverSeeATornRecord)
{
    // A reader loading while another process appends multi-megabyte
    // records must wait for each record to land whole: were it to see
    // half of one, it would count it corrupt and cut the file there.
    test::ScopedTempDir dir("ckpt_two_process");
    const std::vector<double> big(1 << 19, 1.5);
    constexpr int kRecords = 8;
    const pid_t writer = ::fork();
    ASSERT_NE(writer, -1);
    if (writer == 0) {
        harness::CensusJournal journal(dir.path(), "m1", "g1");
        for (int i = 0; i < kRecords; ++i) {
            journal.record("k" + std::to_string(i), big);
            journal.flush();
        }
        ::_exit(0);
    }

    const uint64_t corrupt0 = counterValue("checkpoint.corrupt");
    int status = -1;
    while (::waitpid(writer, &status, WNOHANG) == 0)
        harness::CensusJournal reader(dir.path(), "m1", "g1");
    EXPECT_EQ(status, 0);
    EXPECT_EQ(counterValue("checkpoint.corrupt"), corrupt0);
    harness::CensusJournal reader(dir.path(), "m1", "g1");
    EXPECT_EQ(reader.loadedRecords(), static_cast<size_t>(kRecords));
}

} // namespace
} // namespace gpuscale
