/**
 * @file
 * CensusJournal implementation.
 */

#include "checkpoint.hh"

#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "base/crc32.hh"
#include "base/fault.hh"
#include "base/logging.hh"
#include "base/string_util.hh"
#include "obs/fault_telemetry.hh"
#include "obs/metrics.hh"

namespace gpuscale {
namespace harness {

namespace {

constexpr char kJournalMagic[] = "gpuscale-census-journal-v1";
constexpr char kJournalName[] = "census.journal";

/**
 * Sanity cap on a record's double count: a corrupt metadata line
 * must not make replay allocate gigabytes.  Far above any real grid
 * (the paper grid is 891 points).
 */
constexpr size_t kMaxRecordDoubles = 1 << 20;

/** Cached instrument references for the journal. */
struct CheckpointMetrics {
    obs::Counter &records;
    obs::Counter &replayed;
    obs::Counter &corrupt;
    obs::Histogram &flush_latency;

    static CheckpointMetrics &
    get()
    {
        static CheckpointMetrics m{
            obs::Registry::instance().counter(
                "checkpoint.records",
                "kernel records appended to the census journal"),
            obs::Registry::instance().counter(
                "checkpoint.replayed",
                "kernels served from a replayed census journal"),
            obs::Registry::instance().counter(
                "checkpoint.corrupt",
                "journal records discarded by CRC or parse failure"),
            obs::Registry::instance().histogram(
                "checkpoint.flush.latency",
                "seconds per journal buffer flush to disk"),
        };
        return m;
    }
};

/** "<crc32 hex8> <payload>" for one record payload. */
std::string
recordLine(const std::string &payload)
{
    char crc_hex[16];
    std::snprintf(crc_hex, sizeof(crc_hex), "%08x",
                  crc32(payload));
    std::string line = crc_hex;
    line += ' ';
    line += payload;
    line += '\n';
    return line;
}

} // namespace

CensusJournal::CensusJournal(const std::string &dir,
                             const std::string &model_fingerprint,
                             const std::string &grid_fingerprint)
{
    if (model_fingerprint.empty()) {
        warn("checkpoint: model is uncacheable (empty fingerprint); "
             "journal disabled");
        return;
    }

    if (faultPoint("checkpoint.dir")) {
        warn("checkpoint: cannot create directory %s; journal "
             "disabled",
             dir.c_str());
        obs::noteDegradation("checkpoint.dir");
        return;
    }
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    fatal_if(ec, "cannot create checkpoint directory %s: %s",
             dir.c_str(), ec.message().c_str());

    path_ = dir + "/" + kJournalName;
    std::string header = kJournalMagic;
    header += "\nmodel=";
    header += model_fingerprint;
    header += "\ngrid=";
    header += grid_fingerprint;
    header += '\n';

    load(header);
    if (loaded_.empty() && !writeHeader(header))
        return;

    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd_ < 0) {
        warn("checkpoint: cannot open %s for append; journal "
             "disabled",
             path_.c_str());
        obs::noteDegradation("checkpoint.open");
        return;
    }
    inform("checkpoint: journal %s (%zu record(s) replayed)",
           path_.c_str(), loaded_.size());
}

CensusJournal::~CensusJournal()
{
    if (fd_ < 0)
        return;
    try {
        flushLocked();
    } catch (const FaultInjectedError &) {
        // An injected crash during the final flush: the buffered
        // records are lost and re-run on resume, which is exactly
        // the journal's contract.  The dtor must not throw.
        obs::noteDegradation("checkpoint.flush");
    }
    ::close(fd_);
    fd_ = -1;
}

void
CensusJournal::load(const std::string &header)
{
    if (faultPoint("checkpoint.load")) {
        warn("checkpoint: injected read fault loading %s; starting "
             "fresh",
             path_.c_str());
        obs::noteDegradation("checkpoint.load");
        return;
    }

    std::ifstream is(path_);
    if (!is)
        return; // first run: no journal yet

    // The header is compared as a block: magic, model, and grid must
    // all match or the journal belongs to a different census.
    std::string head(header.size(), '\0');
    is.read(head.data(), static_cast<std::streamsize>(head.size()));
    if (is.gcount() != static_cast<std::streamsize>(head.size()) ||
        head != header) {
        warn("checkpoint: %s is from a different model/grid or "
             "corrupt; discarding it",
             path_.c_str());
        obs::noteDegradation("checkpoint.header");
        return;
    }

    CheckpointMetrics &metrics = CheckpointMetrics::get();
    std::string line;
    while (std::getline(is, line)) {
        // Metadata line "<crc32 hex8> <key>|<count>:<chk64 hex16>".
        // Its CRC also guards the body framing, so a mangled line
        // means the record boundaries after it cannot be trusted:
        // stop replaying and let the rest re-run.  (The torn final
        // line of a killed run lands here too.)
        bool framed = line.size() > 9 && line[8] == ' ';
        uint32_t stored_crc = 0;
        if (framed) {
            const auto res = std::from_chars(
                line.data(), line.data() + 8, stored_crc, 16);
            framed =
                res.ec == std::errc() && res.ptr == line.data() + 8;
        }
        const std::string meta = framed ? line.substr(9) : "";
        if (framed)
            framed = crc32(meta) == stored_crc;

        std::string key;
        size_t count = 0;
        uint64_t stored_chk = 0;
        if (framed) {
            // Keys contain '|'; the count follows the last one.
            const size_t bar = meta.rfind('|');
            const size_t colon = meta.rfind(':');
            framed = bar != std::string::npos &&
                     colon != std::string::npos && colon > bar;
            if (framed) {
                key = meta.substr(0, bar);
                const char *b = meta.data();
                auto res = std::from_chars(b + bar + 1, b + colon,
                                           count, 10);
                framed = res.ec == std::errc() &&
                         res.ptr == b + colon &&
                         count <= kMaxRecordDoubles;
                if (framed) {
                    res = std::from_chars(b + colon + 1,
                                          b + meta.size(),
                                          stored_chk, 16);
                    framed = res.ec == std::errc() &&
                             res.ptr == b + meta.size();
                }
            }
        }
        if (!framed) {
            metrics.corrupt.inc();
            warn("checkpoint: corrupt journal metadata (%zu "
                 "byte(s)); replay stops here",
                 line.size());
            obs::noteDegradation("checkpoint.record");
            break;
        }

        // The framing is trusted now: consume the body plus its
        // newline even if the checksum then rejects the record, so
        // one flipped bit costs one kernel, not the rest of the
        // journal.
        std::string body(count * sizeof(double), '\0');
        is.read(body.data(),
                static_cast<std::streamsize>(body.size()));
        const bool torn =
            is.gcount() !=
                static_cast<std::streamsize>(body.size()) ||
            is.get() != '\n';
        if (torn) {
            metrics.corrupt.inc();
            warn("checkpoint: torn journal record for %s; replay "
                 "stops here",
                 key.c_str());
            obs::noteDegradation("checkpoint.record");
            break;
        }
        if (chk64(body) != stored_chk) {
            metrics.corrupt.inc();
            warn("checkpoint: body checksum mismatch for %s; "
                 "record skipped",
                 key.c_str());
            obs::noteDegradation("checkpoint.record");
            continue;
        }
        std::vector<double> runtimes(count);
        std::memcpy(runtimes.data(), body.data(), body.size());
        loaded_[key] = std::move(runtimes);
    }
}

bool
CensusJournal::writeHeader(const std::string &header)
{
    // Temp + rename: a crash here leaves either no journal or a
    // complete header, never a half-written one.
    if (faultPoint("checkpoint.header")) {
        warn("checkpoint: cannot write %s; journal disabled",
             path_.c_str());
        obs::noteDegradation("checkpoint.header.write");
        return false;
    }
    const std::string tmp = path_ + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os) {
            warn("checkpoint: cannot write %s; journal disabled",
                 tmp.c_str());
            obs::noteDegradation("checkpoint.header.write");
            return false;
        }
        os << header;
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
        warn("checkpoint: cannot rename %s into place; journal "
             "disabled",
             tmp.c_str());
        std::remove(tmp.c_str());
        obs::noteDegradation("checkpoint.header.rename");
        return false;
    }
    return true;
}

bool
CensusJournal::lookup(const std::string &key,
                      std::vector<double> &runtimes) const
{
    const auto it = loaded_.find(key);
    if (it == loaded_.end())
        return false;
    runtimes = it->second;
    CheckpointMetrics::get().replayed.inc();
    return true;
}

void
CensusJournal::record(const std::string &key,
                      const std::vector<double> &runtimes)
{
    if (fd_ < 0)
        return;

    const std::string_view body(
        reinterpret_cast<const char *>(runtimes.data()),
        runtimes.size() * sizeof(double));
    char chk_hex[24];
    std::snprintf(chk_hex, sizeof(chk_hex), "%016llx",
                  static_cast<unsigned long long>(chk64(body)));
    std::string meta = key;
    meta += '|';
    meta += std::to_string(runtimes.size());
    meta += ':';
    meta += chk_hex;
    const std::string head = recordLine(meta);

    std::lock_guard<std::mutex> lock(append_mutex_);
    if (faultPoint("checkpoint.append")) {
        // Dropping a record only costs a re-run of this kernel on
        // the next resume; stopping the census would cost the run.
        warn("checkpoint: failed to append record for %s",
             key.c_str());
        obs::noteDegradation("checkpoint.append");
        return;
    }
    pending_ += head;
    pending_ += body;
    pending_ += '\n';
    CheckpointMetrics::get().records.inc();
    if (pending_.size() >= kFlushBytes)
        flushLocked();
}

void
CensusJournal::flushLocked()
{
    const auto t0 = std::chrono::steady_clock::now();
    if (faultPoint("checkpoint.flush")) {
        warn("checkpoint: flush of %zu byte(s) failed; those "
             "records will re-run on resume",
             pending_.size());
        obs::noteDegradation("checkpoint.flush");
        return;
    }
    size_t off = 0;
    while (off < pending_.size()) {
        const ssize_t n = ::write(fd_, pending_.data() + off,
                                  pending_.size() - off);
        if (n <= 0) {
            warn("checkpoint: flush of %zu byte(s) failed; those "
                 "records will re-run on resume",
                 pending_.size() - off);
            obs::noteDegradation("checkpoint.flush");
            break;
        }
        off += static_cast<size_t>(n);
    }
    pending_.clear();
    CheckpointMetrics::get().flush_latency.record(
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

void
CensusJournal::flush()
{
    if (fd_ < 0)
        return;
    std::lock_guard<std::mutex> lock(append_mutex_);
    flushLocked();
}

void
CensusJournal::sync()
{
    if (fd_ < 0)
        return;
    std::lock_guard<std::mutex> lock(append_mutex_);
    flushLocked();
    ::fsync(fd_);
}

} // namespace harness
} // namespace gpuscale
