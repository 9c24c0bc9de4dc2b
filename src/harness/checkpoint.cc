/**
 * @file
 * Durable store implementation.
 */

#include "checkpoint.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string_view>

#include "base/crc32.hh"
#include "base/fault.hh"
#include "base/logging.hh"
#include "obs/fault_telemetry.hh"
#include "obs/metrics.hh"
#include "obs/retry.hh"

namespace gpuscale {
namespace harness {

namespace {

constexpr char kMagic[] = "gpuscale-census-journal-v1";

/**
 * Sanity cap on a record's double count: a corrupt metadata line
 * must not make a load allocate gigabytes.  Far above any real grid
 * (the paper grid is 891 points).
 */
constexpr size_t kMaxRecordDoubles = 1 << 20;

/**
 * Longest metadata line a load searches for its newline.  Real keys
 * are under 1 KB.
 */
constexpr size_t kMaxMetaBytes = 16 * 1024;

/** Bytes a load reads per refill of its window. */
constexpr size_t kWindowBytes = 256 * 1024;

/** Set (or, with F_UNLCK, drop) a POSIX lock on the whole file. */
bool
lockFile(int fd, short type)
{
    struct flock fl {};
    fl.l_type = type;
    fl.l_whence = SEEK_SET;
    int rc;
    do {
        rc = ::fcntl(fd, F_SETLKW, &fl);
    } while (rc != 0 && errno == EINTR);
    return rc == 0;
}

/**
 * Holds the file lock for its lifetime.  The process owns a POSIX
 * lock, not the open file description, so forked children sharing
 * the parent's fd still exclude each other; flock() and OFD locks
 * would not.
 */
struct FileLock {
    explicit FileLock(int fd) : fd(fd), held(lockFile(fd, F_WRLCK)) {}
    ~FileLock()
    {
        if (held)
            lockFile(fd, F_UNLCK);
    }
    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    const int fd;
    const bool held;
};

/**
 * Sequential reader over the store's fd: a load walks a
 * multi-megabyte file but buffers at most one record plus
 * kWindowBytes of it.
 */
struct Window {
    int fd;
    std::string buf;
    size_t pos = 0;
    uint64_t base = 0; ///< file offset of buf[0]
    bool eof = false;

    /** Buffer `n` bytes past pos, or up to EOF; false on an error. */
    bool
    fill(size_t n)
    {
        if (buf.size() - pos >= n || eof)
            return true;
        buf.erase(0, pos);
        base += pos;
        pos = 0;
        size_t have = buf.size();
        buf.resize(std::max(n, kWindowBytes));
        while (have < buf.size() && !eof) {
            const ssize_t got =
                ::pread(fd, buf.data() + have, buf.size() - have,
                        static_cast<off_t>(base + have));
            if (got > 0)
                have += static_cast<size_t>(got);
            else if (got < 0 && errno != EINTR)
                return false;
            eof = got == 0;
        }
        buf.resize(have);
        return true;
    }

    size_t avail() const { return buf.size() - pos; }
    std::string_view
    view(size_t n) const
    {
        return std::string_view(buf).substr(pos, n);
    }
};

/** A parsed "<key>|<count>:<chk64 hex16>" metadata payload. */
struct Meta {
    std::string key; ///< a copy: refilling the window moves its bytes
    size_t count = 0;
    uint64_t chk = 0;
};

/** Parse one "<crc32 hex8> <meta>" line; false when mangled. */
bool
parseMetaLine(std::string_view line, Meta &meta)
{
    if (line.size() <= 9 || line[8] != ' ')
        return false;
    uint32_t stored_crc = 0;
    auto res = std::from_chars(line.data(), line.data() + 8,
                               stored_crc, 16);
    if (res.ec != std::errc() || res.ptr != line.data() + 8)
        return false;
    const std::string_view payload = line.substr(9);
    if (crc32(payload) != stored_crc)
        return false;
    // Keys contain '|'; the count follows the last one.
    const size_t bar = payload.rfind('|');
    const size_t colon = payload.rfind(':');
    if (bar == std::string_view::npos ||
        colon == std::string_view::npos || colon < bar)
        return false;
    meta.key.assign(payload.substr(0, bar));
    const char *b = payload.data();
    res = std::from_chars(b + bar + 1, b + colon, meta.count, 10);
    if (res.ec != std::errc() || res.ptr != b + colon ||
        meta.count > kMaxRecordDoubles)
        return false;
    res = std::from_chars(b + colon + 1, b + payload.size(), meta.chk,
                          16);
    return res.ec == std::errc() && res.ptr == b + payload.size();
}

} // namespace

const StoreRole &
StoreRole::journal()
{
    obs::Registry &registry = obs::Registry::instance();
    static const StoreRole role{
        "census.journal",
        "checkpoint.dir",
        "checkpoint.disk.read",
        "checkpoint.disk.write",
        registry.counter("checkpoint.records",
                         "kernel records appended to the census "
                         "journal"),
        registry.counter("checkpoint.replayed",
                         "kernels served from a replayed census "
                         "journal"),
        registry.counter("checkpoint.corrupt",
                         "journal records discarded by CRC or parse "
                         "failure"),
        &registry.histogram("checkpoint.flush.latency",
                            "seconds per journal buffer flush to "
                            "disk"),
    };
    return role;
}

CensusJournal::CensusJournal(const std::string &dir,
                             const std::string &model_fingerprint,
                             const std::string &grid_fingerprint,
                             const StoreRole &role)
    : role_(role)
{
    if (model_fingerprint.empty()) {
        warn("%s: model is uncacheable (empty fingerprint); store "
             "disabled",
             role_.file_name);
        return;
    }

    if (faultPoint(role_.dir_site)) {
        warn("cannot create directory %s; %s disabled", dir.c_str(),
             role_.file_name);
        obs::noteDegradation(role_.dir_site);
        return;
    }
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    fatal_if(ec, "cannot create directory %s: %s", dir.c_str(),
             ec.message().c_str());

    path_ = dir + "/" + role_.file_name;
    header_ = kMagic;
    header_ += "\nmodel=";
    header_ += model_fingerprint;
    header_ += "\ngrid=";
    header_ += grid_fingerprint;
    header_ += '\n';

    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
    if (fd_ < 0) {
        warn("cannot open %s; store disabled", path_.c_str());
        obs::noteDegradation(role_.dir_site);
        return;
    }
    reload();
    inform("%s: %zu record(s) indexed", path_.c_str(),
           loadedRecords());
}

CensusJournal::~CensusJournal()
{
    if (fd_ < 0)
        return;
    try {
        std::lock_guard<std::mutex> lock(append_mutex_);
        flushLocked();
    } catch (const FaultInjectedError &) {
        // An injected crash during the final flush: the buffered
        // records are lost and re-run on resume, which is exactly
        // the store's contract.  The dtor must not throw.
        obs::noteDegradation(role_.write_site);
    }
    ::close(fd_);
}

size_t
CensusJournal::loadedRecords() const
{
    std::lock_guard<std::mutex> lock(index_mutex_);
    return index_.size();
}

void
CensusJournal::reload()
{
    if (fd_ < 0)
        return;
    Index index;
    {
        std::lock_guard<std::mutex> lock(append_mutex_);
        const bool loaded = obs::retryWithBackoff(
            obs::retryPolicy(), role_.read_site, [&] {
                index.clear();
                if (faultPoint(role_.read_site))
                    return false;
                const FileLock file_lock(fd_);
                if (!file_lock.held)
                    return false;
                const Scan scan = scanLocked(index);
                if (scan != Scan::NoHeader)
                    return scan == Scan::Indexed;
                // Rewritten in place, not renamed over: processes
                // holding the file keep appending to this one.
                return ::ftruncate(fd_, 0) == 0 &&
                       ::write(fd_, header_.data(), header_.size()) ==
                           static_cast<ssize_t>(header_.size());
            });
        if (!loaded) {
            // Nothing is replayed; every kernel simply re-runs.
            index.clear();
            obs::noteDegradation(role_.read_site);
        }
    }
    std::lock_guard<std::mutex> lock(index_mutex_);
    index_ = std::move(index);
}

CensusJournal::Scan
CensusJournal::scanLocked(Index &index)
{
    Window in{fd_};
    if (!in.fill(header_.size()))
        return Scan::IoError;
    // The header is compared as a block: magic, model and grid must
    // all match or the file belongs to a different census.
    if (in.view(header_.size()) != header_) {
        if (in.avail() > 0) {
            warn("%s is from a different model/grid or corrupt; "
                 "discarding it",
                 path_.c_str());
            obs::noteDegradation(role_.read_site);
        }
        return Scan::NoHeader;
    }
    in.pos = header_.size();

    while (true) {
        const uint64_t start = in.base + in.pos;
        if (!in.fill(kMaxMetaBytes))
            return Scan::IoError;
        if (in.avail() == 0)
            return Scan::Indexed;
        // The metadata CRC also guards the body framing, so a
        // mangled line means the record boundaries after it cannot
        // be trusted; a torn tail (killed mid-write) looks the same.
        // Either way the file is cut there, so what later runs
        // append after it is replayed too.
        const std::string_view rest = in.view(kMaxMetaBytes);
        const size_t nl = rest.find('\n');
        Meta meta;
        bool framed = nl != std::string_view::npos &&
                      parseMetaLine(rest.substr(0, nl), meta);
        size_t body_bytes = 0;
        if (framed) {
            body_bytes = meta.count * sizeof(double);
            in.pos += nl + 1;
            if (!in.fill(body_bytes + 1))
                return Scan::IoError;
            framed = in.avail() > body_bytes &&
                     in.view(body_bytes + 1).back() == '\n';
        }
        if (!framed) {
            role_.corrupt.inc();
            obs::noteDegradation(role_.read_site);
            warn("%s: torn or corrupt record at byte %llu; cutting "
                 "the file there",
                 path_.c_str(), static_cast<unsigned long long>(start));
            return ::ftruncate(fd_, static_cast<off_t>(start)) == 0
                       ? Scan::Indexed
                       : Scan::IoError;
        }
        // The framing is trusted: a bad body costs one record, not
        // the rest of the file.
        if (chk64(in.view(body_bytes)) != meta.chk) {
            role_.corrupt.inc();
            obs::noteDegradation(role_.read_site);
            warn("%s: body checksum mismatch for %s; record skipped",
                 path_.c_str(), meta.key.c_str());
        } else {
            index[std::move(meta.key)] =
                Entry{in.base + in.pos, meta.count, meta.chk};
        }
        in.pos += body_bytes + 1;
    }
}

bool
CensusJournal::lookup(const std::string &key,
                      std::vector<double> &runtimes) const
{
    Entry entry;
    {
        std::lock_guard<std::mutex> lock(index_mutex_);
        const auto it = index_.find(key);
        if (it == index_.end())
            return false;
        entry = it->second;
    }

    if (faultPoint(role_.read_site)) {
        obs::noteDegradation(role_.read_site);
        return false;
    }
    // The body is read back and checked again: only a file rewritten
    // under this index (another process discarded its header) fails.
    std::vector<double> body(entry.count);
    const size_t bytes = entry.count * sizeof(double);
    if (::pread(fd_, body.data(), bytes,
                static_cast<off_t>(entry.offset)) !=
            static_cast<ssize_t>(bytes) ||
        chk64(std::string_view(reinterpret_cast<char *>(body.data()),
                               bytes)) != entry.chk) {
        role_.corrupt.inc();
        warn("%s: record for %s changed on disk; recomputing",
             path_.c_str(), key.c_str());
        obs::noteDegradation(role_.read_site);
        return false;
    }
    runtimes = std::move(body);
    role_.hits.inc();
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
    char crc_hex[16];
    std::snprintf(crc_hex, sizeof(crc_hex), "%08x", crc32(meta));

    std::lock_guard<std::mutex> lock(append_mutex_);
    pending_ += crc_hex;
    pending_ += ' ';
    pending_ += meta;
    pending_ += '\n';
    pending_ += body;
    pending_ += '\n';
    role_.records.inc();
    if (pending_.size() >= kFlushBytes)
        flushLocked();
}

void
CensusJournal::flushLocked()
{
    if (pending_.empty())
        return;
    const auto t0 = std::chrono::steady_clock::now();
    // The lock spans the retries, so a resumed write stays one
    // contiguous run of records that no other process splits.
    const FileLock file_lock(fd_);
    const off_t start = ::lseek(fd_, 0, SEEK_END);
    const std::string_view out = pending_;
    size_t written = 0;
    const bool ok = obs::retryWithBackoff(
        obs::retryPolicy(), role_.write_site, [&] {
            if (faultPoint(role_.write_site) || !file_lock.held ||
                start < 0)
                return false;
            while (written < out.size()) {
                const ssize_t n = ::write(fd_, out.data() + written,
                                          out.size() - written);
                if (n < 0 && errno == EINTR)
                    continue;
                if (n <= 0)
                    return false;
                written += static_cast<size_t>(n);
            }
            return true;
        });
    if (!ok) {
        // Those records re-run on the next resume.  Cut back a
        // partial write so the file ends on a record boundary.
        if (written > 0 && file_lock.held && start >= 0)
            (void)::ftruncate(fd_, start);
        obs::noteDegradation(role_.write_site);
    }
    pending_.clear();
    if (role_.flush_latency != nullptr) {
        role_.flush_latency->record(
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }
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
    flush();
    if (fd_ >= 0)
        ::fsync(fd_);
}

} // namespace harness
} // namespace gpuscale
