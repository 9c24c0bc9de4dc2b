/**
 * @file
 * Service implementation.
 */

#include "server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "base/fault.hh"
#include "base/logging.hh"
#include "base/string_util.hh"
#include "obs/metrics.hh"
#include "obs/retry.hh"
#include "scaling/taxonomy.hh"
#include "workloads/registry.hh"

namespace gpuscale {
namespace service {

namespace {

using steady_clock = std::chrono::steady_clock;

/** Cached instrument references for the serving path. */
struct ServiceMetrics {
    obs::Counter &connections;
    obs::Counter &requests;
    obs::Counter &responses;
    obs::Counter &errors;
    obs::Counter &read_faults;
    obs::Counter &accept_faults;
    obs::Gauge &draining;
    obs::Histogram &latency;

    static ServiceMetrics &
    get()
    {
        static ServiceMetrics m{
            obs::Registry::instance().counter(
                "service.connections", "client connections accepted"),
            obs::Registry::instance().counter(
                "service.requests", "request frames parsed"),
            obs::Registry::instance().counter(
                "service.responses",
                "response frames written (success or typed error)"),
            obs::Registry::instance().counter(
                "service.errors", "responses carrying a typed error"),
            obs::Registry::instance().counter(
                "service.read.faults",
                "recv rounds absorbed by an injected read fault"),
            obs::Registry::instance().counter(
                "service.accept.faults",
                "accept rounds absorbed by an injected fault"),
            obs::Registry::instance().gauge(
                "service.draining", "1 once a drain was requested"),
            obs::Registry::instance().histogram(
                "service.request.latency",
                "seconds from request parse to response frame"),
        };
        return m;
    }
};

steady_clock::time_point
deadlineFromMs(steady_clock::time_point from, double ms)
{
    return from + std::chrono::microseconds(
                      static_cast<long long>(ms * 1000.0));
}

/** Fire a fault probe, folding both flavors into one bool. */
bool
probeFired(const char *site)
{
    try {
        return faultPoint(site);
    } catch (const FaultInjectedError &) {
        return true;
    }
}

/** Read an integer pid from a pidfile; 0 when absent/garbled. */
long
readPidfile(const std::string &path)
{
    // gpuscale-lint: allow(fault-coverage): pure reader — a missing
    // or unreadable pidfile is indistinguishable from a stale one and
    // start() handles both; there is no failure mode left to inject.
    std::ifstream in(path);
    long pid = 0;
    if (!(in >> pid) || pid <= 0)
        return 0;
    return pid;
}

} // namespace

/** One live client connection and the thread serving it. */
struct Service::Connection {
    int fd = -1;
    uint64_t id = 0;
    std::atomic<bool> done{false};
    // gpuscale-lint: allow(concurrency): one serving thread per
    // connection; requests on one connection are handled in order,
    // so responses can never interleave mid-frame.
    std::thread thread;
};

Service::Service(const ServiceOptions &opts,
                 const gpu::PerfModel &model)
    : opts_(opts), model_(model),
      space_(opts.test_grid ? scaling::ConfigSpace::testGrid()
                            : scaling::ConfigSpace::paperGrid()),
      admission_(opts.max_inflight, opts.client_quota)
{
    // Spawn the batch worker with SIGTERM/SIGINT blocked so a
    // process-directed signal can never be delivered to it (default
    // disposition would kill the process under installSignalDrain's
    // nose).  The caller's own mask is restored: an in-process
    // embedder that never installs the drain keeps its signals.
    sigset_t drained, old;
    sigemptyset(&drained);
    sigaddset(&drained, SIGTERM);
    sigaddset(&drained, SIGINT);
    pthread_sigmask(SIG_BLOCK, &drained, &old);
    batcher_.emplace(model_, space_.grid().base);
    pthread_sigmask(SIG_SETMASK, &old, nullptr);
}

Service::~Service()
{
    requestDrain();
    stopSignalWatcher();
    reapConnections(/*join_all=*/true);
    if (batcher_)
        batcher_->stop();
    for (int fd : {listen_fd_, drain_pipe_[0], drain_pipe_[1]}) {
        if (fd >= 0)
            ::close(fd);
    }
}

bool
Service::start()
{
    // Injection site: a fired fault models an unusable socket path or
    // pidfile race; the daemon maps a false return to exit 5.  (The
    // direct faultPoint call also marks this whole function as
    // fault-covered for every raw socket/pidfile operation below.)
    try {
        if (faultPoint("service.start")) {
            warn("gpuscaled: injected fault at service.start");
            return false;
        }
    } catch (const FaultInjectedError &) {
        warn("gpuscaled: injected fault at service.start");
        return false;
    }

    if (!opts_.pidfile.empty()) {
        const long pid = readPidfile(opts_.pidfile);
        if (pid > 0 &&
            (::kill(static_cast<pid_t>(pid), 0) == 0 ||
             errno == EPERM)) {
            warn("gpuscaled: pidfile %s names live pid %ld; refusing "
                 "to start",
                 opts_.pidfile.c_str(), pid);
            return false;
        }
        if (pid > 0) {
            warn("gpuscaled: removing stale pidfile %s (pid %ld is "
                 "gone)",
                 opts_.pidfile.c_str(), pid);
            std::remove(opts_.pidfile.c_str());
        }
    }

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
        warn("gpuscaled: socket path %s exceeds the AF_UNIX limit",
             opts_.socket_path.c_str());
        return false;
    }
    std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);

    // A leftover socket file from a crashed daemon would make bind()
    // fail; probe it first — a live listener answers the connect and
    // must not be clobbered.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
        if (::connect(probe,
                      reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            ::close(probe);
            warn("gpuscaled: %s already has a live listener",
                 opts_.socket_path.c_str());
            return false;
        }
        ::close(probe);
        ::unlink(opts_.socket_path.c_str());
    }

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        warn("gpuscaled: socket(): %s", std::strerror(errno));
        return false;
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        warn("gpuscaled: bind(%s): %s", opts_.socket_path.c_str(),
             std::strerror(errno));
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    if (::listen(listen_fd_, 64) != 0) {
        warn("gpuscaled: listen(%s): %s", opts_.socket_path.c_str(),
             std::strerror(errno));
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }

    if (::pipe(drain_pipe_) != 0) {
        warn("gpuscaled: pipe(): %s", std::strerror(errno));
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }

    if (!opts_.pidfile.empty()) {
        std::ofstream out(opts_.pidfile, std::ios::trunc);
        out << ::getpid() << '\n';
        if (!out) {
            warn("gpuscaled: cannot write pidfile %s",
                 opts_.pidfile.c_str());
            ::close(listen_fd_);
            listen_fd_ = -1;
            return false;
        }
        pidfile_claimed_ = true;
    }

    inform("gpuscaled: listening on %s (%zu kernels x %zu configs)",
            opts_.socket_path.c_str(),
            workloads::WorkloadRegistry::instance().allKernels().size(),
            space_.size());
    return true;
}

bool
Service::loadCensus()
{
    if (!opts_.checkpoint_dir.empty()) {
        journal_.emplace(opts_.checkpoint_dir, model_.fingerprint(),
                         space_.grid().fingerprint());
        journal_replayed_ = journal_->loadedRecords();
        if (journal_replayed_ > 0) {
            inform("gpuscaled: resuming census — %zu kernels "
                    "replayed from %s",
                    journal_replayed_, journal_->path().c_str());
        }
    }

    std::optional<harness::CensusResult> fresh;
    try {
        fresh.emplace(harness::runCensus(
            model_, space_, scaling::TaxonomyParams{}, nullptr,
            journal_ ? &*journal_ : nullptr, &drain_token_));
    } catch (const harness::CancelledError &) {
        inform("gpuscaled: census load cancelled by drain; journal "
                "stays resumable");
        return false;
    }
    syncJournal();
    installCensus(std::move(fresh->classifications));
    return true;
}

void
Service::installCensus(
    std::vector<scaling::KernelClassification> classifications)
{
    std::lock_guard<std::mutex> lock(census_mutex_);
    census_ = std::move(classifications);
    census_loaded_ = true;
    class_index_.clear();
    for (size_t i = 0; i < census_.size(); ++i)
        class_index_[census_[i].kernel] = i;
}

void
Service::syncJournal()
{
    if (!journal_ || !journal_->active())
        return;
    // The quiescent-point sync rides the deadline-capped retry so a
    // slow or faulted disk cannot stall a drain past its budget.
    obs::retryWithBackoff(
        obs::retryPolicy(), "service.journal.sync",
        deadlineFromMs(steady_clock::now(), opts_.drain_deadline_ms),
        [&]() {
            if (probeFired("service.journal.sync"))
                return false;
            journal_->sync();
            return true;
        });
}

void
Service::installSignalDrain()
{
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGTERM);
    sigaddset(&set, SIGINT);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);
    // gpuscale-lint: allow(concurrency): spawns the signal watcher;
    // sigtimedwait must run somewhere, and the harness pool's workers
    // inherit the blocked mask but serve parallel regions.
    signal_watcher_ = std::thread([this, set]() {
        while (!watcher_stop_.load(std::memory_order_acquire)) {
            timespec tick{};
            tick.tv_nsec = 200 * 1000 * 1000;
            const int sig = sigtimedwait(&set, nullptr, &tick);
            if (sig == SIGTERM || sig == SIGINT) {
                inform("gpuscaled: signal %d; draining", sig);
                requestDrain();
                return;
            }
        }
    });
}

void
Service::stopSignalWatcher()
{
    watcher_stop_.store(true, std::memory_order_release);
    if (signal_watcher_.joinable())
        signal_watcher_.join();
}

void
Service::requestDrain()
{
    bool expected = false;
    if (!draining_.compare_exchange_strong(expected, true))
        return;
    ServiceMetrics::get().draining.set(1.0);
    drain_token_.cancel();
    {
        std::lock_guard<std::mutex> lock(refresh_mutex_);
        if (refresh_token_ != nullptr)
            refresh_token_->cancel();
    }
    if (drain_pipe_[1] >= 0) {
        const char byte = 'd';
        // gpuscale-lint: allow(fault-coverage): the drain nudge must
        // stay fault-free — injecting here would wedge the drain the
        // probe exists to test; a lost byte only delays the poll tick.
        (void)!::write(drain_pipe_[1], &byte, 1);
    }
}

void
Service::reapConnections(bool join_all)
{
    std::list<std::unique_ptr<Connection>> joinable;
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        for (auto it = conns_.begin(); it != conns_.end();) {
            if (join_all ||
                (*it)->done.load(std::memory_order_acquire)) {
                joinable.push_back(std::move(*it));
                it = conns_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto &conn : joinable) {
        if (conn->thread.joinable())
            conn->thread.join();
    }
}

void
Service::serve()
{
    ServiceMetrics &metrics = ServiceMetrics::get();
    while (!draining()) {
        pollfd fds[2];
        fds[0] = {listen_fd_, POLLIN, 0};
        fds[1] = {drain_pipe_[0], POLLIN, 0};
        const int ready = ::poll(fds, 2, 100);
        reapConnections(/*join_all=*/false);
        if (ready <= 0)
            continue;
        if ((fds[1].revents & POLLIN) != 0 || draining())
            break;
        if ((fds[0].revents & POLLIN) == 0)
            continue;

        // Injection site: a fired fault models a transient accept()
        // failure.  The connection is not lost — it stays in the
        // listen backlog and the next round picks it up.
        bool accept_fault = false;
        try {
            accept_fault = faultPoint("service.accept");
        } catch (const FaultInjectedError &) {
            accept_fault = true;
        }
        if (accept_fault) {
            metrics.accept_faults.inc();
            continue;
        }
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        metrics.connections.inc();

        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        conn->id =
            next_conn_id_.fetch_add(1, std::memory_order_relaxed);
        Connection *raw = conn.get();
        {
            std::lock_guard<std::mutex> lock(conn_mutex_);
            conns_.push_back(std::move(conn));
        }
        // gpuscale-lint: allow(concurrency): spawns the per-connection
        // serving thread tracked in conns_.
        raw->thread = std::thread([this, raw]() {
            connectionLoop(raw);
        });
    }

    //
    // Drain: Running -> Draining -> Stopped (docs/service.md).
    //
    inform("gpuscaled: drain started");
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    ::unlink(opts_.socket_path.c_str());

    // Nudge idle connections: a half-close makes their blocked recv
    // return 0 so the serving threads fall out of their read loops;
    // an in-flight request still finishes (or deadlines out) first.
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        for (const auto &conn : conns_) {
            if (!conn->done.load(std::memory_order_acquire))
                ::shutdown(conn->fd, SHUT_RD);
        }
    }
    reapConnections(/*join_all=*/true);
    if (batcher_)
        batcher_->stop();
    syncJournal();
    if (pidfile_claimed_)
        std::remove(opts_.pidfile.c_str());
    stopSignalWatcher();
    inform("gpuscaled: drain complete (%zu in-flight)",
            admission_.inflight());
}

void
Service::connectionLoop(Connection *conn)
{
    const std::string default_client =
        "conn-" + std::to_string(conn->id);
    std::string buf;
    char chunk[4096];
    uint64_t consecutive_read_faults = 0;

    while (true) {
        const size_t nl = buf.find('\n');
        if ((nl == std::string::npos ? buf.size() : nl) > kMaxFrameBytes) {
            // The rest of the line cannot be framed; answer and hang up.
            ServiceMetrics::get().errors.inc();
            writeFrame(conn->fd,
                       renderError(0, ErrorCode::BadRequest,
                                   "request frame longer than " +
                                       std::to_string(kMaxFrameBytes) +
                                       " bytes"),
                       deadlineFromMs(steady_clock::now(),
                                      opts_.default_deadline_ms));
            break;
        }
        if (nl == std::string::npos) {
            // Injection site: a fired fault models one failed recv;
            // the round is retried like EINTR.  A wall of
            // consecutive fires (a rate-1.0 plan) still terminates
            // the connection instead of spinning.
            bool read_fault = false;
            try {
                read_fault = faultPoint("service.conn.read");
            } catch (const FaultInjectedError &) {
                read_fault = true;
            }
            if (read_fault) {
                ServiceMetrics::get().read_faults.inc();
                if (++consecutive_read_faults > 1000)
                    break;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                continue;
            }
            consecutive_read_faults = 0;
            const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
            if (n == 0)
                break;
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            buf.append(chunk, static_cast<size_t>(n));
            continue;
        }

        std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        if (line.empty())
            continue;

        const std::string frame = processLine(line, default_client);
        const auto write_deadline = deadlineFromMs(
            steady_clock::now(), opts_.default_deadline_ms);
        if (!writeFrame(conn->fd, frame, write_deadline))
            break;
    }

    ::close(conn->fd);
    conn->done.store(true, std::memory_order_release);
}

std::string
Service::processLine(const std::string &line,
                     const std::string &default_client)
{
    ServiceMetrics &metrics = ServiceMetrics::get();
    Request req;
    std::string parse_error;
    if (!parseRequest(line, &req, &parse_error)) {
        metrics.errors.inc();
        return renderError(0, ErrorCode::BadRequest, parse_error);
    }

    metrics.requests.inc();
    const auto t0 = steady_clock::now();
    const double deadline_ms = req.deadline_ms > 0.0
                                   ? req.deadline_ms
                                   : opts_.default_deadline_ms;
    const auto deadline = deadlineFromMs(t0, deadline_ms);

    std::string frame;
    if (req.op == "health") {
        frame = handleHealth(req);
    } else if (req.op == "stats") {
        frame = handleStats(req);
    } else if (draining()) {
        frame = renderError(req.id, ErrorCode::ShuttingDown,
                            "service is draining");
    } else {
        const std::string client =
            req.client.empty() ? default_client : req.client;
        const AdmissionVerdict verdict = admission_.admit(client);
        if (!verdict.admitted) {
            frame = renderError(req.id, ErrorCode::RetryAfter,
                                "overloaded; retry later",
                                verdict.retry_after_ms);
        } else {
            try {
                if (req.op == "classify")
                    frame = handleClassify(req);
                else if (req.op == "predict")
                    frame = handlePredict(req, deadline);
                else if (req.op == "census")
                    frame = handleCensus(req, deadline);
                else
                    frame = renderError(req.id, ErrorCode::NotFound,
                                        "unknown op \"" + req.op +
                                            "\"");
            } catch (const harness::CancelledError &) {
                frame = renderError(
                    req.id,
                    draining() ? ErrorCode::ShuttingDown
                               : ErrorCode::DeadlineExceeded,
                    "request cancelled mid-evaluation");
            } catch (const std::exception &e) {
                frame = renderError(req.id, ErrorCode::Internal,
                                    e.what());
            }
            admission_.release(client);
        }
    }

    metrics.responses.inc();
    if (frame.find("\"ok\":false") != std::string::npos)
        metrics.errors.inc();
    metrics.latency.record(
        std::chrono::duration<double>(steady_clock::now() - t0)
            .count());
    return frame;
}

bool
Service::writeFrame(int fd, const std::string &frame,
                    steady_clock::time_point deadline)
{
    // The injected-fault probe fires *before* any byte of the frame
    // is sent, so a retry re-attempts a whole frame — clients can see
    // a delayed response but never a torn one.  A real mid-frame
    // send() failure means the peer is gone, which is not retryable.
    return obs::retryWithBackoff(
        obs::retryPolicy(), "service.conn.write", deadline, [&]() {
            if (probeFired("service.conn.write"))
                return false;
            size_t off = 0;
            while (off < frame.size()) {
                const ssize_t n =
                    ::send(fd, frame.data() + off, frame.size() - off,
                           MSG_NOSIGNAL);
                if (n < 0) {
                    if (errno == EINTR)
                        continue;
                    return false;
                }
                off += static_cast<size_t>(n);
            }
            return true;
        });
}

std::string
Service::handleHealth(const Request &req)
{
    bool loaded;
    size_t kernels;
    {
        std::lock_guard<std::mutex> lock(census_mutex_);
        loaded = census_loaded_;
        kernels = census_.size();
    }
    return renderResult(req.id, [&](obs::JsonWriter &w) {
        w.beginObject();
        w.key("status").value(draining() ? "draining" : "ok");
        w.key("draining").value(draining());
        w.key("census_loaded").value(loaded);
        w.key("kernels").value(static_cast<uint64_t>(kernels));
        w.key("configs").value(static_cast<uint64_t>(space_.size()));
        w.key("journal_replayed")
            .value(static_cast<uint64_t>(journal_replayed_));
        w.key("inflight")
            .value(static_cast<uint64_t>(admission_.inflight()));
        w.endObject();
    });
}

std::string
Service::handleStats(const Request &req)
{
    return renderRawResult(req.id,
                           obs::Registry::instance().snapshotJson());
}

std::string
Service::handleClassify(const Request &req)
{
    const auto *kernel = req.params.find("kernel");
    if (kernel == nullptr || !kernel->isString())
        return renderError(req.id, ErrorCode::BadRequest,
                           "classify needs params.kernel (string)");

    std::lock_guard<std::mutex> lock(census_mutex_);
    if (!census_loaded_)
        return renderError(req.id, ErrorCode::RetryAfter,
                           "census still loading", 250.0);
    const auto it = class_index_.find(kernel->str);
    if (it == class_index_.end())
        return renderError(req.id, ErrorCode::NotFound,
                           "unknown kernel \"" + kernel->str + "\"");
    const scaling::KernelClassification &c = census_[it->second];

    const auto verdict = [](obs::JsonWriter &w,
                            const scaling::ShapeVerdict &v) {
        w.beginObject();
        w.key("shape").value(scaling::shapeName(v.shape));
        w.key("total_gain").value(v.total_gain);
        w.key("efficiency").value(v.efficiency);
        w.endObject();
    };
    return renderResult(req.id, [&](obs::JsonWriter &w) {
        w.beginObject();
        w.key("kernel").value(c.kernel);
        w.key("class").value(scaling::taxonomyClassName(c.cls));
        w.key("perf_range").value(c.perf_range);
        w.key("cu90").value(static_cast<int64_t>(c.cu90));
        w.key("freq");
        verdict(w, c.freq);
        w.key("mem");
        verdict(w, c.mem);
        w.key("cu");
        verdict(w, c.cu);
        w.endObject();
    });
}

std::string
Service::handlePredict(const Request &req,
                       steady_clock::time_point deadline)
{
    const auto *kernel_name = req.params.find("kernel");
    const auto *cu = req.params.find("cu");
    const auto *core = req.params.find("core_clk_mhz");
    const auto *mem = req.params.find("mem_clk_mhz");
    if (kernel_name == nullptr || !kernel_name->isString() ||
        cu == nullptr || !cu->isNumber() || core == nullptr ||
        !core->isNumber() || mem == nullptr || !mem->isNumber()) {
        return renderError(req.id, ErrorCode::BadRequest,
                           "predict needs params.kernel (string), "
                           "cu, core_clk_mhz, mem_clk_mhz (numbers)");
    }
    // Bounds-check before any grid is built: ConfigGrid::validate()
    // treats a bad point as fatal, and a client must never be able to
    // fatal the daemon.
    const double cu_value = cu->number;
    if (cu_value < 1.0 || cu_value > 4096.0 ||
        cu_value != static_cast<double>(static_cast<int>(cu_value))) {
        return renderError(req.id, ErrorCode::BadRequest,
                           "params.cu must be an integer in "
                           "[1, 4096]");
    }
    if (core->number <= 0.0 || core->number > 1e6 ||
        mem->number <= 0.0 || mem->number > 1e6) {
        return renderError(req.id, ErrorCode::BadRequest,
                           "clock params must be in (0, 1e6] MHz");
    }
    const gpu::KernelDesc *kernel =
        workloads::WorkloadRegistry::instance().findKernel(
            kernel_name->str);
    if (kernel == nullptr)
        return renderError(req.id, ErrorCode::NotFound,
                           "unknown kernel \"" + kernel_name->str +
                               "\"");

    PredictRequest ask;
    ask.kernel = kernel;
    ask.num_cus = static_cast<int>(cu_value);
    ask.core_clk_mhz = core->number;
    ask.mem_clk_mhz = mem->number;
    ask.deadline = deadline;
    const PredictOutcome out = batcher_->predict(ask);
    if (!out.ok)
        return renderError(req.id, out.code, out.message);

    return renderResult(req.id, [&](obs::JsonWriter &w) {
        w.beginObject();
        w.key("kernel").value(kernel->name);
        w.key("cu").value(static_cast<int64_t>(ask.num_cus));
        w.key("core_clk_mhz").value(ask.core_clk_mhz);
        w.key("mem_clk_mhz").value(ask.mem_clk_mhz);
        w.key("runtime_s").value(out.runtime_s);
        w.endObject();
    });
}

std::string
Service::handleCensus(const Request &req,
                      steady_clock::time_point deadline)
{
    const auto *refresh = req.params.find("refresh");
    if (refresh != nullptr && refresh->isBool() && refresh->boolean) {
        // Single-flight refresh under a cancel token armed with the
        // request deadline; a drain cancels it too (requestDrain).
        harness::CancelToken token;
        token.armDeadline(deadline);
        {
            std::lock_guard<std::mutex> lock(refresh_mutex_);
            if (refresh_active_) {
                return renderError(req.id, ErrorCode::RetryAfter,
                                   "a census refresh is already "
                                   "running",
                                   100.0);
            }
            refresh_active_ = true;
            refresh_token_ = &token;
        }
        std::optional<harness::CensusResult> fresh;
        bool cancelled = false;
        try {
            fresh.emplace(harness::runCensus(
                model_, space_, scaling::TaxonomyParams{}, nullptr,
                journal_ ? &*journal_ : nullptr, &token));
        } catch (const harness::CancelledError &) {
            cancelled = true;
        }
        {
            std::lock_guard<std::mutex> lock(refresh_mutex_);
            refresh_active_ = false;
            refresh_token_ = nullptr;
        }
        if (cancelled) {
            return renderError(req.id,
                               draining()
                                   ? ErrorCode::ShuttingDown
                                   : ErrorCode::DeadlineExceeded,
                               "census refresh cancelled");
        }
        installCensus(std::move(fresh->classifications));
    }

    std::lock_guard<std::mutex> lock(census_mutex_);
    if (!census_loaded_)
        return renderError(req.id, ErrorCode::RetryAfter,
                           "census still loading", 250.0);
    const std::vector<size_t> histogram =
        scaling::classHistogram(census_);
    const auto classes = scaling::allTaxonomyClasses();
    return renderResult(req.id, [&](obs::JsonWriter &w) {
        w.beginObject();
        w.key("kernels").value(
            static_cast<uint64_t>(census_.size()));
        w.key("configs").value(static_cast<uint64_t>(space_.size()));
        w.key("classes").beginObject();
        for (size_t i = 0; i < classes.size(); ++i) {
            w.key(scaling::taxonomyClassName(classes[i]))
                .value(static_cast<uint64_t>(histogram[i]));
        }
        w.endObject();
        w.endObject();
    });
}

} // namespace service
} // namespace gpuscale
