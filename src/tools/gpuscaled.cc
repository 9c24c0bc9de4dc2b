/**
 * @file
 * gpuscaled — the resident census/prediction daemon.
 *
 * Subcommands:
 *   serve                 load the kernel zoo and configuration grid
 *                         (journaled via --checkpoint so a killed
 *                         daemon resumes bitwise-identically), then
 *                         answer newline-delimited JSON requests on a
 *                         Unix socket until SIGTERM/SIGINT drains the
 *                         service (docs/service.md).
 *   call <op> [k=v...]    one-shot client: send a single request
 *                         (classify, predict, census, health, stats)
 *                         and print the response frame.  Values that
 *                         parse as numbers are sent as numbers,
 *                         true/false as booleans, the rest as
 *                         strings.
 *
 * Serve options:
 *   --socket=PATH         Unix socket path (default gpuscaled.sock)
 *   --pidfile=FILE        claim FILE; a live pidfile refuses startup
 *                         (exit 5), a stale one is replaced
 *   --test-grid           3x3x3 grid instead of the 891-point paper
 *                         grid (CI smoke and tests)
 *   --checkpoint=DIR      crash-safe census journal directory
 *   --sweep-cache=DIR     persistent sweep cache directory
 *   --max-inflight=N      admission bound on in-flight requests
 *                         (default 64)
 *   --client-quota=N      per-client share of the bound (default 16)
 *   --deadline-ms=MS      default request deadline (default 5000)
 *   --drain-ms=MS         drain-time I/O budget (default 2000)
 * plus the gpuscale telemetry options (--trace, --metrics,
 * --metrics-interval, --metrics-jsonl, --exposition,
 * --flight-recorder); --metrics-interval is also honoured from the
 * GPUSCALE_METRICS_INTERVAL environment variable when the flag is
 * absent.
 *
 * Call options:
 *   --socket=PATH         daemon socket (default gpuscaled.sock)
 *   --deadline-ms=MS      request deadline sent to the daemon and
 *                         used as the client-side timeout
 *   --client=NAME         client identity for quota accounting
 *
 * Fault-tolerance environment (docs/fault_tolerance.md):
 *   GPUSCALE_FAULTS / GPUSCALE_FAULT_SEED / GPUSCALE_RETRY; service
 *   probes: service.start, service.accept, service.conn.read,
 *   service.conn.write, service.admit, service.journal.sync; client
 *   probes: client.connect, client.call.
 *
 * Exit codes: 0 ok, 1 failure, 2 unknown command or malformed
 * GPUSCALE_FAULTS plan, 3 bad arguments, 4 ok but degraded (absorbed
 * faults), 5 service startup failure (socket bind or live pidfile).
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/fault.hh"
#include "base/logging.hh"
#include "base/string_util.hh"
#include "gpu/analytic_model.hh"
#include "harness/sweep_cache.hh"
#include "obs/exporter.hh"
#include "obs/fault_telemetry.hh"
#include "obs/flight_recorder.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"

namespace {

using namespace gpuscale;

constexpr int kExitOk = 0;
constexpr int kExitFailure = 1;
constexpr int kExitUnknownCommand = 2;
constexpr int kExitBadArguments = 3;
constexpr int kExitDegraded = 4;
constexpr int kExitStartupFailure = 5;

/** Daemon + client switches. */
struct DaemonOptions {
    service::ServiceOptions service;
    std::string trace_file;
    std::string metrics_file;
    std::string metrics_jsonl = "metrics.jsonl";
    std::string exposition_file;
    std::string flight_recorder_base;
    std::string sweep_cache_dir;
    std::string client_name;
    double call_deadline_ms = 5000.0;
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: gpuscaled [options] serve\n"
        "       gpuscaled [options] call <op> [key=value...]\n"
        "  serve                resident census/prediction service\n"
        "                       on a Unix socket (docs/service.md)\n"
        "  call <op> [k=v...]   one-shot request: classify, predict,\n"
        "                       census, health, stats\n"
        "serve options:\n"
        "  --socket=PATH        socket path (default gpuscaled.sock)\n"
        "  --pidfile=FILE       refuse startup on a live pidfile\n"
        "  --test-grid          3x3x3 grid instead of the paper "
        "grid\n"
        "  --checkpoint=DIR     crash-safe census journal directory\n"
        "  --sweep-cache=DIR    persistent sweep cache directory\n"
        "  --max-inflight=N     admission bound (default 64)\n"
        "  --client-quota=N     per-client bound share (default 16)\n"
        "  --deadline-ms=MS     default request deadline (5000)\n"
        "  --drain-ms=MS        drain-time I/O budget (2000)\n"
        "  plus gpuscale telemetry options (--trace, --metrics,\n"
        "  --metrics-interval, --metrics-jsonl, --exposition,\n"
        "  --flight-recorder)\n"
        "call options:\n"
        "  --socket=PATH        daemon socket to reach\n"
        "  --deadline-ms=MS     request deadline / client timeout\n"
        "  --client=NAME        client identity for quotas\n"
        "env: GPUSCALE_FAULTS, GPUSCALE_FAULT_SEED, GPUSCALE_RETRY "
        "(see docs/fault_tolerance.md),\n"
        "     GPUSCALE_METRICS_INTERVAL (ms, same as "
        "--metrics-interval)\n"
        "exit codes: 0 ok, 1 failure, 2 unknown command, "
        "3 bad arguments,\n"
        "            4 ok but degraded (absorbed faults), "
        "5 startup failure\n"
        "            (socket bind or live pidfile)\n");
}

/** Write the metrics snapshot (--metrics). */
void
emitMetrics(const std::string &path)
{
    // gpuscale-lint: allow(fault-coverage): telemetry artifact
    // written after the service drained; a bad path is a fatal
    // usage error.
    std::ofstream os(path);
    fatal_if(!os, "cannot write metrics file %s", path.c_str());
    os << obs::Registry::instance().snapshotJson() << '\n';
    inform("wrote %s", path.c_str());
}

int
serveCmd(const DaemonOptions &opts)
{
    const gpu::AnalyticModel model;
    service::Service svc(opts.service, model);
    if (!svc.start())
        return kExitStartupFailure;
    svc.installSignalDrain();
    if (svc.loadCensus()) {
        inform("gpuscaled: census warm (%zu replayed); serving",
               svc.journalReplayed());
        svc.serve();
    } else {
        // A drain arrived while the census was loading; the journal
        // holds the finished shards, so the next start resumes.
        svc.serve();
    }
    return kExitOk;
}

int
callCmd(const DaemonOptions &opts, const std::string &op,
        const std::vector<std::string> &kvs)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.key("id").value(static_cast<uint64_t>(1));
    w.key("op").value(op);
    w.key("deadline_ms").value(opts.call_deadline_ms);
    if (!opts.client_name.empty())
        w.key("client").value(opts.client_name);
    w.key("params").beginObject();
    for (const auto &kv : kvs) {
        const size_t eq = kv.find('=');
        if (eq == std::string::npos || eq == 0) {
            std::fprintf(stderr, "call: '%s' is not key=value\n",
                         kv.c_str());
            return kExitBadArguments;
        }
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        w.key(key);
        if (value == "true") {
            w.value(true);
        } else if (value == "false") {
            w.value(false);
        } else if (const auto num = parseDouble(value); num) {
            w.value(*num);
        } else {
            w.value(value);
        }
    }
    w.endObject();
    w.endObject();

    service::Client client(opts.service.socket_path);
    if (!client.connect(opts.call_deadline_ms)) {
        std::fprintf(stderr, "call: cannot connect to %s\n",
                     opts.service.socket_path.c_str());
        return kExitFailure;
    }
    std::string response;
    // Client-side grace on top of the server-side deadline so a
    // response sent exactly at the deadline still arrives.
    if (!client.call(os.str(), opts.call_deadline_ms + 250.0,
                     &response)) {
        std::fprintf(stderr, "call: no response within %gms\n",
                     opts.call_deadline_ms);
        return kExitFailure;
    }
    std::printf("%s\n", response.c_str());
    try {
        const obs::JsonValue doc = obs::parseJson(response);
        const auto *ok = doc.find("ok");
        if (ok != nullptr && ok->isBool() && ok->boolean)
            return kExitOk;
    } catch (const std::exception &) {
        // Fall through: an unparseable frame is a failure.
    }
    return kExitFailure;
}

} // namespace

int
main(int argc, char **argv)
{
    // Arm before anything probes a fault point; a malformed
    // GPUSCALE_FAULTS plan exits 2 in here.
    obs::armFaultsFromEnv();

    DaemonOptions opts;
    unsigned metrics_interval_ms = 0;
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto sizeFlag = [&](const char *name, size_t *out) {
            const std::string prefix = std::string(name) + "=";
            if (arg.rfind(prefix, 0) != 0)
                return false;
            *out = parseInteger<size_t>(arg.substr(prefix.size()))
                       .value_or(0); // 0 is flagged below
            return true;
        };
        const auto msFlag = [&](const char *name, double *out) {
            const std::string prefix = std::string(name) + "=";
            if (arg.rfind(prefix, 0) != 0)
                return false;
            const auto parsed = parseDouble(arg.substr(prefix.size()));
            *out = (parsed && *parsed > 0 &&
                    *parsed <= service::kMaxDeadlineMs)
                       ? *parsed
                       : -1.0; // flagged below
            return true;
        };

        if (arg.rfind("--socket=", 0) == 0) {
            opts.service.socket_path = arg.substr(9);
        } else if (arg.rfind("--pidfile=", 0) == 0) {
            opts.service.pidfile = arg.substr(10);
        } else if (arg == "--test-grid") {
            opts.service.test_grid = true;
        } else if (arg.rfind("--checkpoint=", 0) == 0) {
            opts.service.checkpoint_dir = arg.substr(13);
        } else if (arg.rfind("--sweep-cache=", 0) == 0) {
            opts.sweep_cache_dir = arg.substr(14);
        } else if (sizeFlag("--max-inflight",
                            &opts.service.max_inflight)) {
            if (opts.service.max_inflight == 0) {
                std::fprintf(stderr, "--max-inflight: '%s' is not a "
                                     "positive integer\n",
                             arg.c_str());
                usage();
                return kExitBadArguments;
            }
        } else if (sizeFlag("--client-quota",
                            &opts.service.client_quota)) {
            if (opts.service.client_quota == 0) {
                std::fprintf(stderr, "--client-quota: '%s' is not a "
                                     "positive integer\n",
                             arg.c_str());
                usage();
                return kExitBadArguments;
            }
        } else if (msFlag("--deadline-ms",
                          &opts.service.default_deadline_ms)) {
            if (opts.service.default_deadline_ms < 0) {
                std::fprintf(stderr, "--deadline-ms: '%s' is not a "
                                     "positive millisecond count up "
                                     "to one day\n",
                             arg.c_str());
                usage();
                return kExitBadArguments;
            }
            opts.call_deadline_ms = opts.service.default_deadline_ms;
        } else if (msFlag("--drain-ms",
                          &opts.service.drain_deadline_ms)) {
            if (opts.service.drain_deadline_ms < 0) {
                std::fprintf(stderr, "--drain-ms: '%s' is not a "
                                     "positive millisecond count up "
                                     "to one day\n",
                             arg.c_str());
                usage();
                return kExitBadArguments;
            }
        } else if (arg.rfind("--client=", 0) == 0) {
            opts.client_name = arg.substr(9);
        } else if (arg.rfind("--trace=", 0) == 0) {
            opts.trace_file = arg.substr(8);
        } else if (arg.rfind("--metrics=", 0) == 0) {
            opts.metrics_file = arg.substr(10);
        } else if (arg.rfind("--metrics-interval=", 0) == 0) {
            const auto ms = parseInteger<unsigned>(arg.substr(19),
                                                   /*truncate=*/true);
            if (!ms || *ms == 0) {
                std::fprintf(stderr,
                             "--metrics-interval: '%s' is not a "
                             "positive millisecond count\n",
                             arg.substr(19).c_str());
                usage();
                return kExitBadArguments;
            }
            metrics_interval_ms = *ms;
        } else if (arg.rfind("--metrics-jsonl=", 0) == 0) {
            opts.metrics_jsonl = arg.substr(16);
        } else if (arg.rfind("--exposition=", 0) == 0) {
            opts.exposition_file = arg.substr(13);
        } else if (arg.rfind("--flight-recorder=", 0) == 0) {
            opts.flight_recorder_base = arg.substr(18);
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
            return kExitBadArguments;
        } else {
            args.push_back(arg);
        }
    }

    if (args.empty()) {
        usage();
        return kExitBadArguments;
    }

    if (metrics_interval_ms == 0) {
        if (const char *env =
                std::getenv("GPUSCALE_METRICS_INTERVAL")) {
            const auto ms = parseInteger<unsigned>(env, /*truncate=*/true);
            if (ms && *ms > 0)
                metrics_interval_ms = *ms;
            else
                warn("ignoring GPUSCALE_METRICS_INTERVAL='%s'", env);
        }
    }

    // When serving, the drain signals must be blocked before ANY
    // thread exists: a thread spawned here (the exporter flusher,
    // most visibly) inherits the creator's mask, and a
    // process-directed SIGTERM is delivered to whichever thread has
    // it unblocked — killing the daemon with the default disposition
    // instead of reaching installSignalDrain()'s sigtimedwait
    // watcher.  `call` keeps default signal behavior.
    if (args[0] == "serve") {
        sigset_t drained;
        sigemptyset(&drained);
        sigaddset(&drained, SIGTERM);
        sigaddset(&drained, SIGINT);
        pthread_sigmask(SIG_BLOCK, &drained, nullptr);
    }

    if (!opts.trace_file.empty())
        obs::TraceSession::start(opts.trace_file);
    if (!opts.flight_recorder_base.empty()) {
        if (obs::FlightRecorder::start(opts.flight_recorder_base +
                                       ".ring")) {
            obs::FlightRecorder::installCrashDump(
                opts.flight_recorder_base + ".json");
        }
    }
    if (metrics_interval_ms > 0) {
        obs::MetricsExporter::start(opts.metrics_jsonl,
                                    metrics_interval_ms);
    }
    if (!opts.sweep_cache_dir.empty())
        harness::SweepCache::instance().setDirectory(
            opts.sweep_cache_dir);

    const std::string cmd = args[0];
    int rc;
    if (cmd == "serve") {
        rc = serveCmd(opts);
    } else if (cmd == "call") {
        if (args.size() < 2) {
            std::fprintf(stderr, "call needs an op\n");
            usage();
            return kExitBadArguments;
        }
        rc = callCmd(opts, args[1],
                     {args.begin() + 2, args.end()});
    } else {
        std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
        usage();
        return kExitUnknownCommand;
    }

    // Shutdown ordering mirrors gpuscale: stop the exporter (its
    // final flush must see a live registry), write snapshots, close
    // the trace, decide degradation, dump the black box last.
    if (obs::MetricsExporter::active()) {
        obs::MetricsExporter::stop();
        inform("wrote %s", opts.metrics_jsonl.c_str());
    }
    if (!opts.metrics_file.empty())
        emitMetrics(opts.metrics_file);
    if (!opts.exposition_file.empty()) {
        // gpuscale-lint: allow(fault-coverage): telemetry artifact
        // written after the service drained; a bad path is a fatal
        // usage error.
        std::ofstream os(opts.exposition_file);
        fatal_if(!os, "cannot write exposition file %s",
                 opts.exposition_file.c_str());
        obs::Registry::instance().writeExposition(os);
        inform("wrote %s", opts.exposition_file.c_str());
    }
    if (!opts.trace_file.empty()) {
        const size_t spans = obs::TraceSession::stop();
        inform("wrote %s (%zu spans)", opts.trace_file.c_str(),
               spans);
    }
    if (rc == kExitOk && obs::degradationCount() > 0) {
        warn("run completed with %llu degradation(s); exiting %d",
             static_cast<unsigned long long>(obs::degradationCount()),
             kExitDegraded);
        rc = kExitDegraded;
    }
    if (obs::FlightRecorder::active()) {
        if (rc == kExitDegraded) {
            const std::string dump_path =
                opts.flight_recorder_base + ".json";
            obs::FlightRecorder::dump(dump_path, "degraded-exit-4");
            inform("wrote %s", dump_path.c_str());
        }
        obs::FlightRecorder::stop();
    }
    return rc;
}
