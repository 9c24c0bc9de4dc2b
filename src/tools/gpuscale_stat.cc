/**
 * @file
 * gpuscale-stat — offline reader for the telemetry plane's artifacts.
 *
 * Subcommands:
 *   series <metrics.jsonl>    render the exporter's JSONL time series
 *                             as a table: per-tick estimate counts and
 *                             the cache-hit trajectory (cumulative hit
 *                             rate over time).
 *   balance <metrics.json>    per-shard balance of every counter
 *                             and histogram in a --metrics snapshot
 *                             (event share per stripe, max/mean skew).
 *   checkpoint <metrics.json> checkpoint overhead: journal record
 *                             counts and flush-latency distribution.
 *   trace <trace.json>        aggregate a Chrome trace-event file by
 *                             span name (count, total, mean) plus
 *                             per-thread busy-time share.
 *   blackbox <file>           render a flight-recorder ring file as
 *                             black-box JSON on stdout (a .json dump
 *                             from the crash handler passes through
 *                             verbatim after validation).
 *
 * Exit codes: 0 success, 1 runtime failure (unreadable or malformed
 * input), 2 unknown command, 3 bad arguments — same contract as the
 * gpuscale CLI.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/string_util.hh"
#include "base/table.hh"
#include "obs/flight_recorder.hh"
#include "obs/json.hh"

namespace {

using namespace gpuscale;

constexpr int kExitOk = 0;
constexpr int kExitFailure = 1;
constexpr int kExitUnknownCommand = 2;
constexpr int kExitBadArguments = 3;

std::string
readFile(const std::string &path)
{
    // gpuscale-lint: allow(fault-coverage): offline reader tool; an
    // unreadable snapshot is a fatal usage error.
    std::ifstream is(path, std::ios::binary);
    fatal_if(!is, "cannot read %s", path.c_str());
    std::stringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

/** Numeric member lookup tolerating absent keys (older files). */
double
numberOr(const obs::JsonValue &obj, const std::string &key,
         double fallback)
{
    const obs::JsonValue *v = obj.find(key);
    return v != nullptr && v->isNumber() ? v->number : fallback;
}

int
seriesCmd(const std::string &path)
{
    // gpuscale-lint: allow(fault-coverage): offline reader tool; an
    // unreadable series file is a fatal usage error.
    std::ifstream is(path);
    fatal_if(!is, "cannot read %s", path.c_str());

    TextTable t;
    t.addColumn("tick", TextTable::Align::Right);
    t.addColumn("dt_ms", TextTable::Align::Right);
    t.addColumn("estimates", TextTable::Align::Right);
    t.addColumn("kernels", TextTable::Align::Right);
    t.addColumn("cache hits", TextTable::Align::Right);
    t.addColumn("cache misses", TextTable::Align::Right);
    t.addColumn("cum hit rate", TextTable::Align::Right);
    t.addColumn("estimate p99", TextTable::Align::Right);

    size_t lines = 0;
    uint64_t prev_ts = 0;
    double cum_hits = 0, cum_misses = 0;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        const obs::JsonValue doc = obs::parseJson(line);
        const auto ts = static_cast<uint64_t>(
            numberOr(doc, "ts_ms", 0.0));
        const obs::JsonValue *counters = doc.find("counters");
        fatal_if(counters == nullptr,
                 "%s line %zu: no counters object", path.c_str(),
                 lines + 1);

        const double hits =
            numberOr(*counters, "sweep.cache.hits", 0.0);
        const double misses =
            numberOr(*counters, "sweep.cache.misses", 0.0);
        cum_hits += hits;
        cum_misses += misses;
        const double probes = cum_hits + cum_misses;

        double p99 = 0.0;
        if (const obs::JsonValue *hists = doc.find("histograms")) {
            if (const obs::JsonValue *h =
                    hists->find("sweep.estimate.latency"))
                p99 = numberOr(*h, "p99", 0.0);
        }

        t.beginRow();
        t.cell(static_cast<int64_t>(numberOr(doc, "seq", 0.0)));
        t.cell(static_cast<int64_t>(
            prev_ts == 0 ? 0 : ts - prev_ts));
        t.cell(static_cast<int64_t>(
            numberOr(*counters, "sweep.estimates.count", 0.0)));
        t.cell(static_cast<int64_t>(
            numberOr(*counters, "sweep.kernels.count", 0.0)));
        t.cell(static_cast<int64_t>(hits));
        t.cell(static_cast<int64_t>(misses));
        t.cell(probes > 0 ? cum_hits / probes : 0.0);
        t.cell(p99, 6);
        prev_ts = ts;
        ++lines;
    }
    fatal_if(lines == 0, "%s: no JSONL lines", path.c_str());
    std::fputs(t.render().c_str(), stdout);
    return kExitOk;
}

int
balanceCmd(const std::string &path)
{
    const obs::JsonValue doc = obs::parseJson(readFile(path));
    const obs::JsonValue *shards = doc.find("shards");
    fatal_if(shards == nullptr || !shards->isObject(),
             "%s: no per-shard data (need a --metrics snapshot from "
             "this version)",
             path.c_str());

    TextTable t;
    t.addColumn("instrument");
    t.addColumn("shards", TextTable::Align::Right);
    t.addColumn("events", TextTable::Align::Right);
    t.addColumn("busiest", TextTable::Align::Right);
    t.addColumn("mean/shard", TextTable::Align::Right);
    t.addColumn("imbalance", TextTable::Align::Right);

    for (const auto &[name, arr] : shards->object) {
        if (!arr.isArray() || arr.array.empty())
            continue;
        double total = 0, busiest = 0;
        size_t active = 0;
        for (const obs::JsonValue &v : arr.array) {
            total += v.number;
            busiest = std::max(busiest, v.number);
            if (v.number > 0)
                ++active;
        }
        // Imbalance is busiest over the mean of *active* stripes: a
        // serial run on a one-core host is perfectly balanced at 1.0,
        // not penalized for its idle stripes.
        const double mean =
            active > 0 ? total / static_cast<double>(active) : 0.0;
        t.beginRow();
        t.cell(name);
        t.cell(static_cast<int64_t>(arr.array.size()));
        t.cell(static_cast<int64_t>(total));
        t.cell(static_cast<int64_t>(busiest));
        t.cell(mean, 1);
        t.cell(mean > 0 ? busiest / mean : 0.0);
    }
    std::fputs(t.render().c_str(), stdout);
    return kExitOk;
}

int
checkpointCmd(const std::string &path)
{
    const obs::JsonValue doc = obs::parseJson(readFile(path));
    const obs::JsonValue *counters = doc.find("counters");
    fatal_if(counters == nullptr, "%s: no counters object",
             path.c_str());

    TextTable t;
    t.addColumn("metric");
    t.addColumn("value", TextTable::Align::Right);
    for (const char *key : {"checkpoint.records",
                            "checkpoint.replayed",
                            "checkpoint.corrupt"})
    {
        t.beginRow();
        t.cell(key);
        t.cell(static_cast<int64_t>(numberOr(*counters, key, 0.0)));
    }

    if (const obs::JsonValue *hists = doc.find("histograms")) {
        if (const obs::JsonValue *h =
                hists->find("checkpoint.flush.latency"))
        {
            const double count = numberOr(*h, "count", 0.0);
            const double mean = numberOr(*h, "mean", 0.0);
            const auto statRow = [&t](const char *label, double v) {
                t.beginRow();
                t.cell(label);
                t.cell(v, 6);
            };
            t.beginRow();
            t.cell("flush.count");
            t.cell(static_cast<int64_t>(count));
            statRow("flush.mean_s", mean);
            statRow("flush.p99_s", numberOr(*h, "p99", 0.0));
            statRow("flush.total_s", mean * count);
        }
    }
    std::fputs(t.render().c_str(), stdout);
    return kExitOk;
}

int
traceCmd(const std::string &path)
{
    const obs::JsonValue doc = obs::parseJson(readFile(path));
    const obs::JsonValue *events = doc.find("traceEvents");
    fatal_if(events == nullptr || !events->isArray(),
             "%s: no traceEvents array", path.c_str());

    struct Agg {
        uint64_t count = 0;
        double total_us = 0;
    };
    std::map<std::string, Agg> by_name;
    std::map<int64_t, double> busy_by_tid;
    double busy_total = 0;

    for (const obs::JsonValue &e : events->array) {
        const obs::JsonValue *ph = e.find("ph");
        if (ph == nullptr || ph->str != "X")
            continue;
        const obs::JsonValue *name = e.find("name");
        const double dur = numberOr(e, "dur", 0.0);
        if (name != nullptr) {
            Agg &a = by_name[name->str];
            ++a.count;
            a.total_us += dur;
        }
        busy_by_tid[static_cast<int64_t>(numberOr(e, "tid", 0.0))] +=
            dur;
        busy_total += dur;
    }
    fatal_if(by_name.empty(), "%s: no complete (ph=X) spans",
             path.c_str());

    TextTable spans;
    spans.addColumn("span");
    spans.addColumn("count", TextTable::Align::Right);
    spans.addColumn("total_ms", TextTable::Align::Right);
    spans.addColumn("mean_us", TextTable::Align::Right);
    // Busiest spans first: the table is a profile, not an index.
    std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                  by_name.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  return a.second.total_us > b.second.total_us;
              });
    for (const auto &[name, a] : rows) {
        spans.beginRow();
        spans.cell(name);
        spans.cell(static_cast<int64_t>(a.count));
        spans.cell(a.total_us / 1e3);
        spans.cell(a.total_us / static_cast<double>(a.count), 1);
    }
    std::fputs(spans.render().c_str(), stdout);

    TextTable threads;
    threads.addColumn("tid", TextTable::Align::Right);
    threads.addColumn("busy_ms", TextTable::Align::Right);
    threads.addColumn("share", TextTable::Align::Right);
    for (const auto &[tid, busy] : busy_by_tid) {
        threads.beginRow();
        threads.cell(tid);
        threads.cell(busy / 1e3);
        threads.cell(busy_total > 0 ? busy / busy_total : 0.0);
    }
    std::printf("\n%s", threads.render().c_str());
    return kExitOk;
}

int
blackboxCmd(const std::string &path)
{
    // Ring files carry a magic; anything else must already be a
    // black-box JSON dump, which is validated and passed through.
    std::string rendered;
    try {
        rendered = obs::renderRingFile(path);
    } catch (const std::exception &) {
        rendered = readFile(path);
        try {
            const obs::JsonValue doc = obs::parseJson(rendered);
            fatal_if(doc.find("events") == nullptr,
                     "%s: JSON but not a black-box dump",
                     path.c_str());
        } catch (const std::exception &e) {
            fatal("%s: neither a flight ring nor a black-box dump "
                  "(%s)",
                  path.c_str(), e.what());
        }
    }
    std::fputs(rendered.c_str(), stdout);
    if (rendered.empty() || rendered.back() != '\n')
        std::fputc('\n', stdout);
    return kExitOk;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: gpuscale-stat <command> <file>\n"
        "  series <metrics.jsonl>     exporter time series + cache\n"
        "                             hit trajectory\n"
        "  balance <metrics.json>     per-shard instrument balance\n"
        "  checkpoint <metrics.json>  journal overhead table\n"
        "  trace <trace.json>         span profile + per-thread "
        "share\n"
        "  blackbox <ring|dump.json>  render flight-recorder black "
        "box\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return kExitBadArguments;
    }
    const std::string cmd = argv[1];
    const bool known = cmd == "series" || cmd == "balance" ||
                       cmd == "checkpoint" || cmd == "trace" ||
                       cmd == "blackbox";
    if (!known) {
        std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
        usage();
        return kExitUnknownCommand;
    }
    if (argc < 3) {
        std::fprintf(stderr, "%s needs a file argument\n",
                     cmd.c_str());
        usage();
        return kExitBadArguments;
    }
    const std::string path = argv[2];

    try {
        if (cmd == "series")
            return seriesCmd(path);
        if (cmd == "balance")
            return balanceCmd(path);
        if (cmd == "checkpoint")
            return checkpointCmd(path);
        if (cmd == "trace")
            return traceCmd(path);
        return blackboxCmd(path);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gpuscale-stat: %s\n", e.what());
        return kExitFailure;
    }
}
