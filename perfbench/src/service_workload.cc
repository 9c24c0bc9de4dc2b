/**
 * @file
 * service_mix: an in-process gpuscaled on the paper grid, census
 * loaded and no journal, driven open loop from a seeded Poisson
 * schedule.  Every request is timed from when it was due.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "bench.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "open_loop.hh"
#include "service/client.hh"
#include "service/server.hh"

namespace perfbench {

Daemon::Daemon(const Bench &bench, const std::string &socket_path)
{
    gs::service::ServiceOptions opts;
    opts.socket_path = socket_path;
    service_ = std::make_unique<gs::service::Service>(opts, bench.model);
    if (!service_->start())
        throw std::runtime_error("daemon cannot bind " + socket_path);
    gs::service::Service *svc = service_.get();
    server_ = std::thread([svc] {
        svc->loadCensus();
        svc->serve();
    });

    // Set-up ends when the daemon answers with its census loaded.
    gs::service::Client client(socket_path);
    bool loaded = false;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!loaded && std::chrono::steady_clock::now() < give_up) {
        std::string answer;
        if (!client.connected())
            client.connect(1000.0);
        loaded = client.call("{\"id\":1,\"op\":\"health\"}", 1000.0,
                             &answer) &&
                 answer.find("\"census_loaded\":true") != std::string::npos;
        if (!loaded)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (!loaded) {
        service_->requestDrain();
        server_.join();
        throw std::runtime_error("daemon never loaded its census");
    }
}

Daemon::~Daemon()
{
    service_->requestDrain();
    server_.join();
}

const char *
opName(MixRequest::Op op)
{
    switch (op) {
      case MixRequest::Classify:
        return "classify";
      case MixRequest::Predict:
        return "predict";
      case MixRequest::Census:
        return "census";
      case MixRequest::Stats:
        return "stats";
    }
    return "?";
}

Traffic
makeTraffic(const Bench &bench, double rate_per_s, double seconds,
            gs::Rng &rng)
{
    Traffic t;
    t.due_ns = poissonSchedule(rate_per_s, seconds, rng);
    const auto pick = [&rng](size_t n) {
        return static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(n) - 1));
    };
    t.requests.reserve(t.due_ns.size());
    for (size_t i = 0; i < t.due_ns.size(); ++i) {
        MixRequest r;
        const double u = rng.uniform();
        r.op = u < 0.47   ? MixRequest::Classify
               : u < 0.94 ? MixRequest::Predict
               : u < 0.97 ? MixRequest::Census
                          : MixRequest::Stats;
        r.kernel = pick(bench.kernels.size());
        r.cu = bench.space.cuValues()[pick(bench.space.numCu())];
        r.core_mhz = bench.space.coreClks()[pick(bench.space.numCoreClk())];
        r.mem_mhz = bench.space.memClks()[pick(bench.space.numMemClk())];
        t.requests.push_back(r);
    }
    return t;
}

std::string
renderFrame(const Bench &bench, const MixRequest &req, uint64_t id)
{
    std::string f = "{\"id\":" + std::to_string(id) + ",\"op\":\"" +
                    opName(req.op) + "\",\"deadline_ms\":1000";
    const std::string &kernel = bench.kernels[req.kernel]->name;
    char point[128];
    switch (req.op) {
      case MixRequest::Classify:
        f += ",\"params\":{\"kernel\":\"" + kernel + "\"}";
        break;
      case MixRequest::Predict:
        std::snprintf(point, sizeof(point),
                      ",\"cu\":%d,\"core_clk_mhz\":%.17g,"
                      "\"mem_clk_mhz\":%.17g}",
                      req.cu, req.core_mhz, req.mem_mhz);
        f += ",\"params\":{\"kernel\":\"" + kernel + "\"" + point;
        break;
      case MixRequest::Census:
        f += ",\"params\":{\"refresh\":false}";
        break;
      case MixRequest::Stats:
        break;
    }
    return f + "}\n";
}

namespace {

/** The runtime a private 1x1x1 evaluation gives for a predict. */
double
expectedRuntime(const Bench &bench, const MixRequest &req)
{
    gs::gpu::ConfigGrid grid;
    grid.base = bench.grid.base;
    grid.cu_values = {req.cu};
    grid.core_clks_mhz = {req.core_mhz};
    grid.mem_clks_mhz = {req.mem_mhz};
    return bench.model.evaluateGridRuntimes(*bench.kernels[req.kernel],
                                            grid)[0];
}

/** True when an ok answer is what the daemon should have said. */
bool
answerIsRight(const Bench &bench, const MixRequest &req, uint64_t id,
              const std::string &answer)
{
    const gs::obs::JsonValue doc = gs::obs::parseJson(answer);
    const gs::obs::JsonValue *got_id = doc.find("id");
    const gs::obs::JsonValue *result = doc.find("result");
    if (got_id == nullptr || got_id->number != static_cast<double>(id) ||
        result == nullptr || !result->isObject())
    {
        return false;
    }
    const std::string &kernel = bench.kernels[req.kernel]->name;
    switch (req.op) {
      case MixRequest::Classify: {
        const auto *cls = result->find("class");
        const auto it = bench.golden.cls.find(kernel);
        return cls != nullptr && it != bench.golden.cls.end() &&
               cls->str == it->second;
      }
      case MixRequest::Predict: {
        const auto *runtime = result->find("runtime_s");
        const double want = expectedRuntime(bench, req);
        return runtime != nullptr && runtime->isNumber() &&
               std::memcmp(&runtime->number, &want, sizeof(double)) == 0;
      }
      case MixRequest::Census: {
        const auto *kernels = result->find("kernels");
        const auto *classes = result->find("classes");
        if (kernels == nullptr || classes == nullptr ||
            kernels->number != static_cast<double>(bench.kernels.size()))
        {
            return false;
        }
        for (const auto &[name, count] : bench.golden.histogram) {
            const auto *got = classes->find(name);
            if (got == nullptr || got->number != static_cast<double>(count))
                return false;
        }
        return true;
      }
      case MixRequest::Stats:
        return !result->object.empty();
    }
    return false;
}

} // namespace

TrafficRun
driveTraffic(const Bench &bench, const std::string &socket_path,
             const Traffic &traffic, size_t connections)
{
    const size_t n = traffic.requests.size();
    std::vector<ScheduledFrame> frames(n);
    std::vector<bool> keep(n, true);
    size_t stats_kept = 0;
    for (size_t i = 0; i < n; ++i) {
        frames[i].due_ns = traffic.due_ns[i];
        frames[i].frame = renderFrame(bench, traffic.requests[i], i + 1);
        // Stats frames are whole registry snapshots; check a sample
        // in full and the rest by their ok verdict.
        if (traffic.requests[i].op == MixRequest::Stats)
            keep[i] = stats_kept++ < 16;
    }

    OpenLoopClient client(socket_path, connections);
    if (!client.connected())
        throw std::runtime_error("cannot connect to " + socket_path);
    TrafficRun run;
    run.start_ns = nowNs() + 2000000; // first sends after 2 ms
    client.run(frames, run.start_ns, 2.0, keep, run.timings, run.answers);
    run.end_ns = run.start_ns;
    for (size_t i = 0; i < n; ++i) {
        run.end_ns = std::max(run.end_ns, run.timings[i].done_ns);
        if (run.timings[i].outcome != Outcome::Ok || !keep[i])
            continue;
        bool right = false;
        try {
            right = answerIsRight(bench, traffic.requests[i], i + 1,
                                  run.answers[i]);
        } catch (const std::exception &) {
            right = false;
        }
        if (!right)
            ++run.wrong;
    }
    return run;
}

namespace {

class ServiceMix final : public Workload
{
  public:
    void
    setUp(Bench &bench) override
    {
        bench.setUp();
        socket_ = bench.scratch + "/mix.sock";
        daemon_ = std::make_unique<Daemon>(bench, socket_);
    }

    Measurement
    measure(Bench &bench, double seconds, SpanRecorder *spans) override
    {
        gs::Rng rng(bench.seed);
        const Traffic traffic =
            makeTraffic(bench, kServiceRatePerS, seconds, rng);
        const TrafficRun run =
            driveTraffic(bench, socket_, traffic, kServiceConnections);
        const OpenLoopSummary s = summarize(run.timings);

        Measurement m;
        m.attempted = s.attempted;
        m.failed = s.refused + s.failed + s.timed_out;
        m.wrong = run.wrong;
        m.latency_ms = s.latency_ms;
        m.wall_s = static_cast<double>(run.end_ns - run.start_ns) * 1e-9;
        m.facts["refused"] = std::to_string(s.refused);
        m.facts["transport_failed"] = std::to_string(s.failed);
        m.facts["timed_out"] = std::to_string(s.timed_out);
        m.facts["generator_lag_ms_p50"] = std::to_string(median(s.lag_ms));
        m.facts["generator_lag_ms_tail"] =
            std::to_string(tailPick(s.lag_ms).value);
        if (spans == nullptr)
            return m;

        // Open-loop spans are built from the timings the generator
        // keeps anyway, so nothing is added while requests fly.  Odd
        // half-second windows are "traced"; comparing them with the
        // even ones bounds what the windowing itself perturbs.
        std::vector<double> even_ms, odd_ms;
        for (size_t i = 0; i < run.timings.size(); ++i) {
            const RequestTiming &t = run.timings[i];
            if (t.outcome != Outcome::Ok)
                continue;
            const bool odd = (traffic.due_ns[i] / 500000000) % 2 == 1;
            (odd ? odd_ms : even_ms)
                .push_back(static_cast<double>(t.done_ns - t.due_ns) * 1e-6);
            if (!odd)
                continue;
            Span op{"op", t.due_ns, t.done_ns, -1, i + 1};
            const int32_t parent = spans->add(op);
            static const char *const kRoundtrip[] = {
                "service.roundtrip.classify", "service.roundtrip.predict",
                "service.roundtrip.census", "service.roundtrip.stats"};
            spans->add(Span{kRoundtrip[traffic.requests[i].op], t.sent_ns,
                            t.done_ns, parent, i + 1});
        }
        const double base = median(even_ms);
        m.layer["bench.trace_overhead_pct"] =
            base > 0.0 ? 100.0 * (median(odd_ms) - base) / base : 0.0;
        m.layer["bench.layer_coverage_pct"] =
            median(spans->childCoveragePct("op"));
        m.layer["harness.sweep_cache.hit_ratio"] = 0.0;
        return m;
    }

  private:
    std::string socket_;
    std::unique_ptr<Daemon> daemon_;
};

} // namespace

std::unique_ptr<Workload>
makeServiceMix()
{
    return std::make_unique<ServiceMix>();
}

} // namespace perfbench
