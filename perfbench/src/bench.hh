/**
 * @file
 * Shared state and entry points of the census/daemon benchmark.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/random.hh"
#include "gpu/analytic_model.hh"
#include "gpu/kernel_desc.hh"
#include "scaling/config_space.hh"
#include "scaling/surface.hh"
#include "spans.hh"
#include "stats.hh"

namespace gpuscale::service {
class Service;
} // namespace gpuscale::service

namespace perfbench {

namespace gs = gpuscale;

/** The checked-in census the workloads' outputs must reproduce. */
struct Golden {
    std::string csv;                          ///< classifications.csv bytes
    std::map<std::string, std::string> cls;   ///< kernel -> class name
    std::map<std::string, size_t> histogram;  ///< class name -> kernels
};

/** Current value of a registry counter. */
uint64_t counterValue(const char *name);

/** Load classifications.csv; false when it is missing or empty. */
bool loadGolden(const std::string &path, Golden &golden);

/** Program state every workload shares, built by setUp(). */
struct Bench {
    uint64_t seed = 0;
    std::string scratch; ///< per-process directory, removed at exit
    Golden golden;

    gs::gpu::AnalyticModel model;
    gs::scaling::ConfigSpace space = gs::scaling::ConfigSpace::paperGrid();
    gs::gpu::ConfigGrid grid;
    std::vector<const gs::gpu::KernelDesc *> kernels;
    std::string model_fp;
    std::string grid_fp;

    /** Zoo and grid load. */
    void setUp();

    /**
     * Spawn the worker pool the census's parallelFor uses.  Kept out
     * of the timed set-up: its wall time is scheduler latency, 0.15 ms
     * on idle cores and 5-10 ms when two other processes hold them.
     */
    static void spawnPool();

    /** Sample budget of the sparse census: 10% of the grid. */
    size_t sparseBudget() const { return space.size() / 10; }
};

/** What one measured run produced. */
struct Measurement {
    size_t attempted = 0;
    size_t failed = 0; ///< failed + refused + timed out
    size_t wrong = 0;  ///< outputs that failed the workload's check
    std::vector<double> latency_ms; ///< per successful operation
    double wall_s = 0.0;            ///< wall time the ops were measured over
    /** Per-layer metrics only this workload's traced run can give. */
    std::map<std::string, double> layer;
    /** Facts recorded beside the metrics (input, counts). */
    std::map<std::string, std::string> facts;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Everything before the first measured operation. */
    virtual void setUp(Bench &bench) = 0;

    /**
     * Measure for `seconds`.  With a recorder, alternate untraced and
     * traced operations (or windows) and report the tracing overhead.
     */
    virtual Measurement measure(Bench &bench, double seconds,
                                SpanRecorder *spans) = 0;
};

std::unique_ptr<Workload> makeCensusCold();
std::unique_ptr<Workload> makeCensusResume();
std::unique_ptr<Workload> makeSparseCensus();
std::unique_ptr<Workload> makeServiceMix();

/**
 * The census_resume operation: the four sweepKernels passes (write,
 * replay, disk, memory hit) over a fresh directory.  Returns the
 * surfaces of each pass in that order, and the number of journal
 * records the replay pass found.
 */
struct DurableCycle {
    std::vector<gs::scaling::ScalingSurface> passes[4];
    size_t replayed = 0;
};
DurableCycle durableCycle(Bench &bench, const std::string &dir,
                          SpanRecorder *spans, uint64_t op);

/** In-process gpuscaled on the paper grid, census loaded. */
class Daemon
{
  public:
    Daemon(const Bench &bench, const std::string &socket_path);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

  private:
    std::unique_ptr<gs::service::Service> service_;
    std::thread server_;
};

/** One request of the service mix. */
struct MixRequest {
    enum Op { Classify, Predict, Census, Stats } op = Classify;
    size_t kernel = 0;
    int cu = 0;
    double core_mhz = 0.0;
    double mem_mhz = 0.0;
};
const char *opName(MixRequest::Op op);

/**
 * The seeded open-loop traffic: Poisson arrivals at `rate_per_s` for
 * `seconds`, mostly classify and predict on seeded kernels and grid
 * points, a few census summaries and stats.
 */
struct Traffic {
    std::vector<MixRequest> requests;
    std::vector<int64_t> due_ns;
};
Traffic makeTraffic(const Bench &bench, double rate_per_s, double seconds,
                    gs::Rng &rng);

/** The wire frame of request `id` (newline-terminated). */
std::string renderFrame(const Bench &bench, const MixRequest &req,
                        uint64_t id);

/** Result of driving a daemon with one Traffic. */
struct TrafficRun {
    std::vector<RequestTiming> timings;
    std::vector<std::string> answers;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    size_t wrong = 0;
};

/** Send the traffic open loop over `connections` sockets and check it. */
TrafficRun driveTraffic(const Bench &bench, const std::string &socket_path,
                        const Traffic &traffic, size_t connections);

/** The offered rate of service_mix (about half what the daemon sustains). */
constexpr double kServiceRatePerS = 10000.0;
/** Connections the generator spreads requests over. */
constexpr size_t kServiceConnections = 4;

/**
 * Time every layer's public calls directly, recording a span per call,
 * and add the per-layer metrics to `out`.
 */
void runLayerProbes(Bench &bench, SpanRecorder &spans,
                    std::map<std::string, double> &out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
