/**
 * @file
 * gpuscale — command-line front end for the toolkit.
 *
 * Subcommands:
 *   census [sigma]        run the full 267x891 census (optionally
 *                         with measurement noise) and print the
 *                         taxonomy tables; writes
 *                         classifications.csv and a run manifest
 *                         (classifications.manifest.json) to the
 *                         working dir.  With --sparse=K only K
 *                         configurations per kernel are measured and
 *                         the rest reconstructed
 *                         (docs/prediction.md); the CSV gains
 *                         confidence/band_crosses/samples columns.
 *   classify <file.csv>   classify externally measured surfaces
 *                         (writeSurfaceCsv format — bring your own
 *                         hardware data).
 *   kernel <name>         show one zoo kernel's scaling curves and
 *                         classification.
 *   suites                print the workload inventory.
 *
 * Telemetry options (any subcommand):
 *   --trace=FILE          write a Chrome trace-event / Perfetto JSON
 *                         span trace (chrome://tracing,
 *                         ui.perfetto.dev).
 *   --metrics=FILE        write a metrics-registry JSON snapshot and
 *                         print the metrics table.
 *   --metrics-interval=MS start the background exporter appending a
 *                         JSONL time-series line of registry deltas
 *                         every MS milliseconds (also honoured from
 *                         the GPUSCALE_METRICS_INTERVAL environment
 *                         variable when the flag is absent).
 *   --metrics-jsonl=FILE  destination for the exporter's time series
 *                         (default metrics.jsonl).
 *   --exposition=FILE     write a Prometheus text-exposition snapshot
 *                         at exit (the body a resident gpuscaled
 *                         would serve on /metrics).
 *   --flight-recorder=BASE keep a crash flight recorder ring at
 *                         BASE.ring (mmap-backed; survives kill -9)
 *                         and dump a black-box JSON to BASE.json on
 *                         fatal signals or a degraded (exit 4) run.
 *                         `gpuscale-stat blackbox BASE.ring` reads
 *                         the ring post-mortem.
 *   --progress            live progress line on stderr during sweeps.
 *   --sweep-cache=DIR     persist sweep results under DIR so repeat
 *                         invocations of the same sweep hit the cache
 *                         instead of recomputing (sweep.cache.hits in
 *                         the metrics snapshot shows the effect).
 *   --checkpoint=DIR      journal census shard results under DIR; a
 *                         rerun after a crash (or kill -9) replays
 *                         finished shards from the journal and only
 *                         recomputes the rest.
 *
 * Fault-tolerance environment (see docs/fault_tolerance.md):
 *   GPUSCALE_FAULTS       seeded fault-injection plan
 *                         ("site:rate[:kind[:delay_ms]],...")
 *   GPUSCALE_FAULT_SEED   RNG seed for the plan (default 0)
 *   GPUSCALE_RETRY        retry policy "attempts[:base_ms[:max_ms]]"
 *
 * Exit codes: 0 success, 1 runtime failure, 2 unknown command or
 * malformed GPUSCALE_FAULTS plan, 3 bad arguments, 4 success but
 * degraded (faults were absorbed — cache misses, skipped CSV rows,
 * or checkpoint records lost; degradation.events in the metrics
 * snapshot counts them) — scripted drivers can tell a typo'd
 * subcommand from a malformed invocation from a lossy-but-complete
 * run.  Exit 5 is reserved for service startup failure and only
 * emitted by the gpuscaled binary (docs/service.md).
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/fault.hh"
#include "base/logging.hh"
#include "base/math_util.hh"
#include "base/plot.hh"
#include "base/string_util.hh"
#include "gpu/analytic_model.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/noise.hh"
#include "harness/sparse.hh"
#include "harness/sweep_cache.hh"
#include "obs/exporter.hh"
#include "obs/fault_telemetry.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/retry.hh"
#include "obs/run_manifest.hh"
#include "obs/trace.hh"
#include "scaling/report.hh"
#include "scaling/suite_analysis.hh"
#include "workloads/registry.hh"

namespace {

using namespace gpuscale;

constexpr int kExitOk = 0;
constexpr int kExitFailure = 1;
constexpr int kExitUnknownCommand = 2;
constexpr int kExitBadArguments = 3;
constexpr int kExitDegraded = 4;

/** Telemetry switches shared by every subcommand. */
struct CliOptions {
    std::string trace_file;
    std::string metrics_file;
    std::string metrics_jsonl = "metrics.jsonl";
    std::string exposition_file;
    std::string flight_recorder_base;
    std::string sweep_cache_dir;
    std::string checkpoint_dir;
    unsigned metrics_interval_ms = 0;
    bool progress = false;

    /** Sparse census (census --sparse=K); 0 means dense. */
    size_t sparse_samples = 0;
    scaling::SamplerKind sampler = scaling::SamplerKind::Lhs;
    bool sampler_given = false;
    uint64_t sparse_seed = 0;
};

void usage();

int
runCensusCmd(double sigma, const CliOptions &opts,
             const std::vector<std::string> &argv_record)
{
    const obs::ManifestTimer timer;

    const gpu::AnalyticModel inner;
    const harness::NoisyModel noisy(inner, sigma);
    const gpu::PerfModel &model =
        sigma > 0 ? static_cast<const gpu::PerfModel &>(noisy)
                  : static_cast<const gpu::PerfModel &>(inner);

    inform("running census with model '%s'", model.name().c_str());
    const size_t num_kernels = workloads::WorkloadRegistry::instance()
                                   .allKernels().size();
    obs::ProgressReporter progress("census", num_kernels,
                                   opts.progress);

    // The journal pins the exact model and grid it was written
    // against; pass the grid explicitly so both runCensus and the
    // journal header agree on the fingerprint.
    const auto space = scaling::ConfigSpace::paperGrid();
    std::optional<harness::CensusJournal> journal;
    if (!opts.checkpoint_dir.empty()) {
        journal.emplace(opts.checkpoint_dir, model.fingerprint(),
                        space.grid().fingerprint());
        if (journal->loadedRecords() > 0) {
            inform("checkpoint: replaying %zu finished shards from %s",
                   journal->loadedRecords(), journal->path().c_str());
        }
    }

    const auto census =
        harness::runCensus(model, space, scaling::TaxonomyParams{},
                           &progress,
                           journal ? &*journal : nullptr);
    progress.finish();
    if (journal) {
        // One fsync at the quiescent point buys power-loss
        // durability for the whole journal.
        journal->sync();
    }

    std::fputs(scaling::classHistogramTable(census.classifications)
                   .render().c_str(),
               stdout);
    std::printf("\n");
    std::fputs(
        scaling::suiteBreakdownTable(
            scaling::analyzeSuites(census.classifications, 44), 44)
            .render().c_str(),
        stdout);

    const std::string report_path = "classifications.csv";
    const bool wrote_report = obs::retryWithBackoff(
        obs::retryPolicy(), "classifications.csv write", [&]() {
            if (faultPoint("cli.report.write"))
                return false;
            std::ofstream os(report_path);
            if (!os)
                return false;
            scaling::writeClassificationsCsv(os,
                                             census.classifications);
            return os.good();
        });
    if (wrote_report) {
        inform("wrote %s (%zu rows)", report_path.c_str(),
               census.classifications.size());
    } else {
        warn("cannot write %s; census results shown above only",
             report_path.c_str());
        obs::noteDegradation("cli.report.write");
    }

    obs::RunManifest manifest = harness::censusManifest(census, model);
    manifest.argv = argv_record;
    if (sigma > 0) {
        manifest.seed = noisy.seed();
        manifest.extra["noise_sigma"] = formatDoubleShortest(sigma);
    }
    manifest.extra["report"] = report_path;
    timer.finalize(manifest);
    const std::string manifest_path = obs::manifestPathFor(report_path);
    obs::writeManifest(manifest, manifest_path);
    inform("wrote %s", manifest_path.c_str());
    return kExitOk;
}

int
runSparseCensusCmd(double sigma, const CliOptions &opts,
                   const std::vector<std::string> &argv_record)
{
    const obs::ManifestTimer timer;

    const gpu::AnalyticModel inner;
    const harness::NoisyModel noisy(inner, sigma);
    const gpu::PerfModel &model =
        sigma > 0 ? static_cast<const gpu::PerfModel &>(noisy)
                  : static_cast<const gpu::PerfModel &>(inner);

    const auto space = scaling::ConfigSpace::paperGrid();
    harness::SparseCensusOptions sparse;
    sparse.samples = opts.sparse_samples;
    sparse.sampler = opts.sampler;
    sparse.seed = opts.sparse_seed;

    // Budget bounds are a usage error (exit 3), not a fatal(): the
    // minimum is the anchor slices plus one, which depends only on
    // the grid shape.
    scaling::SparseFitOptions fit;
    fit.seed = sparse.seed;
    const scaling::SparsePredictor predictor(space, fit);
    if (sparse.samples < predictor.minSamples() ||
        sparse.samples > space.size())
    {
        std::fprintf(stderr,
                     "census: --sparse=%zu out of range [%zu, %zu] "
                     "for the %zu-point grid\n",
                     sparse.samples, predictor.minSamples(),
                     space.size(), space.size());
        usage();
        return kExitBadArguments;
    }

    inform("running sparse census with model '%s': %zu/%zu configs "
           "per kernel (%s sampler, seed %llu)",
           model.name().c_str(), sparse.samples, space.size(),
           scaling::samplerKindName(sparse.sampler).c_str(),
           static_cast<unsigned long long>(sparse.seed));
    const size_t num_kernels = workloads::WorkloadRegistry::instance()
                                   .allKernels().size();
    obs::ProgressReporter progress("census", num_kernels,
                                   opts.progress);

    const auto census = harness::runSparseCensus(
        model, space, sparse, scaling::TaxonomyParams{}, &progress);
    progress.finish();

    std::fputs(scaling::classHistogramTable(census.classifications)
                   .render().c_str(),
               stdout);
    std::printf("\n");
    std::fputs(
        scaling::suiteBreakdownTable(
            scaling::analyzeSuites(census.classifications, 44), 44)
            .render().c_str(),
        stdout);

    double mean_confidence = 0.0;
    size_t low_confidence = 0;
    for (const auto &r : census.reconstructions) {
        mean_confidence += r.confidence;
        low_confidence += r.band_crosses_boundary;
    }
    if (!census.reconstructions.empty())
        mean_confidence /=
            static_cast<double>(census.reconstructions.size());
    std::printf("\nmean confidence %.3f; %zu of %zu kernels near a "
                "class boundary\n",
                mean_confidence, low_confidence,
                census.reconstructions.size());

    const std::string report_path = "classifications.csv";
    const bool wrote_report = obs::retryWithBackoff(
        obs::retryPolicy(), "classifications.csv write", [&]() {
            if (faultPoint("cli.report.write"))
                return false;
            std::ofstream os(report_path);
            if (!os)
                return false;
            scaling::writeSparseCensusCsv(os, census.reconstructions);
            return os.good();
        });
    if (wrote_report) {
        inform("wrote %s (%zu rows)", report_path.c_str(),
               census.reconstructions.size());
    } else {
        warn("cannot write %s; census results shown above only",
             report_path.c_str());
        obs::noteDegradation("cli.report.write");
    }

    obs::RunManifest manifest =
        harness::sparseCensusManifest(census, model);
    manifest.argv = argv_record;
    if (sigma > 0) {
        manifest.seed = noisy.seed();
        manifest.extra["noise_sigma"] = formatDoubleShortest(sigma);
    }
    manifest.extra["report"] = report_path;
    timer.finalize(manifest);
    const std::string manifest_path = obs::manifestPathFor(report_path);
    obs::writeManifest(manifest, manifest_path);
    inform("wrote %s", manifest_path.c_str());
    return kExitOk;
}

int
classifyCmd(const std::string &path)
{
    // gpuscale-lint: allow(fault-coverage): user-supplied input; an
    // unreadable file is a fatal usage error, not a degradable
    // mid-run fault.
    std::ifstream is(path);
    fatal_if(!is, "cannot read %s", path.c_str());
    std::stringstream buffer;
    buffer << is.rdbuf();

    const auto surfaces = scaling::readSurfacesCsv(buffer.str());
    inform("parsed %zu surfaces on a %zu-point grid", surfaces.size(),
           surfaces.empty() ? 0 : surfaces.front().space().size());

    const auto classifications = scaling::classifyAll(surfaces);
    std::fputs(
        scaling::classHistogramTable(classifications).render().c_str(),
        stdout);
    std::printf("\nper kernel:\n");
    for (const auto &c : classifications) {
        std::printf("  %-50s %s\n", c.kernel.c_str(),
                    scaling::taxonomyClassName(c.cls).c_str());
    }
    return kExitOk;
}

int
kernelCmd(const std::string &name)
{
    const auto *kernel =
        workloads::WorkloadRegistry::instance().findKernel(name);
    if (!kernel) {
        std::fprintf(stderr,
                     "unknown kernel '%s' (names look like "
                     "rodinia/hotspot/calculate_temp)\n",
                     name.c_str());
        return kExitFailure;
    }
    std::printf("%s\n\n", kernel->describe().c_str());

    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::paperGrid();
    const auto surface = harness::sweepKernel(model, *kernel, space);
    const auto cls = scaling::classifySurface(surface);
    std::printf("classification: %s\n\n",
                scaling::taxonomyClassName(cls.cls).c_str());

    LineChart chart("scaling curves (others at max)", "knob index",
                    "speedup");
    chart.setSize(60, 14);
    std::vector<double> idx9{1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::vector<double> idx11{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
    chart.addSeries({"cu", idx11,
                     normalizeToFirst(surface.cuCurveAtMax())});
    chart.addSeries({"freq", idx9,
                     normalizeToFirst(surface.freqCurveAtMax())});
    chart.addSeries({"mem", idx9,
                     normalizeToFirst(surface.memCurveAtMax())});
    std::printf("%s\n", chart.render().c_str());
    return kExitOk;
}

int
suitesCmd()
{
    const auto &reg = workloads::WorkloadRegistry::instance();
    for (const auto &row : reg.census()) {
        std::printf("%-12s %3zu programs %4zu kernels\n",
                    row.suite.c_str(), row.programs, row.kernels);
    }
    return kExitOk;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: gpuscale [options] <command>\n"
        "  census [sigma]       full taxonomy census (+noise);\n"
        "                       writes classifications.csv + manifest\n"
        "  classify <file.csv>  classify measured surfaces\n"
        "  kernel <name>        inspect one zoo kernel\n"
        "  suites               workload inventory\n"
        "options:\n"
        "  --trace=FILE         Chrome/Perfetto trace-event JSON\n"
        "  --metrics=FILE       metrics-registry JSON snapshot\n"
        "  --metrics-interval=MS  periodic JSONL metrics export\n"
        "  --metrics-jsonl=FILE exporter destination "
        "(default metrics.jsonl)\n"
        "  --exposition=FILE    Prometheus text exposition at exit\n"
        "  --flight-recorder=BASE  crash black box: ring at "
        "BASE.ring,\n"
        "                       dump at BASE.json on crash/degrade\n"
        "  --progress           live sweep progress on stderr\n"
        "  --sweep-cache=DIR    persistent sweep cache directory\n"
        "  --checkpoint=DIR     crash-safe census journal directory\n"
        "  --sparse=K           census: measure only K configs per\n"
        "                       kernel, reconstruct the rest\n"
        "                       (docs/prediction.md)\n"
        "  --sampler=NAME       sparse sample planner: lhs (default)\n"
        "                       or active\n"
        "  --sparse-seed=N      seed for sparse plans/ensembles\n"
        "env: GPUSCALE_FAULTS, GPUSCALE_FAULT_SEED, GPUSCALE_RETRY "
        "(see docs/fault_tolerance.md),\n"
        "     GPUSCALE_METRICS_INTERVAL (ms, same as "
        "--metrics-interval)\n"
        "exit codes: 0 ok, 1 failure, 2 unknown command, "
        "3 bad arguments,\n"
        "            4 ok but degraded (absorbed faults), "
        "5 service startup\n"
        "            failure (gpuscaled serve only; "
        "docs/service.md)\n");
}

/** Write the metrics snapshot and print the table (--metrics). */
void
emitMetrics(const std::string &path)
{
    // gpuscale-lint: allow(fault-coverage): telemetry artifact
    // written after the census completed; a bad path is a fatal
    // usage error.
    std::ofstream os(path);
    fatal_if(!os, "cannot write metrics file %s", path.c_str());
    os << obs::Registry::instance().snapshotJson() << '\n';
    std::printf("\n%s",
                obs::Registry::instance().snapshotTable()
                    .render().c_str());
    inform("wrote %s", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    // Arm before anything probes a fault point; a malformed
    // GPUSCALE_FAULTS plan exits 2 in here.
    obs::armFaultsFromEnv();

    CliOptions opts;
    std::vector<std::string> args;
    std::vector<std::string> argv_record;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        argv_record.push_back(arg);
        if (arg.rfind("--trace=", 0) == 0) {
            opts.trace_file = arg.substr(8);
        } else if (arg.rfind("--metrics=", 0) == 0) {
            opts.metrics_file = arg.substr(10);
        } else if (arg.rfind("--metrics-interval=", 0) == 0) {
            // from_chars, not atoi: a mistyped interval must be a
            // usage error, not a silently disabled exporter.
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
            opts.metrics_interval_ms = *ms;
        } else if (arg.rfind("--metrics-jsonl=", 0) == 0) {
            opts.metrics_jsonl = arg.substr(16);
        } else if (arg.rfind("--exposition=", 0) == 0) {
            opts.exposition_file = arg.substr(13);
        } else if (arg.rfind("--flight-recorder=", 0) == 0) {
            opts.flight_recorder_base = arg.substr(18);
        } else if (arg.rfind("--sweep-cache=", 0) == 0) {
            opts.sweep_cache_dir = arg.substr(14);
        } else if (arg.rfind("--checkpoint=", 0) == 0) {
            opts.checkpoint_dir = arg.substr(13);
        } else if (arg == "--progress") {
            opts.progress = true;
        } else if (arg.rfind("--sparse=", 0) == 0) {
            // from_chars, not atoi: "8x9" must be a usage error, not
            // a silent 8-sample census.
            const auto samples = parseInteger<size_t>(arg.substr(9));
            if (!samples || *samples == 0) {
                std::fprintf(stderr,
                             "--sparse: '%s' is not a positive "
                             "sample count\n",
                             arg.substr(9).c_str());
                usage();
                return kExitBadArguments;
            }
            opts.sparse_samples = *samples;
        } else if (arg.rfind("--sampler=", 0) == 0) {
            if (!scaling::parseSamplerKind(arg.substr(10),
                                           &opts.sampler))
            {
                std::fprintf(stderr,
                             "--sampler: '%s' is not a sampler "
                             "(lhs, active)\n",
                             arg.substr(10).c_str());
                usage();
                return kExitBadArguments;
            }
            opts.sampler_given = true;
        } else if (arg.rfind("--sparse-seed=", 0) == 0) {
            const auto seed = parseInteger<uint64_t>(arg.substr(14));
            if (!seed) {
                std::fprintf(stderr,
                             "--sparse-seed: '%s' is not a "
                             "non-negative integer\n",
                             arg.substr(14).c_str());
                usage();
                return kExitBadArguments;
            }
            opts.sparse_seed = *seed;
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

    if (opts.metrics_interval_ms == 0) {
        // The environment can turn the exporter on for runs whose
        // command line a wrapper controls.
        if (const char *env = std::getenv("GPUSCALE_METRICS_INTERVAL")) {
            const auto ms = parseInteger<unsigned>(env, /*truncate=*/true);
            if (ms && *ms > 0)
                opts.metrics_interval_ms = *ms;
            else
                warn("ignoring GPUSCALE_METRICS_INTERVAL='%s'", env);
        }
    }

    if (!opts.trace_file.empty())
        obs::TraceSession::start(opts.trace_file);
    if (!opts.flight_recorder_base.empty()) {
        if (obs::FlightRecorder::start(opts.flight_recorder_base +
                                       ".ring"))
        {
            obs::FlightRecorder::installCrashDump(
                opts.flight_recorder_base + ".json");
        }
    }
    if (opts.metrics_interval_ms > 0) {
        obs::MetricsExporter::start(opts.metrics_jsonl,
                                    opts.metrics_interval_ms);
    }
    if (!opts.sweep_cache_dir.empty())
        harness::SweepCache::instance().setDirectory(
            opts.sweep_cache_dir);

    const std::string cmd = args[0];
    int rc;
    if (cmd == "census") {
        double sigma = 0.0;
        if (args.size() > 1) {
            // from_chars, not atof: "0,05" or "abc" must be a usage
            // error, not a silent sigma of 0 in every manifest.
            const auto parsed = parseDouble(args[1]);
            if (!parsed || *parsed < 0) {
                std::fprintf(stderr,
                             "census: sigma '%s' is not a "
                             "non-negative number\n",
                             args[1].c_str());
                usage();
                return kExitBadArguments;
            }
            sigma = *parsed;
        }
        if (opts.sparse_samples > 0) {
            if (!opts.checkpoint_dir.empty()) {
                // The census journal records full-sweep shards; a
                // sparse census measures per-plan points, so a
                // replayed journal would silently hand it dense
                // vectors.  The sweep cache covers sparse resumption
                // instead.
                std::fprintf(stderr,
                             "census: --checkpoint is incompatible "
                             "with --sparse (use --sweep-cache)\n");
                usage();
                return kExitBadArguments;
            }
            rc = runSparseCensusCmd(sigma, opts, argv_record);
        } else {
            if (opts.sampler_given || opts.sparse_seed != 0) {
                std::fprintf(stderr,
                             "census: --sampler/--sparse-seed need "
                             "--sparse=K\n");
                usage();
                return kExitBadArguments;
            }
            rc = runCensusCmd(sigma, opts, argv_record);
        }
    } else if (cmd == "classify") {
        if (args.size() < 2) {
            std::fprintf(stderr, "classify needs a CSV path\n");
            usage();
            return kExitBadArguments;
        }
        rc = classifyCmd(args[1]);
    } else if (cmd == "kernel") {
        if (args.size() < 2) {
            std::fprintf(stderr, "kernel needs a kernel name\n");
            usage();
            return kExitBadArguments;
        }
        rc = kernelCmd(args[1]);
    } else if (cmd == "suites") {
        rc = suitesCmd();
    } else {
        std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
        usage();
        return kExitUnknownCommand;
    }

    if (obs::MetricsExporter::active()) {
        obs::MetricsExporter::stop();
        inform("wrote %s", opts.metrics_jsonl.c_str());
    }
    if (!opts.metrics_file.empty())
        emitMetrics(opts.metrics_file);
    if (!opts.exposition_file.empty()) {
        // gpuscale-lint: allow(fault-coverage): telemetry artifact
        // written after the census completed; a bad path is a fatal
        // usage error.
        std::ofstream os(opts.exposition_file);
        fatal_if(!os, "cannot write exposition file %s",
                 opts.exposition_file.c_str());
        obs::Registry::instance().writeExposition(os);
        inform("wrote %s", opts.exposition_file.c_str());
    }
    if (!opts.trace_file.empty()) {
        const size_t spans = obs::TraceSession::stop();
        inform("wrote %s (%zu spans)", opts.trace_file.c_str(), spans);
    }
    if (rc == kExitOk && obs::degradationCount() > 0) {
        warn("run completed with %llu degradation(s); exiting %d",
             static_cast<unsigned long long>(obs::degradationCount()),
             kExitDegraded);
        rc = kExitDegraded;
    }
    if (obs::FlightRecorder::active()) {
        if (rc == kExitDegraded) {
            // The black box explains *what* degraded, not just that
            // something did: dump before the recorder winds down.
            const std::string dump_path =
                opts.flight_recorder_base + ".json";
            obs::FlightRecorder::dump(dump_path, "degraded-exit-4");
            inform("wrote %s", dump_path.c_str());
        }
        // The ring file stays behind for post-mortem reads.
        obs::FlightRecorder::stop();
    }
    return rc;
}
