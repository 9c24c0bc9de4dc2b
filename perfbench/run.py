#!/usr/bin/env python3
"""The census/daemon benchmark (see NOTE.md).

Run from the repository root:

    python3 perfbench/run.py --workload census_cold --seed 1 \\
        --seconds 10 --trace 0

Builds the program and the benchmark from source into
.bench_build/perfbench, runs the workload in its own process, and
prints one JSON object as the last line of standard output:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

    python3 perfbench/run.py --self-test    # the helpers' unit tests
    python3 perfbench/run.py --self-check   # fault-plan sensitivity
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("census_cold", "census_resume", "service_mix", "sparse_census")

# setup_s is the median over the measured process and this many
# set-up-only runs of the same binary, half before the measured run and
# half after it, each pinned to the next CPU in turn.  A census set-up
# is about 0.2 ms of serial work, so one process's figure follows the
# speed of the core it ran on and the moment it ran.
SETUP_RUNS = 16

ROOT = os.getcwd()
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
TESTS = os.path.join(BUILD_DIR, "perfbench_tests")



def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build the benchmark and its tests."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no gpuscale sources under src/; run from the repository root")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "perfbench_tests", "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_process(workload, seed, seconds, trace, setup_only=False, env=None,
                cpu=None):
    """One perfbench process, pinned to `cpu` if given; returns (exit
    code, its result or None)."""
    result = os.path.join(BUILD_DIR, f"result-{os.getpid()}.json")
    if os.path.exists(result):
        os.remove(result)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    # The program logs to stdout; keep ours for the result line.
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    code = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=170,
                          preexec_fn=pin).returncode
    data = None
    if os.path.exists(result):
        with open(result) as f:
            data = json.load(f)
        os.remove(result)
    return code, data


def measure(workload, seed, seconds, trace, env=None):
    """Run one workload; returns (ok, detail dict, reported metrics)."""
    cpus = sorted(os.sched_getaffinity(0))

    def setups(first, count):
        """Set-up times of `count` set-up-only runs; None on a failure."""
        out = []
        for i in range(first, first + count):
            code, extra = run_process(workload, seed, seconds, 0,
                                      setup_only=True, env=env,
                                      cpu=cpus[i % len(cpus)])
            if extra is None or code != 0:
                return None
            out.append(extra["setup_s"])
        return out

    before = [] if trace else setups(0, SETUP_RUNS // 2)
    code, main = run_process(workload, seed, seconds, trace, env=env)
    if main is None:
        return False, None, None
    ok = code == 0 and main["wrong_outputs"] == 0

    if trace:
        metrics = {name: value for name, value in main["layer"].items()}
        return ok, main, metrics

    after = setups(SETUP_RUNS // 2, SETUP_RUNS - SETUP_RUNS // 2)
    if before is None or after is None:
        return False, main, None
    samples = before + [main["setup_s"]] + after
    main["setup_s_samples"] = samples
    metrics = {
        "setup_s": statistics.median(samples),
        "latency_ms_p50": main["latency_ms_p50"],
        "latency_ms_tail": main["latency_ms_tail"]["value"],
        "ops_per_s": main["ops_per_s"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return ok, main, metrics


def units(kind):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def report(workload, seed, seconds, trace):
    ok, detail, metrics = measure(workload, seed, seconds, trace)
    if detail is None or metrics is None:
        log(f"{workload}: the run failed before it produced a result")
        sys.exit(1)
    declared = units("per_layer" if trace else "end_to_end")
    missing = [name for name in declared if name not in metrics]
    if missing:
        log(f"{workload}: no value for {', '.join(missing)}")
        sys.exit(1)
    # The detail line: counts, the tail's percentile and sample count,
    # the seed and what it drove.
    detail.pop("layer", None)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": ok,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    sys.exit(0 if ok else 1)


def self_check(seed):
    """Existing GPUSCALE_FAULTS plans must move the metrics they should."""
    base_env = {k: v for k, v in os.environ.items()
                if k not in ("GPUSCALE_FAULTS", "GPUSCALE_FAULT_SEED")}
    delay_env = dict(base_env, GPUSCALE_FAULTS="sweep.kernel:1:delay:1")
    shed_env = dict(base_env, GPUSCALE_FAULTS="service.admit:0.05:io")
    results = {}

    def run(name, workload, trace, env):
        ok, detail, metrics = measure(workload, seed, 3, trace, env=env)
        if metrics is None:
            log(f"self-check: {name} did not run")
            sys.exit(1)
        results[name] = (ok, detail, metrics)
        return detail, metrics

    clean, clean_m = run("cold", "census_cold", 0, base_env)
    slow, slow_m = run("cold+delay", "census_cold", 0, delay_env)
    _, clean_t = run("cold traced", "census_cold", 1, base_env)
    _, slow_t = run("cold+delay traced", "census_cold", 1, delay_env)
    mix, _ = run("mix", "service_mix", 0, base_env)
    shed, _ = run("mix+shed", "service_mix", 0, shed_env)
    _, mix_t = run("mix traced", "service_mix", 1, base_env)
    _, shed_t = run("mix+shed traced", "service_mix", 1, shed_env)

    sweep_added = slow_t["harness.sweep.cold_ms"] - clean_t["harness.sweep.cold_ms"]
    classify_added = slow_t["scaling.classify_ms"] - clean_t["scaling.classify_ms"]
    checks = {
        "delay raises census_cold latency_ms_p50":
            slow_m["latency_ms_p50"] > 1.5 * clean_m["latency_ms_p50"],
        "delay lands in harness.sweep, not scaling.classify_ms":
            sweep_added > 10 * max(classify_added, 0.1 * clean_t["scaling.classify_ms"]),
        "outputs stay correct under the delay": results["cold+delay"][0],
        "admit plan raises service_mix error_share":
            shed["error_share"] > mix["error_share"] and shed["failed"] > 0,
        "admit plan raises service.shed":
            shed_t["service.shed"] > mix_t["service.shed"],
        "shed requests are refusals, not wrong outputs":
            shed["wrong_outputs"] == 0,
    }
    summary = {
        "census_cold latency_ms_p50": [clean_m["latency_ms_p50"],
                                       slow_m["latency_ms_p50"]],
        "harness.sweep.cold_ms": [clean_t["harness.sweep.cold_ms"],
                                  slow_t["harness.sweep.cold_ms"]],
        "scaling.classify_ms": [clean_t["scaling.classify_ms"],
                                slow_t["scaling.classify_ms"]],
        "service_mix error_share": [mix["error_share"], shed["error_share"]],
        "service.shed": [mix_t["service.shed"], shed_t["service.shed"]],
        "checks": checks,
    }
    print(json.dumps(summary, indent=1, sort_keys=True))
    sys.exit(0 if all(checks.values()) else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_test:
        sys.exit(subprocess.run([TESTS], stdout=sys.stderr).returncode)
    if args.self_check:
        self_check(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    report(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
