#!/usr/bin/env python3
"""Repository benchmark for the VMMC-on-Myrinet simulator.

Builds perfbench_driver from the checkout's own sources (CMake, into
.bench_build/perfbench), runs one workload again and again for --seconds of
wall time, and prints the metrics BENCHMARK.json names, with their units.
Every run of the driver sets the workload up from scratch and measures one
fixed, seeded sequence of ops on the serial simulator.

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced driver runs and reports the per-layer metrics, which come from
the spans and counters of the traced runs. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. Lines before
it are a human-readable report: sample counts, the simulated-result digest
and, when traced, per-layer self times. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-traces")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("pingpong", "allreduce64", "bulk-lossy")

MIN_RUNS = 3           # driver runs per kind (untraced / traced) at least
MAX_RUNS = 400
RUN_BUDGET_S = 170     # all driver runs of one invocation, build excluded
BUILD_TIMEOUT_S = 880


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code):
    log("perfbench: " + msg)
    sys.exit(code)


def run_checked(cmd, timeout):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        log(proc.stdout)
        fail("command failed: " + " ".join(cmd), 2)


def build():
    """Configures once, then brings the driver up to date."""
    for need in (os.path.join(ROOT, "src", "CMakeLists.txt"),
                 os.path.join(ROOT, "include", "vmmc", "params.h")):
        if not os.path.exists(need):
            fail("simulator sources not found (missing %s)" % os.path.relpath(need, ROOT), 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    started = time.monotonic()
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - started)
    run_checked(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
                 "-j", jobs], max(remaining, 60))
    return time.monotonic() - started


def run_driver(workload, seed, traced, timeout):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed)]
    if traced:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace", "--trace-out",
                os.path.join(TRACE_DIR, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("driver run exceeded %.0f s: %s" % (timeout, " ".join(cmd)), 1)
    if proc.returncode != 0:
        log(proc.stderr)
        fail("driver failed (exit %d): %s" % (proc.returncode, " ".join(cmd)), 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sim_signature(run):
    """Everything a run reports on the simulated clock."""
    lat = run["lat"]
    return (run["digest"], run["attempted"], run["failed"], run["measure_events"],
            run["sim_span_ns"], lat["n"], lat["p50_us"], lat["p99_us"])


def median(values):
    return statistics.median(values) if values else 0.0


def spread(values):
    return "%.4g..%.4g" % (min(values), max(values)) if values else "-"


def end_to_end(runs):
    first = runs[0]
    walls = [r["measure_wall_s"] for r in runs]
    setups = [r["setup_wall_s"] for r in runs]
    rss = [r["peak_rss_kb"] / 1024.0 for r in runs]
    lat = first["lat"]
    values = {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "peak_rss_mb": median(rss),
        "sim_span_ms": first["sim_span_ns"] / 1e6,
        "sim_lat_us_p50": lat["p50_us"],
        "sim_lat_us_p99": 0.0 if lat["p99_missing"] else lat["p99_us"],
        "ok_frac": 1.0 - first["failed"] / float(first["attempted"]),
    }
    notes = {
        "wall_s": "median of %d runs, %s" % (len(walls), spread(walls)),
        "setup_s": "median of %d runs, %s" % (len(setups), spread(setups)),
        "peak_rss_mb": "median of %d runs, %s" % (len(rss), spread(rss)),
        "sim_span_ms": "simulated",
        "sim_lat_us_p50": "simulated, n=%d" % lat["n"],
        "sim_lat_us_p99": ("simulated, n=%d" % lat["n"]) +
                          (", MISSING: under 10 samples beyond p99" if lat["p99_missing"] else ""),
        "ok_frac": "fail_frac %.6g (%d of %d ops failed)" % (
            first["failed"] / float(first["attempted"]), first["failed"], first["attempted"]),
    }
    return values, notes


def per_layer(plain, traced, names):
    first = traced[0]
    values, notes = {}, {}
    wall_plain = median([r["measure_wall_s"] for r in plain])
    wall_traced = median([r["measure_wall_s"] for r in traced])
    for name, unit in names:
        if name == "sim.wall_ns_per_event":
            values[name] = wall_plain * 1e9 / max(first["measure_events"], 1)
            notes[name] = "untraced wall_s / sim.events"
        elif name == "trace.overhead_frac":
            values[name] = wall_traced / wall_plain - 1.0
            notes[name] = "traced %.4g s vs untraced %.4g s" % (wall_traced, wall_plain)
        else:
            entry = first["layer"][name]
            if unit == "s":  # wall-clock setup spans: median over traced runs
                values[name] = median([r["layer"][name]["value"] for r in traced])
                notes[name] = "median of %d traced runs" % len(traced)
            else:
                values[name] = entry["value"]
                notes[name] = ""
            if entry["n"] == 0:
                notes[name] = "n=0, not exercised by this workload"
            elif entry["n"] > 0:
                notes[name] = "n=%d" % entry["n"] + (
                    ", MISSING: under 10 samples beyond p99" if entry["missing"] else "")
    unknown = set(first["layer"]) - {n for n, _ in names}
    if unknown:
        fail("driver reports metrics BENCHMARK.json does not list: %s" % sorted(unknown), 1)
    return values, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_s = build()

    kinds = (False, True) if args.trace else (False,)
    runs = []
    started = time.monotonic()
    while len(runs) < MAX_RUNS:
        elapsed = time.monotonic() - started
        if (elapsed >= args.seconds and len(runs) >= MIN_RUNS * len(kinds)
                and len(runs) % len(kinds) == 0):
            break
        traced = kinds[len(runs) % len(kinds)]
        runs.append(run_driver(args.workload, args.seed, traced,
                               max(RUN_BUDGET_S - elapsed, 10)))
    elapsed = time.monotonic() - started

    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    signatures = {sim_signature(r) for r in runs}
    deterministic = len(signatures) == 1
    bad_data = sum(r["bad_data"] for r in runs)
    correct = deterministic and bad_data == 0

    if args.trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values, notes = per_layer(plain, traced, names)
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values, notes = end_to_end(plain)

    first = runs[0]
    print("perfbench %s seed=%d trace=%d: %d driver runs in %.1f s (build %.1f s)"
          % (args.workload, args.seed, args.trace, len(runs), elapsed, build_s))
    print("  sim digest %s, %s across runs" % (
        first["digest"], "identical" if deterministic else "DIFFERENT"))
    print("  ops per run: %d attempted, %d failed, %d with wrong data"
          % (first["attempted"], first["failed"], first["bad_data"]))
    for name, unit in names:
        print("  %-26s %16.6f %-9s %s" % (name, values[name], unit, notes.get(name, "")))
    if args.trace:
        print("  self time by layer (first traced run; sim us / wall ms):")
        for layer, t in sorted(traced[0]["self_time"].items()):
            print("    %-6s %7d spans  sim %14.1f (self %14.1f)  wall %10.1f (self %10.1f)"
                  % (layer, t["spans"], t["sim_us"], t["self_sim_us"], t["wall_ms"],
                     t["self_wall_ms"]))
        print("  spans written to %s" % os.path.relpath(TRACE_DIR, ROOT))

    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
