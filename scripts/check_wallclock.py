#!/usr/bin/env python3
"""Wall-clock regression gate for the simulation engine.

Runs sim_microbench (google-benchmark JSON output), scores the gated
benchmarks, writes the fresh scores to BENCH_sim.json in the working
directory, and fails if any gated benchmark regressed more than the
allowed fraction against the recorded baseline.

Usage:
  check_wallclock.py <sim_microbench> <baseline.json> [--update] [--out FILE]

With --update the recorded baseline itself is rewritten (run after an
intentional engine change, on the machine that records baselines).

Two kinds of row, each scored on what it is for:

  * Engine microbenches (dispatch, resume, delay chain, mailbox) do a
    fixed amount of queue work per iteration, so they are scored in
    events/sec (google-benchmark items_per_second, higher is better).
  * Whole-stack macros are scored in wall milliseconds per iteration
    (google-benchmark real_time, lower is better). Events/sec would
    punish a change that computes the same result with fewer events.

Wall-clock numbers move with the host, so the gate is deliberately loose
(25% for both kinds): it exists to catch "the engine got structurally
slower" (an accidental per-event allocation, a heap regression), not
scheduler jitter. A row fails when fresh/baseline events/sec, or
baseline/fresh ms per iteration, falls below 0.75.
"""

import json
import subprocess
import sys

# Scored on events/sec. BM_Rng etc. are not gated: they measure other
# things and would only add noise.
RATE_ROWS = [
    "BM_EventDispatch",
    "BM_CoroutineResume",
    "BM_CoroutineDelayChain",
    "BM_MailboxHandoff",
]
# Scored on wall ms per iteration.
TIME_ROWS = [
    "BM_MacroAllreduce64",
    "BM_MacroFaultSweepReplay",
    "BM_MacroRendezvousStream",
]
ALLOWED_REGRESSION = 0.25

MS_PER_UNIT = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def run_bench(bench_path):
    gated = RATE_ROWS + TIME_ROWS
    cmd = [
        bench_path,
        "--benchmark_filter=^(" + "|".join(gated) + ")$",
        "--benchmark_format=json",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    rates, times = {}, {}
    for b in json.loads(proc.stdout).get("benchmarks", []):
        name = b.get("name", "")
        if name in RATE_ROWS and "items_per_second" in b:
            rates[name] = b["items_per_second"]
        elif name in TIME_ROWS and "real_time" in b:
            times[name] = b["real_time"] * MS_PER_UNIT[b.get("time_unit", "ns")]
    missing = [n for n in RATE_ROWS if n not in rates]
    missing += [n for n in TIME_ROWS if n not in times]
    if missing:
        sys.exit(f"FAIL: benchmarks missing from output: {missing}")
    return rates, times


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    flags = [a for a in sys.argv[1:] if a.startswith("--")]
    if len(args) < 2:
        sys.exit(__doc__)
    bench_path, baseline_path = args[0], args[1]
    out_path = "BENCH_sim.json"
    for f in flags:
        if f.startswith("--out="):
            out_path = f.split("=", 1)[1]

    rates, times = run_bench(bench_path)
    payload = {
        "events_per_second": {k: round(v) for k, v in rates.items()},
        "ms_per_iteration": {k: round(v, 3) for k, v in times.items()},
    }
    with open(out_path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {out_path}")

    if "--update" in flags:
        with open(baseline_path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"updated baseline {baseline_path}")
        return

    with open(baseline_path) as f:
        baseline = json.load(f)

    limit = 1.0 - ALLOWED_REGRESSION
    failures = []
    # (name, fresh, baseline, ratio >= 1 means no slower, unit)
    rows = []
    for name in RATE_ROWS:
        base = baseline.get("events_per_second", {}).get(name)
        rows.append((name, rates[name], base,
                     None if base is None else rates[name] / base, "ev/s"))
    for name in TIME_ROWS:
        base = baseline.get("ms_per_iteration", {}).get(name)
        rows.append((name, times[name], base,
                     None if base is None else base / times[name], "ms"))
    for name, fresh, base, ratio, unit in rows:
        if base is None:
            failures.append(f"{name}: no baseline recorded")
            continue
        status = "ok"
        if ratio < limit:
            status = "REGRESSION"
            failures.append(f"{name}: {fresh:,.3f} {unit} vs baseline "
                            f"{base:,.3f} ({ratio:.2f}x, limit {limit:.2f}x)")
        print(f"  {name:28s} {fresh:16,.3f} {unit:4s}  baseline "
              f"{base:16,.3f}  {ratio:5.2f}x  {status}")

    if failures:
        sys.exit("FAIL: wall-clock regression:\n  " + "\n  ".join(failures))
    print(f"OK: no wall-clock regression beyond {ALLOWED_REGRESSION:.0%} "
          "of baseline")


if __name__ == "__main__":
    main()
