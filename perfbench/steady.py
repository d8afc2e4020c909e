#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload ten times in each of two
sets and set each end-to-end metric's spread and drift beside its bound.

    python3 perfbench/steady.py

Run from the root of a pdc checkout. Every run is one `--trace 0` run of
BENCHMARK.json's command for its run_seconds. Set 1 uses seeds 101..110 and
set 2 seeds 201..210; within a set the workloads take turns, one seed at a
time. For every workload and metric it prints each set's median and
quartiles (Python's statistics.quantiles(values, n=4)) and the spread, the
quartile distance as a share of the median, then the drift of set 2's
median from set 1's in the metric's worse direction. A metric fails when
a spread (setup_s excepted: it is one cold set-up per run) or the drift
exceeds its bound, or when the sets fail different shares of their
operations. Exits 1 if anything fails.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 10
SET_SEEDS = (101, 201)


def run_once(spec, workload, seed):
    args = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    print(f"{workload} seed {seed}: "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items()))
          + f" wall={time.monotonic() - t0:.1f}s", file=sys.stderr, flush=True)
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def cell(x):
    return f"{x['median']:>14.5g} [{x['q1']:.5g}, {x['q3']:.5g}]".rjust(34) + f"{x['spread']:>8.3f}"


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    sets = {w: ([], []) for w in workloads}
    for s, first_seed in enumerate(SET_SEEDS):
        for i in range(RUNS):
            for w in workloads:
                sets[w][s].append(run_once(spec, w, first_seed + i))

    ok = True
    for w in workloads:
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets[w]]
        same = shares[0] == shares[1]
        ok = ok and same
        print(f"\n{w}: failed share per set {shares}{'' if same else '  FAIL: differs between sets'}")
        print(f"  {'metric':<14}{'set 1 median [q1, q3]':>34}{'spread':>8}"
              f"{'set 2 median [q1, q3]':>34}{'spread':>8}{'drift':>8}{'bound':>7}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            one, two = (summary([r["metrics"][name]["value"] for r in runs]) for runs in sets[w])
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (two["median"] - one["median"]) / one["median"]
            bad = drift > bound or (name != "setup_s" and max(one["spread"], two["spread"]) > bound)
            ok = ok and not bad
            print(f"  {name:<14}{cell(one)}{cell(two)}{drift:>8.3f}{bound:>7.2f}"
                  f"{'  FAIL' if bad else ''}")
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
