#!/usr/bin/env python3
"""Is the benchmark steady enough to be believed?

Two checks, both driven by BENCHMARK.json at the repo root (the command,
the workloads, the end-to-end metrics and their bounds):

  stability.py repeat [--seed N]
      The full benchmark twice on one build and one seed: every
      end-to-end metric of every workload, both values, their relative
      difference and the bound. Fails if a pair disagrees beyond its
      bound, if an operation failed, if `code_speedup_gm` or a result
      digest differs between the two runs, or if the traced run's
      clock-free counters do not repeat exactly.

  stability.py spread [--seeds N] [--workload NAME]
      N seeds per workload (default 10): for each end-to-end metric the
      distance between the first and third quartile of its N values
      (statistics.quantiles(values, n=4)) as a share of their median,
      next to the bound. Fails if a spread other than `setup_s`'s
      exceeds its bound; warns above a third of it.

Run from the repo root. Builds once (through the first run) and then
reuses the build.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def run(workload, seed, trace):
    """One benchmark run; returns (result object, digests by name)."""
    cmd = SPEC["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"{workload} seed {seed} trace {trace}: exit status {proc.returncode}")
    digests = dict(re.findall(r"^  digest (\w+): ([0-9a-f]{16})$", proc.stdout, re.M))
    return json.loads(lines[-1]), digests


def repeat(args):
    failures = []
    print(f"{'workload':15} {'metric':16} {'first':>14} {'second':>14} {'diff':>8} {'bound':>6}")
    for w in (x["name"] for x in SPEC["workloads"]):
        results = [run(w, args.seed, 0) for _ in range(2)]
        traced = [run(w, args.seed, 1) for _ in range(2)]
        for (res, _), label in zip(results + traced, ["first", "second", "first traced", "second traced"]):
            if not res["correct"] or res["failed"]:
                failures.append(f"{w}: {label} run: correct={res['correct']} failed={res['failed']}")
        for name, spec in BOUNDS.items():
            a, b = (r["metrics"][name]["value"] for r, _ in results)
            diff = abs(a - b) / a
            exact = name == "code_speedup_gm"
            ok = a == b if exact else diff <= spec["bound"]
            print(f"{w:15} {name:16} {a:14.6g} {b:14.6g} {diff:8.2%} {'exact' if exact else format(spec['bound'], '6.0%')}"
                  f"{'' if ok else '  <-- disagrees'}")
            if not ok:
                failures.append(f"{w}: {name} {a} vs {b}")
        if results[0][1].get("result") != results[1][1].get("result"):
            failures.append(f"{w}: result digests differ: {results[0][1]} vs {results[1][1]}")
        if traced[0][1] != traced[1][1]:
            failures.append(f"{w}: traced digests differ: {traced[0][1]} vs {traced[1][1]}")
        if traced[0][1].get("result") != results[0][1].get("result"):
            failures.append(f"{w}: the traced run's result digest differs from the end-to-end run's")
    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


def spread(args):
    failures = []
    workloads = [w["name"] for w in SPEC["workloads"] if args.workload in (None, w["name"])]
    print(f"{'workload':15} {'metric':16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for w in workloads:
        values = {name: [] for name in BOUNDS}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res, _ = run(w, seed, 0)
            if not res["correct"] or res["failed"]:
                failures.append(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
            for name in BOUNDS:
                values[name].append(res["metrics"][name]["value"])
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            share, bound = (q3 - q1) / med, BOUNDS[name]["bound"]
            note = ""
            if name != "setup_s" and share > bound:
                note = "  <-- over its bound"
                failures.append(f"{w}: {name} spread {share:.1%} over bound {bound:.0%}")
            elif name != "setup_s" and share > bound / 3:
                note = "  (over a third of its bound)"
            print(f"{w:15} {name:16} {med:14.6g} {q1:14.6g} {q3:14.6g} {share:8.2%} {bound:6.0%}{note}")
    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("repeat")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=repeat)
    p = sub.add_parser("spread")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload")
    p.set_defaults(func=spread)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
