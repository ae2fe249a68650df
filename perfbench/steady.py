"""Steadiness check: are the end-to-end metrics steady within their bounds?

    python3 perfbench/steady.py --runs 10                # every workload
    python3 perfbench/steady.py --runs 5 --workloads cold-compile --sets 2

Runs the workloads repeatedly, alternating between them, each run with
its own seed, and prints per workload and end-to-end metric the median,
the quartile spread (Q3 - Q1 of ``statistics.quantiles(n=4)``) as a
share of the median, and that share next to the metric's bound in
``BENCHMARK.json``.  A spread above a third of the bound is flagged.
With ``--sets 2`` it repeats the whole schedule and also prints how much
the second set's median moved against the first, in the worse direction.
Each run's host calibration (a fixed loop outside the program) is shown
too, so host-speed drift between sets is visible.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    calib = re.search(r"host calibration ([\d.]+) ms", proc.stderr)
    return result, float(calib.group(1)) if calib else float("nan")


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    args = ap.parse_args(argv)

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    # results[set][workload] -> list of (result, calibration)
    results = [{w: [] for w in args.workloads} for _ in range(args.sets)]
    seed = args.seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in args.workloads:
                res, calib = run_once(w, seed, args.seconds)
                results[s][w].append((res, calib))
                values = " ".join(f"{k}={v['value']:.4g}"
                                  for k, v in res["metrics"].items())
                print(f"set {s + 1} {w} seed {seed}: {res['attempted']} ops, "
                      f"{res['failed']} failed, calibration {calib:.2f} ms, "
                      f"{values}", file=sys.stderr, flush=True)
                seed += 1

    worst = 0.0
    for w in args.workloads:
        print(f"\n{w}")
        print(f"  {'metric':18s} {'set':>3s} {'median':>12s} {'spread':>8s} "
              f"{'bound':>6s} {'spread/bound':>12s} {'moved':>7s}")
        first = None
        for s in range(args.sets):
            runs = results[s][w]
            shares = {r["failed"] / r["attempted"] for r, _ in runs}
            for name, m in metrics.items():
                values = [r["metrics"][name]["value"] for r, _ in runs]
                med = statistics.median(values)
                sp = spread(values) if len(values) >= 2 else 0.0
                ratio = sp / m["bound"]
                moved = ""
                if s == 0:
                    first = first or {}
                    first[name] = med
                else:
                    sign = 1 if m["better"] == "lower" else -1
                    moved = f"{sign * (med - first[name]) / first[name]:+.3f}"
                if name != "setup_s":
                    worst = max(worst, ratio)
                flag = "  <-- above a third of the bound" if ratio > 1 / 3 else ""
                print(f"  {name:18s} {s + 1:3d} {med:12.5g} {sp:8.3f} "
                      f"{m['bound']:6.2f} {ratio:12.2f} {moved:>7s}{flag}")
            calib = statistics.median(c for _, c in runs)
            print(f"  failed shares {sorted(shares)}; host calibration median "
                  f"{calib:.2f} ms")
    print(f"\nworst spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
