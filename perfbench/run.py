"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload warm-newrt --seed 1 --seconds 15 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  See ``perfbench/README.md`` for what each workload and
metric means.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # start of set-up

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where traced runs write their Chrome trace; ignored by git.
OUT_DIR = ROOT / ".perfbench"
#: Set-up is repeated this many times; setup_s reports the median.
SETUP_REPEATS = 3


def pin_environment(workdir: Path) -> None:
    """Drop every inherited REPRO_* knob and pin the ones that change
    what is measured, so the caller's shell cannot skew a run."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update({
        "REPRO_SIM_ENGINE": "warp",
        "REPRO_WARP_IF_CONVERT": "1",
        "REPRO_SIM_JOBS": "1",
        "REPRO_JOBS": "1",
        "REPRO_CACHE": "1",
        "REPRO_CACHE_DISK": "1",
        "REPRO_CACHE_DIR": str(workdir / "cache"),
        "REPRO_CACHE_SIZE": "128",
        "REPRO_TRACE": "0",
        "REPRO_FAULTS": "",
        "REPRO_SANITIZE": "0",
        "REPRO_WATCHDOG_S": "0",
        "REPRO_SERVE_WORKERS": "1",
        "REPRO_SERVE_QUEUE": "16",
        "REPRO_SERVE_MAX_INFLIGHT": "0",
        "REPRO_SERVE_RETRIES": "2",
        "REPRO_SERVE_BACKOFF_S": "0",
        "REPRO_SERVE_BREAKER_THRESHOLD": "5",
        "REPRO_SERVE_DRAIN_S": "0",
        "REPRO_BENCH_HISTORY_DIR": str(workdir / "history"),
    })


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def per_kind_median(records, value) -> Dict[str, float]:
    by_kind: Dict[str, List[float]] = {}
    for r in records:
        v = value(r)
        if v is not None:
            by_kind.setdefault(r.kind, []).append(v)
    return {k: statistics.median(vs) for k, vs in by_kind.items()}


def mean_over_kinds(per_kind: Dict[str, float]) -> float:
    return sum(per_kind.values()) / len(per_kind) if per_kind else 0.0


#: The end-to-end metrics: name, unit, which direction is better.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("modeled_kcycles", "kcycles", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def end_to_end(wl, records, elapsed: float, setup_s: float) -> dict:
    """Times are in reference-host seconds (see host.py)."""
    ok = [r for r in records if r.ok]
    latency = per_kind_median(ok, lambda r: r.latency_s * r.scale)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(ok) / elapsed,
        "latency_p50_s": geomean(list(latency.values())) if latency else 0.0,
        "modeled_kcycles": sum(k.counters["cycles"] for k in wl.kinds) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: (values[name], unit) for name, unit, _ in END_TO_END}


def per_layer(wl, rec, plain, traced, serve_counts, calibration_s) -> dict:
    """Every per-layer metric of BENCHMARK.json (0 where the workload
    does not enter the layer)."""
    layer_by_op = rec.layer_time_by_op()
    self_by_op: Dict[int, float] = {}
    for span, own in rec.self_times():
        if span.name == "toolchain.compile":
            self_by_op[span.op] = self_by_op.get(span.op, 0.0) + own
    by_kind: Dict[str, Dict[str, List[float]]] = {}
    for op_id, info in rec.ops.items():
        layers = dict(layer_by_op.get(op_id, {}))
        if op_id in self_by_op:
            layers["toolchain.cache_store"] = self_by_op[op_id]
        for layer, t in layers.items():
            by_kind.setdefault(layer, {}).setdefault(info.kind, []).append(t)

    def layer_s(layer: str) -> float:
        kinds = by_kind.get(layer, {})
        return mean_over_kinds({k: statistics.median(v) for k, v in kinds.items()})

    timed = [info for info in rec.ops.values() if info.phase == "timed"]
    launch_s = sum(layer_by_op.get(op_id, {}).get("vgpu.launch", 0.0)
                   for op_id, info in rec.ops.items() if info.phase == "timed")
    insts = sum(info.sim_insts for info in timed)
    fallbacks = {}
    for info in timed:
        fallbacks.setdefault(info.kind, []).append(info.scalar_fallbacks)

    def total(counter: str) -> float:
        return sum(k.counters.get(counter, 0) for k in wl.kinds)

    runs = total("passes.pass_runs")
    m = {
        "apps.build_program_s": (layer_s("apps.build_program"), "s"),
        "apps.prepare_s": (layer_s("apps.prepare"), "s"),
        "apps.verify_s": (layer_s("apps.verify"), "s"),
        "frontend.lower_s": (layer_s("frontend.lower"), "s"),
        "ir.verify_s": (layer_s("ir.verify"), "s"),
        "ir.insts_lowered": (total("ir.insts_lowered"), "count"),
        "ir.insts_optimized": (total("ir.insts_optimized"), "count"),
        "passes.pipeline_s": (layer_s("passes.pipeline"), "s"),
        "passes.rounds": (total("passes.rounds"), "count"),
        "passes.pass_runs": (runs, "count"),
        "passes.changed_ratio": (total("passes.changed_runs") / runs if runs else 0.0,
                                 "ratio"),
    }
    for name in PIPELINE_PASSES:
        m[f"passes.{name}_s"] = (layer_s(f"passes.{name}"), "s")
    m.update({
        "toolchain.fingerprint_s": (layer_s("toolchain.fingerprint"), "s"),
        "toolchain.cache_store_s": (layer_s("toolchain.cache_store"), "s"),
        "vgpu.load_s": (layer_s("vgpu.load"), "s"),
        "vgpu.decode_s": (layer_s("vgpu.decode"), "s"),
        "vgpu.launch_s": (layer_s("vgpu.launch"), "s"),
        "vgpu.sim_minsts_per_s": (insts / launch_s / 1e6 if launch_s else 0.0,
                                  "Minst/s"),
        "vgpu.reset_s": (layer_s("vgpu.reset"), "s"),
        "vgpu.kinsts": (total("vgpu.insts") / 1e3, "kinst"),
        "vgpu.scalar_fallback_launches": (
            sum(statistics.median(v) for v in fallbacks.values()), "count"),
    })
    calls = {cat: sum(k.summary["runtime_calls"].get(cat, 0) for k in wl.kinds)
             for cat in RUNTIME_CATEGORIES}
    m["runtime.calls"] = (sum(calls.values()), "count")
    for cat in RUNTIME_CATEGORIES:
        m[f"runtime.calls.{cat}"] = (calls[cat], "count")
    m.update({
        "runtime.barriers_aligned": (
            sum(k.summary["barriers"]["aligned"] for k in wl.kinds), "count"),
        "runtime.barriers_unaligned": (
            sum(k.summary["barriers"]["unaligned"] for k in wl.kinds), "count"),
        "runtime.global_fallback_mallocs": (
            sum(k.summary["global_fallback"]["mallocs"] for k in wl.kinds), "count"),
    })
    # Serve figures come from the untraced half: no shim in the way.
    m.update({
        "serve.dispatch_s": (mean_over_kinds(per_kind_median(
            plain, lambda r: r.extra.get("serve.dispatch"))), "s"),
        "serve.overhead_s": (mean_over_kinds(per_kind_median(
            plain, lambda r: r.extra.get("serve.overhead"))), "s"),
        "serve.pool_reuse_ratio": (serve_counts.get("reuse_ratio", 0.0), "ratio"),
        "serve.compiles": (serve_counts.get("compiles", 0), "count"),
        "host.calibration_s": (calibration_s, "s"),
    })
    # In reference-host seconds, so host drift between the halves cancels.
    plain_lat = per_kind_median([r for r in plain if r.ok],
                                lambda r: r.latency_s * r.scale)
    traced_lat = per_kind_median([r for r in traced if r.ok],
                                 lambda r: r.latency_s * r.scale)
    common = [k for k in plain_lat if k in traced_lat]
    m["bench.trace_overhead_s"] = (
        sum(traced_lat[k] - plain_lat[k] for k in common) / len(common)
        if common else 0.0, "s")
    return m


def print_self_times(rec, out) -> None:
    """Per phase and layer: ops that entered the layer, and the mean
    total and self time per such op."""
    rows: Dict[tuple, list] = {}
    for span, own in rec.self_times():
        row = rows.setdefault((rec.ops[span.op].phase, span.name), [set(), 0.0, 0.0])
        row[0].add(span.op)
        row[1] += span.end - span.start
        row[2] += own
    print(f"{'phase':6s} {'layer':32s} {'ops':>5s} {'total ms/op':>12s} "
          f"{'self ms/op':>12s}", file=out)
    for (phase, layer), (ops, total, own) in sorted(
            rows.items(), key=lambda kv: (kv[0][0], -kv[1][2] / len(kv[1][0]))):
        n = len(ops)
        print(f"{phase:6s} {layer:32s} {n:5d} {total / n * 1e3:12.3f} "
              f"{own / n * 1e3:12.3f}", file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    pin_environment(workdir)
    sys.path.insert(0, str(SRC))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    import host
    import workloads
    from spans import NullRecorder, Recorder, patched

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.make_workload(args.workload, workdir)
    rec = Recorder() if args.trace else NullRecorder()
    import_s = time.perf_counter() - T0
    calibration = [host.calibration()]
    setups = []  # (raw seconds, reference-host seconds)
    try:
        for _ in range(SETUP_REPEATS):
            wl.meter = host.Meter()
            start = time.perf_counter()
            if args.trace:
                with patched(rec):
                    wl.setup(rec)
            else:
                wl.setup(NullRecorder())
            took = time.perf_counter() - start - sum(wl.meter.samples)
            setups.append((took, took * wl.meter.mean_scale()))
            calibration += wl.meter.samples
        setups.sort()
        raw_setup, ref_setup = setups[len(setups) // 2]
        gc.collect()
        serve = getattr(wl, "service", None)
        before = (serve.stats.compiles, serve.pool.stats.reuses,
                  serve.pool.stats.builds) if serve else None
        if args.trace:
            half = args.seconds / 2
            plain = wl.run_phase(NullRecorder(), half, args.seed)[0]
            with patched(rec):
                traced = wl.run_phase(rec, half, args.seed + 1)[0]
            records = plain + traced
        else:
            records, elapsed, raw_elapsed = wl.run_phase(
                NullRecorder(), args.seconds, args.seed)
        serve_counts = {}
        if serve:
            reuses = serve.pool.stats.reuses - before[1]
            builds = serve.pool.stats.builds - before[2]
            serve_counts = {"compiles": serve.stats.compiles - before[0],
                            "reuse_ratio": reuses / max(1, reuses + builds)}
    finally:
        wl.close()

    failed = [r for r in records if not r.ok]
    for r in failed[:5]:
        print(f"perfbench: failed op: {r.error}", file=sys.stderr)
    calibration_s = sorted(calibration)[len(calibration) // 2]
    if args.trace:
        metrics = per_layer(wl, rec, plain, traced, serve_counts, calibration_s)
        print_self_times(rec, sys.stdout)
        trace_path = OUT_DIR / f"trace-{args.workload}.json"
        trace_path.write_text(json.dumps(rec.chrome_trace()))
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")
    else:
        scale0 = host.REFERENCE_S / calibration[0]
        metrics = end_to_end(wl, records, elapsed, import_s * scale0 + ref_setup)
        ok = [r for r in records if r.ok]
        raw_latency = per_kind_median(ok, lambda r: r.latency_s)
        print(f"perfbench: {args.workload}: {len(records)} ops; raw (unscaled): "
              f"setup {import_s + raw_setup:.3f} s, {len(ok) / raw_elapsed:.3f} ops/s, "
              f"latency {geomean(list(raw_latency.values())):.5f} s; "
              f"host calibration {calibration_s * 1e3:.2f} ms", file=sys.stderr)
    print(json.dumps({
        "correct": all(r.correct for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


#: The pipeline's passes (PipelineStats.by_pass() names), in run order.
PIPELINE_PASSES = (
    "internalize", "cleanup", "openmp-opt-spmdization",
    "openmp-opt-globalization", "inline", "mem2reg", "gvn", "licm",
    "openmp-opt-value-prop", "openmp-opt-dse", "openmp-opt-barrier-elim",
    "strip-assumes",
)
#: The runtime-call categories of section III (profile_summary() keys).
RUNTIME_CATEGORIES = (
    "icv_query", "parallel_region", "shared_stack", "sync", "target_init",
    "thread_state", "worksharing",
)

if __name__ == "__main__":
    sys.exit(main())
