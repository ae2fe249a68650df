"""Compile-time benchmark (``python -m repro.bench timings --smoke``).

Compiles a fixed set of app × build cells through the whole openmp-opt
pipeline, bypassing the compile cache, ``repeats`` times each, and
appends one record to the perf history: the pipeline's wall time, each
pass's wall time per compile, and how many functions the change-driven
passes visited and skipped.  ``make verify`` runs it before
``bench compare --baseline``, so a compile-time regression fails the
same noise-aware gate as the simulator benchmarks.

Wall metrics report the best of the repeats, with the repeats' stddev
widening the gate's tolerance.  The visited/skipped counts are
deterministic (modeled-kind metrics): they move only when the
scheduling itself changes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.bench import record
from repro.bench.builds import NEW_RT, NEW_RT_NIGHTLY, build_options
from repro.bench.harness import APPS
from repro.frontend.driver import compile_program_uncached

#: The smoke cells: the New RT pipeline, nightly and full.
SMOKE_CELLS: Tuple[Tuple[str, str], ...] = (
    ("xsbench", NEW_RT),
    ("gridmini", NEW_RT_NIGHTLY),
)


def measure_cell(app_name: str, build: str, repeats: int = 3) -> Dict[str, Any]:
    """Compile one cell *repeats* times (uncached) and summarize."""
    app = APPS[app_name]
    program = app.build_program(app.default_size())
    options = build_options()[build]
    pipeline: List[float] = []
    per_pass: Dict[str, List[float]] = {}
    visited = skipped = 0
    for _ in range(max(1, repeats)):
        stats = compile_program_uncached(program, options).stats
        pipeline.append(stats.wall_time_s)
        for name, agg in stats.by_pass().items():
            per_pass.setdefault(name, []).append(agg.wall_time_s)
        visited, skipped = stats.functions_visited(), stats.functions_skipped()
    return {
        "app": app_name,
        "build": build,
        "pipeline_s": record.stats(pipeline),
        "passes_s": {name: record.stats(times) for name, times in per_pass.items()},
        "functions_visited": visited,
        "functions_skipped": skipped,
    }


def timings_report(
    cells: Sequence[Tuple[str, str]] = SMOKE_CELLS, repeats: int = 3
) -> Dict[str, Any]:
    meta = record.meta_block()
    return {
        "benchmark": "timings",
        "schema_version": record.SCHEMA_VERSION,
        "meta": meta,
        "config": {"cells": [list(c) for c in cells], "repeats": repeats},
        "cells": [measure_cell(app, build, repeats) for app, build in cells],
    }


def timings_metrics(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """History metrics of a timings report."""
    metrics: Dict[str, Dict[str, Any]] = {}

    def wall(name: str, dist: Dict[str, float]) -> None:
        metrics[name] = record.metric(
            dist["min"], stddev=dist["stddev"], n=dist["n"],
            better=record.BETTER_LOWER, kind=record.KIND_WALL,
        )

    for cell in report["cells"]:
        key = f"{cell['app']}/{cell['build']}"
        wall(f"wall/pipeline_s/{key}", cell["pipeline_s"])
        for name, dist in cell["passes_s"].items():
            wall(f"wall/pass_s/{name}/{key}", dist)
        metrics[f"model/functions_visited/{key}"] = record.metric(
            cell["functions_visited"],
            better=record.BETTER_LOWER, kind=record.KIND_MODEL,
        )
        metrics[f"model/functions_skipped/{key}"] = record.metric(
            cell["functions_skipped"],
            better=record.BETTER_HIGHER, kind=record.KIND_MODEL,
        )
    return metrics


def format_timings(report: Dict[str, Any]) -> str:
    lines = [f"compile timings (best of {report['config']['repeats']}, uncached)"]
    for cell in report["cells"]:
        passes = sorted(cell["passes_s"].items(), key=lambda kv: -kv[1]["min"])
        top = ", ".join(f"{name} {dist['min'] * 1e3:.1f}" for name, dist in passes[:4])
        lines.append(
            f"  {cell['app']:>9s} / {cell['build']:<24s} pipeline "
            f"{cell['pipeline_s']['min'] * 1e3:7.1f} ms  (functions visited "
            f"{cell['functions_visited']}, skipped {cell['functions_skipped']}; "
            f"top passes ms: {top})"
        )
    return "\n".join(lines)
