"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload briefly, untraced and traced, and asserts that

* the end-to-end metric names, units and directions that ``run.py``
  defines and emits equal ``BENCHMARK.json``'s, and every op passed its
  checks;
* the traced output carries every per-layer metric of ``BENCHMARK.json``
  with its unit;
* the runs left the repository tree as they found it: ``git status`` is
  unchanged, no ``.repro-cache/`` or ``.repro-bench/`` appeared, and the
  run's private scratch directory is gone.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, f"{workload} trace={trace}:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tree_state():
    """What a run must not change: git's view of the tree (when this is a
    git checkout) and the program's default output locations."""
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        status = None
    watched = [ROOT / ".repro-cache", ROOT / ".repro-bench"]
    scratch = sorted(p.name for p in (ROOT / ".perfbench").glob("run-*"))
    return status, [(str(p), p.exists()) for p in watched], scratch


def check_metrics(got: dict, declared: list, what: str) -> None:
    names = {m["name"]: m["unit"] for m in declared}
    units = {k: v["unit"] for k, v in got["metrics"].items()}
    assert units == names, f"{what}: metrics differ from BENCHMARK.json: " \
        f"missing {sorted(set(names) - set(units))}, " \
        f"extra {sorted(set(units) - set(names))}, " \
        f"units {[(k, units[k], names[k]) for k in units if k in names and units[k] != names[k]]}"
    for k, v in got["metrics"].items():
        assert isinstance(v["value"], (int, float)), f"{what}: {k} is not a number"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from run import END_TO_END  # imports no program code

    declared = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    assert list(END_TO_END) == declared, \
        f"run.py's end-to-end metrics {END_TO_END} != BENCHMARK.json's {declared}"
    before = tree_state()
    for w in (w["name"] for w in bench["workloads"]):
        plain = run(w, 0)
        check_metrics(plain, bench["end_to_end"], f"{w} untraced")
        for k, _, _ in END_TO_END:
            assert plain["metrics"][k]["value"] > 0, f"{w}: {k} reads 0"
        traced = run(w, 1)
        check_metrics(traced, bench["per_layer"], f"{w} traced")
        for res in (plain, traced):
            assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, \
                f"{w}: {res['failed']} of {res['attempted']} ops failed"
        print(f"{w}: ok ({plain['attempted']} + {traced['attempted']} ops)")
    after = tree_state()
    assert after == before, f"the runs changed the tree:\n{before}\n{after}"
    print("smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
