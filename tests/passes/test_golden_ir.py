"""Golden optimized IR: the pass pipeline's output is pinned byte for byte.

Every app is compiled under the paper's five builds, the seven Fig. 13
ablation configurations and the three whole-optimization switches (74
cells).  Each cell's canonical printed IR must hash to the recorded
SHA-256, and each paper cell must still model the recorded kernel
cycles.  Pipeline speed work (change-driven scheduling, cached
analyses, worklists) must not move a single instruction.

Regenerate the data only for an intended change of the optimized IR::

    PYTHONPATH=src python tests/passes/test_golden_ir.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

import pytest

from repro.bench.builds import CUDA, ablation_configs, build_options
from repro.bench.harness import APPS, SKIP_CUDA
from repro.frontend.driver import CompileOptions, Target, compile_program_uncached
from repro.ir.printer import print_module
from repro.passes.pass_manager import PipelineConfig
from repro.toolchain.fingerprint import deep_recursion

DATA = Path(__file__).parent / "data" / "golden_ir.json"

#: Whole-optimization switches, each turned off on its own.
FLAGS = ("enable_spmdization", "enable_globalization_elim", "enable_inlining")


def golden_cells() -> Iterator[Tuple[str, str, CompileOptions]]:
    """``(cell id, app, options)`` for every golden cell."""
    for app in APPS:
        for build, options in build_options().items():
            if build == CUDA and app in SKIP_CUDA:
                continue
            yield f"{app}|build|{build}", app, options
        for label, pipeline in ablation_configs().items():
            yield (f"{app}|ablation|{label}", app,
                   CompileOptions(Target.OPENMP_NEW, pipeline=pipeline))
        for flag in FLAGS:
            pipeline = PipelineConfig()
            setattr(pipeline, flag, False)
            yield (f"{app}|flag|{flag}", app,
                   CompileOptions(Target.OPENMP_NEW, pipeline=pipeline))


def fingerprint_cell(app: str, options: CompileOptions) -> str:
    """SHA-256 of the cell's canonical optimized IR.  Unlike
    ``module_fingerprint`` it is not salted with the compile cache's
    format version, so a cache format change leaves the data valid."""
    program = APPS[app].build_program(APPS[app].default_size())
    module = compile_program_uncached(program, options).module
    with deep_recursion():
        text = print_module(module, canonical=True)
    return hashlib.sha256(text.encode()).hexdigest()


def paper_cycles(app: str, options: CompileOptions) -> int:
    return APPS[app].run(options, engine="warp").cycles


CELLS = list(golden_cells())
PAPER_CELLS = [cell for cell in CELLS if "|build|" in cell[0]]


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict]:
    return json.loads(DATA.read_text())


def test_golden_covers_every_cell(golden):
    assert len(CELLS) == 74
    assert sorted(golden["fingerprints"]) == sorted(c for c, _, _ in CELLS)
    assert sorted(golden["cycles"]) == sorted(c for c, _, _ in PAPER_CELLS)


@pytest.mark.parametrize("cell,app,options", CELLS, ids=[c for c, _, _ in CELLS])
def test_optimized_ir_matches_golden(golden, cell, app, options):
    assert fingerprint_cell(app, options) == golden["fingerprints"][cell]


@pytest.mark.parametrize(
    "cell,app,options", PAPER_CELLS, ids=[c for c, _, _ in PAPER_CELLS]
)
def test_paper_cell_cycles_match_golden(golden, cell, app, options):
    assert paper_cycles(app, options) == golden["cycles"][cell]


#: Cells whose optimized IR once depended on set iteration order.
HASH_SENSITIVE = ["gridmini|build|New RT (Nightly)",
                  "minifmm|build|Old RT (Nightly)",
                  "testsnap|build|Old RT (Nightly)"]

_CHILD = """
import json, sys
sys.path.insert(0, {tests!r})
from passes.test_golden_ir import CELLS, fingerprint_cell
wanted = set(json.loads(sys.argv[1]))
print(json.dumps({{c: fingerprint_cell(a, o) for c, a, o in CELLS if c in wanted}}))
"""


def _fingerprints_under_hash_seed(seed: str) -> Dict[str, str]:
    src = str(Path(__file__).resolve().parents[2] / "src")
    tests = str(Path(__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD.format(tests=tests), json.dumps(HASH_SENSITIVE)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def test_optimized_ir_independent_of_hash_seed(golden):
    first = _fingerprints_under_hash_seed("1")
    second = _fingerprints_under_hash_seed("2")
    assert first == second
    assert first == {c: golden["fingerprints"][c] for c in HASH_SENSITIVE}


if __name__ == "__main__":
    data = {
        "fingerprints": {c: fingerprint_cell(a, o) for c, a, o in CELLS},
        "cycles": {c: paper_cycles(a, o) for c, a, o in PAPER_CELLS},
    }
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data['fingerprints'])} fingerprints, "
          f"{len(data['cycles'])} cycle counts to {DATA}")
