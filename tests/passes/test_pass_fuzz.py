"""Pass-ordering fuzz: any subset/order of passes must preserve both
structural validity (verifier) and observable behaviour (execution),
and change-driven scheduling must optimize exactly like a full sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import verify_module
from repro.ir.cfg import DominatorTree, predecessors
from repro.ir.instructions import PtrAdd
from repro.ir.printer import print_module
from repro.passes import cleanup as cleanup_mod
from repro.passes.barrier_elim import BarrierEliminationPass
from repro.passes.cleanup import CleanupPass
from repro.passes.globalization import GlobalizationEliminationPass
from repro.passes.gvn import GVNPass, LICMPass
from repro.passes.inline import InlinePass
from repro.passes.internalize import InternalizePass
from repro.passes.mem2reg import PromoteAllocasPass
from repro.passes.pass_manager import (
    ChangeTracker,
    PassContext,
    PassManager,
    PipelineConfig,
)
from repro.passes.spmdization import SPMDizationPass
from repro.passes.strip_assumes import StripAssumesPass
from repro.passes.value_prop import DeadStateStoreElimination, ValuePropagationPass
from repro.runtime.interface import NEW_RUNTIME, OLD_RUNTIME
from tests.runtime.conftest import (
    add_saxpy_body,
    add_spmd_kernel,
    build_runtime_module,
    run_saxpy,
)

PASS_FACTORIES = [
    InternalizePass,
    CleanupPass,
    SPMDizationPass,
    GlobalizationEliminationPass,
    InlinePass,
    PromoteAllocasPass,
    GVNPass,
    LICMPass,
    ValuePropagationPass,
    DeadStateStoreElimination,
    BarrierEliminationPass,
    StripAssumesPass,
]


class TestPassOrderFuzz:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, len(PASS_FACTORIES) - 1),
                    min_size=1, max_size=10))
    def test_random_pass_sequences_preserve_semantics(self, indices):
        module = build_runtime_module(NEW_RUNTIME)
        body = add_saxpy_body(module)
        add_spmd_kernel(module, NEW_RUNTIME, body)

        ctx = PassContext(config=PipelineConfig(verify_each=True))
        passes = [PASS_FACTORIES[i]() for i in indices]
        PassManager(passes, ctx).run(module)
        verify_module(module)

        # Assumes may still be present; run without debug checking.
        _, out, expected = run_saxpy(module, n=100, teams=2, threads=8,
                                     debug_checks=False)
        assert np.allclose(out, expected), [p.name for p in passes]

    @settings(max_examples=8, deadline=None)
    @given(st.permutations(list(range(len(PASS_FACTORIES)))))
    def test_full_permutations(self, order):
        module = build_runtime_module(NEW_RUNTIME)
        body = add_saxpy_body(module)
        add_spmd_kernel(module, NEW_RUNTIME, body)
        ctx = PassContext(config=PipelineConfig(verify_each=True))
        PassManager([PASS_FACTORIES[i]() for i in order], ctx).run(module)
        _, out, expected = run_saxpy(module, n=64, teams=1, threads=8,
                                     debug_checks=False)
        assert np.allclose(out, expected)

    def test_pipeline_is_idempotent(self):
        """Running the full pipeline twice changes nothing further."""
        from repro.ir import print_module
        from repro.passes import run_openmp_opt_pipeline

        module = build_runtime_module(NEW_RUNTIME)
        body = add_saxpy_body(module)
        add_spmd_kernel(module, NEW_RUNTIME, body)
        run_openmp_opt_pipeline(module, PipelineConfig())
        first = print_module(module)
        run_openmp_opt_pipeline(module, PipelineConfig())
        assert print_module(module) == first


# -- change-driven scheduling vs a forced full sweep ---------------------------
#
# The reference mode below exists only here: every pass visits every
# function, analyses are recomputed on each request, and cleanup
# re-sweeps whole functions until nothing changes (the pre-worklist
# algorithm).  Any sequence of passes must leave identical IR in both.


def _sweep_instcombine(func):
    changed = False
    again = True
    while again:
        again = False
        for block in func.blocks:
            for inst in list(block.instructions):
                if inst.parent is None:
                    continue
                replacement = cleanup_mod.simplify_instruction(inst)
                if replacement is not None and replacement is not inst:
                    inst.replace_all_uses_with(replacement)
                    if not inst.uses and not inst.is_terminator:
                        inst.erase_from_parent()
                    again = changed = True
                    continue
                if isinstance(inst, PtrAdd):
                    combined = cleanup_mod._combine_ptradd_chain(inst)
                    if combined is not None:
                        block.insert_before(inst, combined)
                        inst.replace_all_uses_with(combined)
                        inst.erase_from_parent()
                        again = changed = True
    return changed


def _sweep_dce(func):
    changed = False
    again = True
    while again:
        again = False
        for block in func.blocks:
            for inst in reversed(list(block.instructions)):
                if inst.parent is not None and cleanup_mod._is_removable_dead(inst):
                    inst.erase_from_parent()
                    again = changed = True
    return changed


def _sweep_cleanup_function(func, ctx=None):
    changed = False
    while True:
        local = _sweep_instcombine(func)
        local |= _sweep_dce(func)
        local |= cleanup_mod.run_simplify_cfg(func)
        changed |= local
        if not local:
            return changed


def _full_sweep_run_per_function(self, name, module, body, fixpoint=False):
    changed = False
    for func in list(module.defined_functions()):
        changed |= body(func)
    return changed


def _force_full_sweep(patch):
    """Never skip a function, never reuse an analysis, re-sweep cleanup."""
    patch.setattr(ChangeTracker, "run_per_function", _full_sweep_run_per_function)
    patch.setattr(ChangeTracker, "predecessors", lambda self, f: predecessors(f))
    patch.setattr(ChangeTracker, "dominator_tree", lambda self, f: DominatorTree(f))
    patch.setattr(cleanup_mod, "cleanup_function", _sweep_cleanup_function)


def _saxpy_module(runtime):
    module = build_runtime_module(runtime)
    body = add_saxpy_body(module)
    add_spmd_kernel(module, runtime, body)
    return module


def _optimized_ir(runtime, run, full_sweep):
    module = _saxpy_module(runtime)
    with pytest.MonkeyPatch.context() as patch:
        if full_sweep:
            _force_full_sweep(patch)
        run(module)
    verify_module(module)
    return print_module(module, canonical=True)


class TestChangeDrivenEqualsFullSweep:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([NEW_RUNTIME, OLD_RUNTIME]),
        st.lists(st.integers(0, len(PASS_FACTORIES) - 1), min_size=1, max_size=16),
    )
    def test_random_pass_sequences(self, runtime, indices):
        def run(module):
            passes = [PASS_FACTORIES[i]() for i in indices]
            PassManager(passes, PassContext(config=PipelineConfig())).run(module)

        assert _optimized_ir(runtime, run, False) == _optimized_ir(
            runtime, run, True
        ), [PASS_FACTORIES[i].name for i in indices]

    @pytest.mark.parametrize("runtime", [NEW_RUNTIME, OLD_RUNTIME],
                             ids=["newrt", "oldrt"])
    @pytest.mark.parametrize("config", [PipelineConfig(), PipelineConfig.nightly()],
                             ids=["full", "nightly"])
    def test_whole_pipeline(self, runtime, config):
        from repro.passes import run_openmp_opt_pipeline

        def run(module):
            run_openmp_opt_pipeline(module, config)

        assert _optimized_ir(runtime, run, False) == _optimized_ir(runtime, run, True)


def _golden_cells():
    from tests.passes.test_golden_ir import CELLS

    return CELLS


@pytest.mark.parametrize("cell,app,options", _golden_cells(),
                         ids=[c for c, _, _ in _golden_cells()])
def test_full_sweep_matches_golden_app_cells(cell, app, options):
    """On every golden app cell, the full-sweep reference optimizes to
    the recorded IR too (the golden test pins the change-driven side)."""
    import json

    from tests.passes.test_golden_ir import DATA, fingerprint_cell

    with pytest.MonkeyPatch.context() as patch:
        _force_full_sweep(patch)
        fingerprint = fingerprint_cell(app, options)
    assert fingerprint == json.loads(DATA.read_text())["fingerprints"][cell]
