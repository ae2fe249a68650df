"""Overhead-counter category integrity (paper §III attribution).

Every runtime entry point of both device runtimes must map to exactly
one overhead category, so the per-construct counters (and everything
built on them: trace export, ``bench micro``, ``LaunchResult.
profile_summary``) can never silently drop runtime cost.  The pinning
works in both directions: a new runtime function added without a
category fails here, and a category entry naming a function the
runtime no longer defines fails too.
"""

from __future__ import annotations

import pytest

from repro.runtime.libnew import NEW_RT_OVERHEAD_CATEGORIES, NEW_RUNTIME_API
from repro.runtime.libold import OLD_RT_OVERHEAD_CATEGORIES, OLD_RUNTIME_API
from repro.trace.categories import (
    CATEGORY_NAMES,
    OVERHEAD_CATEGORIES,
    runtime_category,
)

#: The paper's §III vocabulary; adding a category is fine, but do it
#: here deliberately (docs, trace export and bench micro key on it).
EXPECTED_CATEGORIES = (
    "icv_query",
    "parallel_region",
    "shared_stack",
    "sync",
    "target_init",
    "thread_state",
    "worksharing",
)

#: Prefixes that identify runtime entry points among a compiled
#: module's defined functions (``__omp_outlined*`` are app outlines).
RUNTIME_PREFIXES = ("__kmpc_", "omp_", "__omp_")


def _defined_runtime_functions(runtime: str):
    from repro.bench.micro import build_micro_program, runtime_options
    from repro.toolchain.service import ToolchainSession

    compiled = ToolchainSession().compile(
        build_micro_program([1]), runtime_options(runtime)
    )
    return sorted(
        name
        for name, fn in compiled.module.functions.items()
        if fn.blocks
        and name.startswith(RUNTIME_PREFIXES)
        and not name.startswith("__omp_outlined")
    )


class TestCategoryVocabulary:
    def test_category_names_are_the_paper_vocabulary(self):
        assert CATEGORY_NAMES == EXPECTED_CATEGORIES

    def test_every_category_value_is_in_the_vocabulary(self):
        assert set(OVERHEAD_CATEGORIES.values()) <= set(CATEGORY_NAMES)

    def test_runtime_flavours_never_collide(self):
        # Merging must be lossless: old-RT names all carry the _old
        # suffix, so the two dicts are disjoint by construction.
        overlap = set(NEW_RT_OVERHEAD_CATEGORIES) & set(OLD_RT_OVERHEAD_CATEGORIES)
        assert not overlap
        assert len(OVERHEAD_CATEGORIES) == (
            len(NEW_RT_OVERHEAD_CATEGORIES) + len(OLD_RT_OVERHEAD_CATEGORIES)
        )


class TestDeclaredAPICoverage:
    def test_every_new_rt_api_function_is_categorized(self):
        missing = [f for f in NEW_RUNTIME_API if f not in NEW_RT_OVERHEAD_CATEGORIES]
        assert not missing, f"uncategorized new-RT entry points: {missing}"

    def test_every_old_rt_api_function_is_categorized(self):
        missing = [f for f in OLD_RUNTIME_API if f not in OLD_RT_OVERHEAD_CATEGORIES]
        assert not missing, f"uncategorized old-RT entry points: {missing}"


class TestCompiledModuleCoverage:
    """The strong form: scan what a compiled module actually defines.

    This is what fails when someone adds a new internal runtime helper
    (categorized calls are counted by callee name at executed call
    sites, so an uncategorized helper would silently leak its cycles
    out of the §III attribution).
    """

    @pytest.mark.parametrize("runtime", ["newrt", "oldrt"])
    def test_every_defined_runtime_function_is_categorized(self, runtime):
        uncategorized = [
            name
            for name in _defined_runtime_functions(runtime)
            if runtime_category(name) is None
        ]
        assert not uncategorized, (
            f"{runtime} defines uncategorized runtime functions "
            f"{uncategorized}; add them to the OVERHEAD_CATEGORIES dict "
            "next to the runtime builder"
        )

    @pytest.mark.parametrize(
        "runtime, table",
        [("newrt", NEW_RT_OVERHEAD_CATEGORIES),
         ("oldrt", OLD_RT_OVERHEAD_CATEGORIES)],
    )
    def test_every_categorized_function_is_defined(self, runtime, table):
        defined = set(_defined_runtime_functions(runtime))
        stale = [name for name in table if name not in defined]
        assert not stale, (
            f"{runtime} categorizes functions it no longer defines: {stale}"
        )


class TestExecutedCallCounts:
    """Counters count executed calls: zero once inlining folded the
    runtime away, the raw traffic at ``-O0``."""

    @pytest.mark.parametrize("target", ["OPENMP_OLD", "OPENMP_NEW"])
    def test_o0_build_counts_runtime_calls(self, target):
        from repro.apps import xsbench
        from repro.frontend.driver import CompileOptions, Target
        from repro.passes.pass_manager import PipelineConfig

        options = CompileOptions(Target[target], pipeline=PipelineConfig.o0())
        calls = xsbench.run(options, engine="decoded").profile.runtime_calls
        assert calls["target_init"] == 264
        assert calls["worksharing"] == 256
        assert calls["parallel_region"] == 8
        assert calls["shared_stack"] == 16

    def test_nightly_build_inlines_every_counted_call(self):
        from repro.apps import xsbench
        from repro.bench.builds import NEW_RT_NIGHTLY, build_options

        options = build_options()[NEW_RT_NIGHTLY]
        assert not any(xsbench.run(options, engine="decoded").profile.runtime_calls.values())
