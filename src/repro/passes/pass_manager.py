"""Pass manager and pipeline configuration.

``PipelineConfig`` exposes one disable flag per paper optimization so
the ablation study (Fig. 13 / §V-C) can switch them off one at a time.
With ``verify_each`` the IR verifier runs after every pass, which is
how the test suite catches pass bugs early.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from repro.ir.cfg import DominatorTree, predecessors
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.verifier import VerificationError, verify_module
from repro.passes.remarks import RemarkCollector


def module_instruction_count(module: Module) -> int:
    """Total instructions across every defined function."""
    return sum(
        len(block.instructions)
        for func in module.functions.values()
        for block in func.blocks
    )


@dataclass
class PassTiming:
    """One pass execution inside a pipeline run."""

    name: str
    phase: str
    wall_time_s: float
    changed: bool
    instructions_before: int
    instructions_after: int
    #: ``time.perf_counter`` at pass start, so :mod:`repro.trace` can
    #: export the run as a host span (0.0 on records predating the
    #: field, e.g. cache-restored pickles).
    started_s: float = 0.0
    #: Defined functions the pass ran on, and those change-driven
    #: scheduling skipped because nothing touched them since the pass
    #: last saw them stable (module-wide passes visit every function).
    functions_visited: int = 0
    functions_skipped: int = 0

    @property
    def instructions_removed(self) -> int:
        """Net instructions removed (negative when the pass grew the IR,
        e.g. inlining)."""
        return self.instructions_before - self.instructions_after


@dataclass
class PassAggregate:
    """Per-pass totals across a whole pipeline run."""

    name: str
    runs: int = 0
    changed_runs: int = 0
    wall_time_s: float = 0.0
    instructions_removed: int = 0
    functions_visited: int = 0
    functions_skipped: int = 0


@dataclass
class PipelineStats:
    """Observability record of one openmp-opt pipeline run.

    Collected by :class:`PassManager` (per-pass wall time and
    instruction deltas) and :func:`repro.passes.pipeline.
    run_openmp_opt_pipeline` (fixpoint round counts, total wall time),
    and attached to :class:`repro.frontend.driver.CompiledProgram`.
    """

    timings: List[PassTiming] = field(default_factory=list)
    #: Fixpoint rounds actually executed (paper §IV interplay rounds).
    rounds: int = 0
    #: Wall time of the whole pipeline, including manager overhead.
    wall_time_s: float = 0.0

    def record(self, timing: PassTiming) -> None:
        self.timings.append(timing)

    def total_pass_time_s(self) -> float:
        return sum(t.wall_time_s for t in self.timings)

    def total_instructions_removed(self) -> int:
        return sum(t.instructions_removed for t in self.timings)

    def by_pass(self) -> Dict[str, PassAggregate]:
        """Aggregate the log per pass name, in first-run order."""
        out: Dict[str, PassAggregate] = {}
        for t in self.timings:
            agg = out.setdefault(t.name, PassAggregate(name=t.name))
            agg.runs += 1
            agg.changed_runs += int(t.changed)
            agg.wall_time_s += t.wall_time_s
            agg.instructions_removed += t.instructions_removed
            agg.functions_visited += t.functions_visited
            agg.functions_skipped += t.functions_skipped
        return out

    def functions_visited(self) -> int:
        return sum(t.functions_visited for t in self.timings)

    def functions_skipped(self) -> int:
        return sum(t.functions_skipped for t in self.timings)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (``python -m repro.bench report``)."""
        return {
            "rounds": self.rounds,
            "wall_time_s": self.wall_time_s,
            "total_pass_time_s": self.total_pass_time_s(),
            "total_instructions_removed": self.total_instructions_removed(),
            "pass_runs": len(self.timings),
            "functions_visited": self.functions_visited(),
            "functions_skipped": self.functions_skipped(),
            "per_pass": [
                {
                    "name": agg.name,
                    "runs": agg.runs,
                    "changed_runs": agg.changed_runs,
                    "wall_time_s": agg.wall_time_s,
                    "instructions_removed": agg.instructions_removed,
                    "functions_visited": agg.functions_visited,
                    "functions_skipped": agg.functions_skipped,
                }
                for agg in self.by_pass().values()
            ],
        }

    def format_table(self) -> str:
        """Human-readable per-pass table (``python -m repro.bench timings``)."""
        header = (
            f"{'pass':>24s} | {'runs':>4s} | {'chg':>4s} | "
            f"{'time (ms)':>9s} | {'insts -':>8s} | {'visited':>7s} | "
            f"{'skipped':>7s}"
        )
        lines = [header, "-" * len(header)]
        for agg in sorted(
            self.by_pass().values(), key=lambda a: a.wall_time_s, reverse=True
        ):
            lines.append(
                f"{agg.name:>24s} | {agg.runs:>4d} | {agg.changed_runs:>4d} | "
                f"{agg.wall_time_s * 1e3:>9.2f} | {agg.instructions_removed:>8d} | "
                f"{agg.functions_visited:>7d} | {agg.functions_skipped:>7d}"
            )
        lines.append(
            f"{len(self.timings)} pass runs over {self.rounds} fixpoint rounds; "
            f"pipeline {self.wall_time_s * 1e3:.2f} ms "
            f"(passes {self.total_pass_time_s() * 1e3:.2f} ms), "
            f"{self.total_instructions_removed()} instructions removed net; "
            f"functions visited {self.functions_visited()}, "
            f"skipped {self.functions_skipped()}"
        )
        return "\n".join(lines)


@dataclass
class PipelineConfig:
    """Optimization pipeline controls (compiler flags)."""

    opt_level: int = 2
    #: §IV-A3 SPMDzation.
    enable_spmdization: bool = True
    #: §IV-A2 globalization elimination (alloc_shared -> alloca).
    enable_globalization_elim: bool = True
    #: §IV-B1 field-sensitive access analysis.  Disabling this disables
    #: the whole §IV-B value propagation, as in the paper's ablation.
    enable_field_sensitive: bool = True
    #: §IV-B2 lifetime-aware reachability and dominance reasoning.
    enable_reach_dom: bool = True
    #: §IV-B3 assumed memory content.
    enable_assumed_content: bool = True
    #: §IV-B4 invariant value propagation.
    enable_invariant_prop: bool = True
    #: §IV-C exclusive (main-thread) and aligned execution analysis.
    enable_aligned_exec: bool = True
    #: §IV-D aligned barrier elimination.
    enable_barrier_elim: bool = True
    #: Generic inlining of the runtime into kernels.
    enable_inlining: bool = True
    #: Maximum openmp-opt fixpoint rounds.
    max_rounds: int = 8
    #: Run the IR verifier after every pass.
    verify_each: bool = False

    @property
    def enable_value_prop(self) -> bool:
        """§IV-B as a whole is gated on its base analysis (§IV-B1)."""
        return self.enable_field_sensitive

    @classmethod
    def o0(cls) -> "PipelineConfig":
        return cls(
            opt_level=0,
            enable_spmdization=False,
            enable_globalization_elim=False,
            enable_field_sensitive=False,
            enable_reach_dom=False,
            enable_assumed_content=False,
            enable_invariant_prop=False,
            enable_aligned_exec=False,
            enable_barrier_elim=False,
            enable_inlining=False,
        )

    @classmethod
    def nightly(cls) -> "PipelineConfig":
        """The "(Nightly)" builds of the evaluation: the legacy pass set,
        and a globalization pass that does not understand the new
        runtime's shared-stack discipline yet — kernels keep the full
        pre-allocated stack (the 11.3KB SMem row of Fig. 11)."""
        cfg = cls.legacy()
        cfg.enable_globalization_elim = False
        return cfg

    @classmethod
    def legacy(cls) -> "PipelineConfig":
        """The pre-co-design pipeline: only the §IV-A optimizations
        (internalization, globalization handling, SPMDzation) exist."""
        return cls(
            enable_field_sensitive=False,
            enable_reach_dom=False,
            enable_assumed_content=False,
            enable_invariant_prop=False,
            enable_aligned_exec=False,
            enable_barrier_elim=False,
        )


class Pass(Protocol):
    """A module transformation.  Returns True if it changed the IR."""

    name: str

    def run(self, module: Module, ctx: "PassContext") -> bool: ...


class ChangeTracker:
    """Change-driven scheduling state of one pipeline run.

    Every function carries an ``ir_version`` that the IR mutation paths
    bump (:meth:`repro.ir.module.Function.touch`).  Per pass name, the
    tracker remembers the version each function had when that pass last
    saw it stable: the pass ran and changed nothing, or the pass iterates
    to its own fixpoint.  While the version still matches, running the
    pass on the function again would find nothing to do, so
    :meth:`run_per_function` skips it.  The CFG analyses are cached per
    function under the same version, so any change invalidates them.
    """

    def __init__(self) -> None:
        self._stable: Dict[str, Dict[Function, int]] = {}
        self._preds: Dict[Function, Tuple[int, Dict[BasicBlock, List[BasicBlock]]]] = {}
        self._domtree: Dict[Function, Tuple[int, DominatorTree]] = {}
        #: Functions visited/skipped by the current pass run; ``None``
        #: until a change-driven pass reports (module-wide passes).
        self.visited: Optional[int] = None
        self.skipped = 0

    def run_per_function(
        self,
        name: str,
        module: Module,
        body: Callable[[Function], bool],
        fixpoint: bool = False,
    ) -> bool:
        """Run *body* on every defined function pass *name* has not seen
        stable.  *fixpoint* says one run of *body* leaves the function a
        fixpoint of the pass even when it changed it."""
        stable = self._stable.setdefault(name, {})
        changed = False
        visited = skipped = 0
        for func in list(module.defined_functions()):
            if stable.get(func) == func.ir_version:
                skipped += 1
                continue
            visited += 1
            func_changed = body(func)
            changed |= func_changed
            if fixpoint or not func_changed:
                stable[func] = func.ir_version
        self.visited = (self.visited or 0) + visited
        self.skipped += skipped
        return changed

    def predecessors(self, func: Function) -> Dict[BasicBlock, List[BasicBlock]]:
        """Cached CFG predecessors of *func*; callers must not mutate it."""
        hit = self._preds.get(func)
        if hit is not None and hit[0] == func.ir_version:
            return hit[1]
        preds = predecessors(func)
        self._preds[func] = (func.ir_version, preds)
        return preds

    def dominator_tree(self, func: Function) -> DominatorTree:
        """Cached dominator tree of *func*."""
        hit = self._domtree.get(func)
        if hit is not None and hit[0] == func.ir_version:
            return hit[1]
        dom = DominatorTree(func, self.predecessors(func))
        self._domtree[func] = (func.ir_version, dom)
        return dom


@dataclass
class PassContext:
    """Shared state threaded through a pipeline run."""

    config: PipelineConfig
    remarks: RemarkCollector = field(default_factory=RemarkCollector)
    #: Names of runtime API functions (never internal-DCE'd prematurely).
    runtime_api: frozenset = frozenset()
    #: Observability sink; when set, every pass run is timed into it.
    stats: Optional[PipelineStats] = None
    #: Label of the pipeline phase currently executing (for stats).
    phase: str = ""
    #: Per-function change tracking and cached CFG analyses.
    changes: ChangeTracker = field(default_factory=ChangeTracker)


class PassManager:
    """Runs a list of passes over a module, optionally verifying each."""

    def __init__(self, passes: List[Pass], ctx: PassContext) -> None:
        self.passes = passes
        self.ctx = ctx
        self.run_log: List[str] = []

    def run(self, module: Module) -> bool:
        changed_any = False
        stats = self.ctx.stats
        changes = self.ctx.changes
        for p in self.passes:
            before = module_instruction_count(module) if stats else 0
            changes.visited, changes.skipped = None, 0
            start = time.perf_counter()
            changed = p.run(module, self.ctx)
            if stats is not None:
                elapsed = time.perf_counter() - start
                visited = changes.visited
                if visited is None:
                    visited = sum(1 for _ in module.defined_functions())
                stats.record(PassTiming(
                    name=p.name,
                    phase=self.ctx.phase,
                    wall_time_s=elapsed,
                    changed=changed,
                    instructions_before=before,
                    instructions_after=module_instruction_count(module),
                    started_s=start,
                    functions_visited=visited,
                    functions_skipped=changes.skipped,
                ))
            self.run_log.append(f"{p.name}: {'changed' if changed else 'no-op'}")
            changed_any |= changed
            if changed:
                # A pass mutated the module in place: drop any cached
                # per-kernel resource measurements (repro.vgpu.resources)
                # and warp vectorizations (repro.vgpu.warp) so
                # post-optimization state is re-derived, not replayed.
                module.__dict__.pop("_resource_cache", None)
                module.__dict__.pop("_warp_vector_cache", None)
            if self.ctx.config.verify_each:
                try:
                    verify_module(module)
                except VerificationError as exc:
                    raise VerificationError(
                        [f"after pass {p.name}:"] + exc.errors
                    ) from exc
        return changed_any
