"""In-memory span recorder for the benchmark's traced mode.

A span is one call into a layer: name, start, end, parent span and the
op it belongs to.  The spans of one op share its op id, also when the
op crosses threads (a served request runs in the service's worker).
Nothing is written until the run ends; :meth:`Recorder.chrome_trace`
then renders the spans as Chrome-trace JSON.

Spans come from two places, both outside ``src/``:

* the benchmark's own calls (``with rec.span("apps.prepare"): ...``);
* :func:`patched`, which for the traced set-up and the traced half of
  the timed phase replaces a few public functions of the program with
  timing shims and restores them afterwards.  Untraced runs never
  install a shim, so their end-to-end figures carry no tracing cost.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

clock = time.perf_counter


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    tid: int


@dataclass
class OpInfo:
    kind: str
    phase: str  # "setup" (set-up compiles) or "timed"
    #: Launches that asked for the warp engine and built no warp executor.
    scalar_fallbacks: int = 0
    sim_insts: int = 0


class NullRecorder:
    """The untraced stand-in: every hook is a no-op."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def op(self, kind: str, phase: str = "timed"):
        return self._null

    def current_op(self) -> Optional[int]:
        return None


class Recorder:
    """Collects spans per op; thread-safe."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.ops: Dict[int, OpInfo] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: program object id -> op id, for spans a service worker makes
        #: before the request's own callbacks run.
        self.program_ops: Dict[int, int] = {}

    # ------------------------------------------------------------ context --

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.op = None
        return st

    def current_op(self) -> Optional[int]:
        return self._state().op

    def adopt(self, op_id: Optional[int]) -> None:
        """Make *op_id* this thread's current op (service workers)."""
        st = self._state()
        st.op = op_id
        st.stack = []

    @contextmanager
    def op(self, kind: str, phase: str = "timed") -> Iterator[int]:
        with self._lock:
            op_id = next(self._ids)
            self.ops[op_id] = OpInfo(kind, phase)
        st = self._state()
        saved = (st.op, st.stack)
        st.op, st.stack = op_id, []
        try:
            yield op_id
        finally:
            st.op, st.stack = saved

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[int]]:
        st = self._state()
        if st.op is None:  # outside any recorded op: not measured
            yield None
            return
        with self._lock:
            sid = next(self._ids)
        parent = st.stack[-1] if st.stack else None
        st.stack.append(sid)
        start = clock()
        try:
            yield sid
        finally:
            end = clock()
            st.stack.pop()
            self.add(Span(sid, name, start, end, parent, st.op,
                          threading.get_ident()))

    def add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def add_child(self, name: str, start: float, duration: float,
                  parent: Optional[int]) -> None:
        """Record a span timed by the program itself (pass timings)."""
        st = self._state()
        if st.op is None or parent is None:
            return
        with self._lock:
            sid = next(self._ids)
        self.add(Span(sid, name, start, start + duration, parent, st.op,
                      threading.get_ident()))

    # ----------------------------------------------------------- analysis --

    def layer_time_by_op(self) -> Dict[int, Dict[str, float]]:
        """op id -> layer -> time in that layer.  Nested spans of the
        same layer count once (only the outermost one is summed)."""
        by_id = {s.sid: s for s in self.spans}
        out: Dict[int, Dict[str, float]] = {}
        for s in self.spans:
            p = by_id.get(s.parent) if s.parent is not None else None
            nested = False
            while p is not None:
                if p.name == s.name:
                    nested = True
                    break
                p = by_id.get(p.parent) if p.parent is not None else None
            if nested:
                continue
            layers = out.setdefault(s.op, {})
            layers[s.name] = layers.get(s.name, 0.0) + (s.end - s.start)
        return out

    def self_times(self) -> Iterator[Tuple[Span, float]]:
        """Every span with its self time: its duration minus the part of
        it that its child spans cover."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        for s in self.spans:
            covered = _union_length(
                [(c.start, c.end) for c in children.get(s.sid, ())],
                s.start, s.end)
            yield s, (s.end - s.start) - covered

    def chrome_trace(self) -> dict:
        """The spans as a Chrome-trace (``chrome://tracing``) document."""
        t0 = min((s.start for s in self.spans), default=0.0)
        tids: Dict[int, int] = {}
        events = []
        for s in sorted(self.spans, key=lambda s: s.start):
            info = self.ops.get(s.op)
            events.append({
                "name": s.name, "ph": "X", "pid": 1,
                "tid": tids.setdefault(s.tid, len(tids) + 1),
                "ts": (s.start - t0) * 1e6, "dur": (s.end - s.start) * 1e6,
                "args": {"span": s.sid, "parent": s.parent, "op": s.op,
                         "kind": info.kind if info else None,
                         "phase": info.phase if info else None},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


# ----------------------------------------------------------------- shims --

#: (module, attribute path, layer).  Each is a public function the
#: program calls on the measured path; the shim records one span per call.
SHIMS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.toolchain.cache", "compile_fingerprint", "toolchain.fingerprint"),
    ("repro.serve.service", "compile_fingerprint", "toolchain.fingerprint"),
    ("repro.frontend.driver", "lower_program_openmp", "frontend.lower"),
    ("repro.frontend.driver", "lower_program_cuda", "frontend.lower"),
    ("repro.frontend.driver", "verify_module", "ir.verify"),
    ("repro.frontend.driver", "run_openmp_opt_pipeline", "passes.pipeline"),
    ("repro.vgpu.decode", "decode_function", "vgpu.decode"),
    ("repro.vgpu.warp", "compute_warp_flow", "vgpu.decode"),
    ("repro.vgpu.warp", "vectorize_function", "vgpu.decode"),
    ("repro.vgpu.warp", "make_team_warps", "vgpu.warp_teams"),
    ("repro.vgpu.interpreter", "VirtualGPU.__init__", "vgpu.load"),
    ("repro.vgpu.interpreter", "VirtualGPU.run", "vgpu.launch"),
    ("repro.vgpu.interpreter", "VirtualGPU.reset_device", "vgpu.reset"),
)


def _make_shim(rec: Recorder, layer: str, fn: Callable,
               modname: str) -> Callable:
    if modname == "repro.serve.service":
        def shim(program, *a, **kw):
            # The service's worker fingerprints every request first: from
            # here on its spans belong to the op that built *program*.
            rec.adopt(rec.program_ops.pop(id(program), None))
            with rec.span(layer):
                return fn(program, *a, **kw)
    elif layer == "passes.pipeline":
        def shim(*a, **kw):
            with rec.span(layer) as sid:
                ctx = fn(*a, **kw)
            for t in ctx.stats.timings:  # the pass manager's own timings
                rec.add_child(f"passes.{t.name}", t.started_s,
                              t.wall_time_s, sid)
            return ctx
    elif layer == "vgpu.launch":
        def shim(gpu, spec, *a, **kw):
            st = rec._state()
            st.warp_teams = 0
            with rec.span(layer):
                result = fn(gpu, spec, *a, **kw)
            info = rec.ops.get(st.op) if st.op is not None else None
            if info is not None:
                info.sim_insts += result.profile.instructions
                if result.engine == "warp" and st.warp_teams == 0:
                    info.scalar_fallbacks += 1
            return result
    elif layer == "vgpu.warp_teams":  # counted, not timed
        def shim(*a, **kw):
            st = rec._state()
            st.warp_teams = getattr(st, "warp_teams", 0) + 1
            return fn(*a, **kw)
    else:
        def shim(*a, **kw):
            with rec.span(layer):
                return fn(*a, **kw)
    shim.__wrapped__ = fn
    return shim


@contextmanager
def patched(rec: Recorder) -> Iterator[None]:
    """Install the timing shims for the ``with`` body.  A shim whose
    target no longer exists is reported and skipped; its layer reads 0."""
    undo: List[Tuple[object, str, object]] = []
    missing: List[str] = []
    try:
        for modname, path, layer in SHIMS:
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{modname}.{path}")
                continue
            setattr(owner, attr, _make_shim(rec, layer, fn, modname))
            undo.append((owner, attr, fn))
        if missing:
            print(f"perfbench: cannot trace {', '.join(missing)}",
                  file=sys.stderr)
        yield
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)
