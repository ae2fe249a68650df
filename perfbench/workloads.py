"""The benchmark's four workloads and the op each one repeats.

An op kind is one app x build (or app x size for ``serve-small``).  Every
op checks its own output against the app's NumPy reference and its
modeled profile against the kind's reference profile; a mismatch or an
exception makes the op count as failed.

Import this module only after ``run.py`` has pinned the ``REPRO_*``
environment: the program reads some knobs at import time.
"""

from __future__ import annotations

import itertools
import random
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps import gridmini, minifmm, rsbench, testsnap, xsbench
from repro.frontend.driver import CompileOptions, Target
from repro.passes.pass_manager import PipelineConfig, module_instruction_count
from repro.serve import DevicePool, SimulationService
from repro.toolchain.cache import CompileCache
from repro.toolchain.service import ToolchainSession
from repro.vgpu import LaunchSpec, VirtualGPU

import host
from spans import NullRecorder, clock

APPS = {"xsbench": xsbench, "rsbench": rsbench, "gridmini": gridmini,
        "testsnap": testsnap, "minifmm": minifmm}
#: TestSNAP has no CUDA build in the paper's evaluation (Kokkos code).
NO_CUDA = {"testsnap"}

OLD_RT_NIGHTLY = "Old RT (Nightly)"
NEW_RT_NIGHTLY = "New RT (Nightly)"
NEW_RT_NO_ASSUME = "New RT - w/o Assumptions"
NEW_RT = "New RT"
CUDA = "CUDA (NVCC)"


def build_options(build: str) -> CompileOptions:
    """The paper's build matrix (section V), as compile options."""
    if build == OLD_RT_NIGHTLY:
        return CompileOptions(Target.OPENMP_OLD, pipeline=PipelineConfig.nightly())
    if build == NEW_RT_NIGHTLY:
        return CompileOptions(Target.OPENMP_NEW, pipeline=PipelineConfig.nightly())
    if build == NEW_RT_NO_ASSUME:
        return CompileOptions(Target.OPENMP_NEW)
    if build == NEW_RT:
        return CompileOptions(Target.OPENMP_NEW).with_oversubscription()
    if build == CUDA:
        return CompileOptions(Target.CUDA)
    raise KeyError(build)


#: serve-small problem sizes: 7-32 ms of launch each on a 2-CPU host, so
#: the service's own per-request work is a large share of a request.
SERVE_SIZES = {
    "xsbench": {"n_lookups": 64},
    "rsbench": {"n_lookups": 64},
    "gridmini": {"n_sites": 64},
    "testsnap": {"n_atoms": 128},
    "minifmm": {"n_targets": 32},
}
SERVE_CLIENTS = 2
SERVE_WORKERS = 1
ENGINE = "warp"
MAX_ERROR = 1e-9  # AppRunResult.verified


@dataclass
class Kind:
    name: str
    app_name: str
    build: str
    size: Dict[str, int]
    #: Set up by the workload: compiled program (warm workloads), the
    #: reference profile signature and the kind's static counters.
    compiled: Any = None
    reference: Optional[Tuple] = None
    counters: Dict[str, float] = field(default_factory=dict)
    summary: Dict[str, Any] = field(default_factory=dict)

    @property
    def app(self):
        return APPS[self.app_name]

    def spec(self, args) -> LaunchSpec:
        app = self.app
        return LaunchSpec(kernel=app.KERNEL, num_teams=app.TEAMS,
                          threads_per_team=app.THREADS, args=tuple(args),
                          engine=ENGINE)


def signature(profile) -> Tuple:
    """The modeled figures every op of a kind must reproduce exactly."""
    return (profile.cycles, profile.instructions,
            tuple(sorted(profile.runtime_calls.items())),
            profile.barriers_aligned, profile.barriers_unaligned,
            profile.device_mallocs)


@dataclass
class OpRecord:
    kind: str
    latency_s: float
    ok: bool
    #: False when the op produced a wrong output (as opposed to raising).
    correct: bool = True
    error: str = ""
    extra: Dict[str, float] = field(default_factory=dict)
    #: Host-speed scale to reference-host time (see host.py).
    scale: float = 1.0


class Workload:
    """One workload: ``setup`` (repeatable), then ``run_phase``."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.kinds: List[Kind] = []
        self._stores = 0
        #: Times the set-up steps (see host.py).
        self.meter = host.Meter()

    # ------------------------------------------------------------ helpers --

    def fresh_cache(self) -> CompileCache:
        """An empty private compile cache with its own on-disk store."""
        self._stores += 1
        return CompileCache(disk_dir=self.workdir / f"store{self._stores}")

    def drop_store(self, cache: CompileCache) -> None:
        shutil.rmtree(cache.disk_dir, ignore_errors=True)

    def compile_kind(self, rec, kind: Kind):
        """Compile *kind* through a compile-cache miss."""
        cache = self.fresh_cache()
        try:
            with rec.span("apps.build_program"):
                program = kind.app.build_program(kind.size)
            with rec.span("toolchain.compile"):
                compiled = cache.get_or_compile(program, build_options(kind.build))
            if cache.stats.misses != 1 or cache.stats.disk_stores != 1:
                raise RuntimeError(f"{kind.name}: compile was not a stored miss "
                                   f"({cache.stats.to_dict()})")
        finally:
            self.drop_store(cache)
        return compiled

    @staticmethod
    def note_compile(kind: Kind, compiled) -> None:
        stats = compiled.stats
        kind.counters.update({
            "ir.insts_lowered": stats.timings[0].instructions_before,
            "ir.insts_optimized": module_instruction_count(compiled.module),
            "passes.rounds": stats.rounds,
            "passes.pass_runs": len(stats.timings),
            "passes.changed_runs": sum(t.changed for t in stats.timings),
        })

    @staticmethod
    def launch_direct(rec, kind: Kind, compiled):
        """Fresh device, prepare, launch, verify; returns (result, error)."""
        gpu = VirtualGPU(compiled.module)
        with rec.span("apps.prepare"):
            host_args, verify = kind.app.prepare(gpu, kind.size)
            args = compiled.abi(kind.app.KERNEL).marshal(gpu, host_args)
        result = gpu.run(kind.spec(args))
        with rec.span("apps.verify"):
            err = verify(gpu, host_args)
        return result, err

    @staticmethod
    def check(kind: Kind, result, err: float) -> Optional[str]:
        if not err < MAX_ERROR:
            return f"{kind.name}: max abs error {err:g}"
        if signature(result.profile) != kind.reference:
            return f"{kind.name}: modeled profile differs from the reference"
        return None

    def set_reference(self, kind: Kind, result, err: float) -> None:
        if not err < MAX_ERROR:
            raise RuntimeError(f"{kind.name}: warm-up max abs error {err:g}")
        sig = signature(result.profile)
        if kind.reference is not None and sig != kind.reference:
            raise RuntimeError(f"{kind.name}: profile changed between set-ups")
        kind.reference = sig
        kind.summary = result.profile_summary()
        kind.counters["vgpu.insts"] = result.profile.instructions
        kind.counters["cycles"] = result.profile.cycles

    # -------------------------------------------------------------- phase --

    def setup(self, rec) -> None:
        raise NotImplementedError

    def op(self, rec, kind: Kind) -> OpRecord:
        raise NotImplementedError

    def run_phase(self, rec, seconds: float, seed: int):
        """Whole rounds (every kind once, in a seeded order) until
        *seconds* have passed.  Returns the ops and the time they took,
        in reference-host seconds and in raw seconds; the host is
        calibrated before every op."""
        rng = random.Random(seed)
        records: List[OpRecord] = []
        meter = host.Meter()
        start = clock()
        while not records or clock() - start < seconds:
            order = list(self.kinds)
            rng.shuffle(order)
            for kind in order:
                with meter.step():
                    records.append(self.guarded_op(rec, kind))
        for record, scale in zip(records, meter.scales()):
            record.scale = scale
        return (records, sum(r.latency_s * r.scale for r in records),
                sum(r.latency_s for r in records))

    def guarded_op(self, rec, kind: Kind) -> OpRecord:
        with rec.op(kind.name):
            start = clock()
            try:
                record = self.op(rec, kind)
            except Exception as exc:  # an op that raises counts as failed
                record = OpRecord(kind.name, 0.0, False,
                                  error=f"{kind.name}: {type(exc).__name__}: {exc}")
            record.latency_s = record.latency_s or (clock() - start)
            return record

    def close(self) -> None:
        pass


class ColdCompile(Workload):
    """Every op compiles its kind from the DSL through a cache miss."""

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        self.kinds = [Kind(f"{a}/{b}", a, b, APPS[a].default_size())
                      for a in APPS
                      for b in (NEW_RT_NIGHTLY, NEW_RT_NO_ASSUME, NEW_RT)]

    def setup(self, rec) -> None:
        for kind in self.kinds:  # one untimed warm-up op per kind
            with self.meter.step():
                compiled = self.compile_kind(NullRecorder(), kind)
                result = self.launch_direct(NullRecorder(), kind, compiled)
            self.note_compile(kind, compiled)
            self.set_reference(kind, *result)

    def op(self, rec, kind: Kind) -> OpRecord:
        start = clock()
        compiled = self.compile_kind(rec, kind)
        result, err = self.launch_direct(rec, kind, compiled)
        problem = self.check(kind, result, err)
        return OpRecord(kind.name, clock() - start, problem is None,
                        correct=problem is None, error=problem or "")


class Warm(Workload):
    """Modules compiled in set-up; every op is fresh device, prepare,
    launch and verify."""

    def __init__(self, workdir: Path, kinds: List[Kind]) -> None:
        super().__init__(workdir)
        self.kinds = kinds

    def setup(self, rec) -> None:
        for kind in self.kinds:
            with self.meter.step(), rec.op(kind.name, phase="setup"):
                kind.compiled = self.compile_kind(rec, kind)
            self.note_compile(kind, kind.compiled)
        for kind in self.kinds:  # one untimed warm-up op per kind
            with self.meter.step():
                result = self.launch_direct(NullRecorder(), kind, kind.compiled)
            self.set_reference(kind, *result)

    def op(self, rec, kind: Kind) -> OpRecord:
        start = clock()
        result, err = self.launch_direct(rec, kind, kind.compiled)
        problem = self.check(kind, result, err)
        return OpRecord(kind.name, clock() - start, problem is None,
                        correct=problem is None, error=problem or "")


def warm_newrt(workdir: Path) -> Warm:
    kinds = [Kind(f"{a}/{NEW_RT}", a, NEW_RT, APPS[a].default_size()) for a in APPS]
    kinds += [Kind(f"{a}/{CUDA}", a, CUDA, APPS[a].default_size())
              for a in APPS if a not in NO_CUDA]
    return Warm(workdir, kinds)


def warm_oldrt(workdir: Path) -> Warm:
    kinds = [Kind(f"{a}/{OLD_RT_NIGHTLY}", a, OLD_RT_NIGHTLY, APPS[a].default_size())
             for a in APPS]
    return Warm(workdir, kinds)


class ServeSmall(Workload):
    """Closed loop: SERVE_CLIENTS client threads, each submitting its next
    request to one SimulationService after the previous verified result
    returned."""

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        self.kinds = [Kind(f"{a}@{next(iter(s.values()))}", a, NEW_RT,
                           {**APPS[a].default_size(), **s})
                      for a, s in SERVE_SIZES.items()]
        self.service: Optional[SimulationService] = None

    def setup(self, rec) -> None:
        self.close()
        for kind in self.kinds:  # the direct reference of each kind
            with self.meter.step():
                with rec.op(kind.name, phase="setup"):
                    compiled = self.compile_kind(rec, kind)
                result = self.launch_direct(NullRecorder(), kind, compiled)
            self.note_compile(kind, compiled)
            self.set_reference(kind, *result)
        self.service = SimulationService(
            workers=SERVE_WORKERS, queue_depth=4 * SERVE_CLIENTS,
            session=ToolchainSession(cache=CompileCache(disk_dir=None)),
            pool=DevicePool())
        for kind in self.kinds:  # one untimed warm-up request per kind
            with self.meter.step():
                record = self.op(NullRecorder(), kind)
            if not record.ok:
                raise RuntimeError(f"warm-up request failed: {record.error}")

    def op(self, rec, kind: Kind) -> OpRecord:
        """One request: build the program, submit, wait, check."""
        app = kind.app
        with rec.span("apps.build_program"):
            program = app.build_program(kind.size)
        op_id = rec.current_op()
        if op_id is not None:
            rec.program_ops[id(program)] = op_id
        held: Dict[str, Any] = {}

        def make_args(gpu, compiled):
            held["prepare_start"] = clock()
            with rec.span("apps.prepare"):
                host_args, verify = app.prepare(gpu, kind.size)
                args = compiled.abi(app.KERNEL).marshal(gpu, host_args)
            held["prepare_s"] = clock() - held["prepare_start"]
            held["verify"] = (verify, host_args)
            return args

        def finalize(gpu, result):
            verify, host_args = held.pop("verify")
            start = clock()
            with rec.span("apps.verify"):
                err = verify(gpu, host_args)
            held["verify_s"] = clock() - start
            return err

        submitted = clock()
        job = self.service.submit(kind.spec(()), program=program,
                                  options=build_options(kind.build),
                                  make_args=make_args, finalize=finalize)
        result = job.result()
        problem = None
        if not result.ok or result.retried:
            problem = f"{kind.name}: served request failed or was retried"
        else:
            problem = self.check(kind, result, result.payload)
        latency = clock() - submitted
        extra = {}
        if "prepare_start" in held:
            extra = {
                "serve.dispatch": held["prepare_start"] - submitted,
                "serve.overhead": latency - held["prepare_s"]
                - result.duration_s - held.get("verify_s", 0.0),
            }
        return OpRecord(kind.name, latency, problem is None,
                        correct=problem is None, error=problem or "",
                        extra=extra)

    def run_phase(self, rec, seconds: float, seed: int):
        """Every client runs whole rounds; all meet at a barrier after
        each round, where the host is calibrated and the phase ends once
        *seconds* have passed."""
        per_client: List[List[Tuple[int, OpRecord]]] = [[] for _ in range(SERVE_CLIENTS)]
        samples: List[float] = []
        busy: List[float] = []  # wall time of each round, barrier to barrier
        state = {"stop": False}
        errors: List[BaseException] = []

        def end_of_round() -> None:  # runs once per round, clients waiting
            now = clock()
            busy.append(now - state["resumed"])
            samples.append(host.sample())
            state["stop"] = now - start >= seconds
            state["resumed"] = clock()

        barrier = threading.Barrier(SERVE_CLIENTS, action=end_of_round)

        def client(i: int) -> None:
            # Each client's request sequence is its own seeded stream.
            rng = random.Random(seed * 1000 + i)
            try:
                for round_no in itertools.count():
                    order = list(self.kinds)
                    rng.shuffle(order)
                    for kind in order:
                        per_client[i].append((round_no, self.guarded_op(rec, kind)))
                    barrier.wait()
                    if state["stop"]:
                        return
            except BaseException as exc:  # surfaced after join
                errors.append(exc)
                barrier.abort()

        start = clock()
        state["resumed"] = start
        threads = [threading.Thread(target=client, args=(i,), daemon=True)
                   for i in range(SERVE_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        scales = host.factors(samples)
        records = []
        for recs in per_client:
            for round_no, record in recs:
                record.scale = scales[round_no]
                records.append(record)
        return records, sum(b * f for b, f in zip(busy, scales)), sum(busy)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


def make_workload(name: str, workdir: Path) -> Workload:
    factories: Dict[str, Callable[[Path], Workload]] = {
        "cold-compile": ColdCompile,
        "warm-newrt": warm_newrt,
        "warm-oldrt": warm_oldrt,
        "serve-small": ServeSmall,
    }
    return factories[name](workdir)


WORKLOADS = ("cold-compile", "warm-newrt", "warm-oldrt", "serve-small")
