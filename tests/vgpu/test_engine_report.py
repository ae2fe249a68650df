"""``LaunchResult.engine`` names the engine that actually ran.

A warp request falls back to the decoded scalar engine for Old RT
modules (their shared stack is not lockstep-safe), sanitized devices and
armed fault plans.  The result then says ``decoded`` and carries the
reason in ``engine_fallback``, outside the engine-parity-compared
profile; direct and served launches report alike.
"""

from __future__ import annotations

import pytest

from repro.apps import xsbench
from repro.bench.builds import NEW_RT, OLD_RT_NIGHTLY, build_options
from repro.frontend.driver import CompileOptions, Target
from repro.passes.pass_manager import PipelineConfig
from repro.serve import SimulationService
from repro.toolchain.service import ToolchainSession
from repro.vgpu import ENGINE_DECODED, ENGINE_WARP, LaunchSpec, VirtualGPU

SIZE = dict(xsbench.default_size(), n_lookups=64)

OLD_RT_O0 = CompileOptions(Target.OPENMP_OLD, pipeline=PipelineConfig.o0())

#: (label, options, engine reported for a warp request, fallback reason)
CELLS = [
    ("old-rt-O0", OLD_RT_O0, ENGINE_DECODED, "old-runtime"),
    ("old-rt-nightly", build_options()[OLD_RT_NIGHTLY], ENGINE_DECODED, "old-runtime"),
    ("new-rt", build_options()[NEW_RT], ENGINE_WARP, None),
]


def _direct(options, engine, sanitize=False):
    compiled = ToolchainSession().compile(xsbench.build_program(SIZE), options)
    gpu = VirtualGPU(compiled.module, sanitize=sanitize)
    host_args, verify = xsbench.prepare(gpu, SIZE)
    spec = LaunchSpec(
        kernel=xsbench.KERNEL, num_teams=xsbench.TEAMS,
        threads_per_team=xsbench.THREADS,
        args=tuple(compiled.abi(xsbench.KERNEL).marshal(gpu, host_args)),
        engine=engine,
    )
    result = gpu.run(spec)
    assert verify(gpu, host_args) < 1e-9
    return result


@pytest.mark.parametrize("label,options,engine,reason", CELLS,
                         ids=[c[0] for c in CELLS])
def test_direct_warp_request_reports_engine_that_ran(label, options, engine, reason):
    result = _direct(options, ENGINE_WARP)
    assert result.engine == engine
    assert result.engine_fallback == reason
    # The fallback is parity-neutral: the decoded engine's own profile.
    decoded = _direct(options, ENGINE_DECODED)
    assert decoded.engine == ENGINE_DECODED and decoded.engine_fallback is None
    assert result.profile.to_dict() == decoded.profile.to_dict()


def test_sanitized_device_reports_decoded():
    result = _direct(build_options()[NEW_RT], ENGINE_WARP, sanitize=True)
    assert result.engine == ENGINE_DECODED
    assert result.engine_fallback == "sanitize"


@pytest.mark.serve
def test_served_warp_request_reports_engine_that_ran():
    with SimulationService(workers=1) as svc:
        jobs = {
            label: svc.submit_app("xsbench", options=options, size=SIZE,
                                  engine=ENGINE_WARP)
            for label, options, _, _ in CELLS
        }
        for label, options, engine, reason in CELLS:
            served = jobs[label].result(timeout=600)
            assert served.ok
            assert served.engine == engine
            assert served.engine_fallback == reason
            assert served.payload["max_error"] < 1e-9
