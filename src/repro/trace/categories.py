"""Runtime-function -> overhead-category attribution.

The paper's overhead analysis groups runtime cycles by construct:
parallel region entry/exit (§III-B), worksharing ``noChunkImpl``
invocations (Fig. 5), thread-state allocations/escapes (§III-C),
shared-stack pushes and global-memory fallbacks (§III-D), and
aligned vs. unaligned barriers (§III-E / §IV-D).  The execution
engines count every call to a categorized runtime function into
``TeamStats.runtime_calls[category]``; the categories themselves are
declared next to each runtime flavour
(``NEW_RT_OVERHEAD_CATEGORIES`` / ``OLD_RT_OVERHEAD_CATEGORIES``) and
merged here.

Counting is by *callee name at the call site the simulator actually
executes*.  Every pipeline that inlines — the nightly builds included —
pulls all runtime entry points into the kernels, so their counters read
zero: the measured face of the paper's near-zero-overhead claim.  Only
builds without inlining (``-O0``, or ``enable_inlining=False``) show
the raw call traffic; XSBench at ``-O0`` executes 264 ``target_init``
and 256 ``worksharing`` calls.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.runtime.libnew import NEW_RT_OVERHEAD_CATEGORIES
from repro.runtime.libold import OLD_RT_OVERHEAD_CATEGORIES

#: All categorized runtime functions, both flavours (names are
#: disjoint: the old runtime suffixes everything with ``_old``).
OVERHEAD_CATEGORIES: Dict[str, str] = {
    **NEW_RT_OVERHEAD_CATEGORIES,
    **OLD_RT_OVERHEAD_CATEGORIES,
}

#: The category vocabulary, for schema checks and docs.
CATEGORY_NAMES = tuple(sorted(set(OVERHEAD_CATEGORIES.values())))

#: Chrome-trace ``cat`` for fault-injection instants (``fault.*`` names
#: emitted by :class:`repro.faults.plan.TeamFaultState` and the
#: ``crash.*`` instants the launch wrapper emits for injected faults).
FAULT_EVENT_CATEGORY = "fault"

#: Chrome-trace ``cat`` for sanitizer diagnostics (``crash.*`` instants
#: whose exception is a :class:`~repro.vgpu.errors.SanitizerError`).
SANITIZER_EVENT_CATEGORY = "sanitizer"

#: Chrome-trace ``cat`` for serving-layer events (``serve.submit``
#: instants, ``serve.request``/``serve.attempt`` spans, ``serve.shed``
#: instants and the ``serve.health`` counter track).
SERVE_EVENT_CATEGORY = "serve"

_lookup = OVERHEAD_CATEGORIES.get


def runtime_category(function_name: str) -> Optional[str]:
    """Overhead category of *function_name*, or None if uncategorized."""
    return _lookup(function_name)
