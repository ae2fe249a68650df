"""Call graph construction over a module.

The graph distinguishes direct edges from *address-taken* functions
(those whose address escapes into data or call arguments — e.g. the
outlined loop bodies passed to the worksharing runtime calls, Fig. 5).
The inter-procedural passes use it for bottom-up traversals and for
the lifetime "common ancestor" search of §IV-B2, and the inliner for
call-site counts and recursion.

Adjacency is kept in insertion-ordered dicts (function and program
order), so every query is deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.instructions import Call
from repro.ir.module import Function, Module


class CallGraph:
    """Direct call graph plus address-taken tracking."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self._callees: Dict[Function, Dict[Function, None]] = {}
        self._callers: Dict[Function, Dict[Function, None]] = {}
        self.address_taken: Set[Function] = set()
        self._call_sites: Dict[Tuple[Function, Function], List[Call]] = {}
        self._sites_of: Dict[Function, List[Call]] = {}
        self._recursive: Dict[Function, bool] = {}
        self._build()

    def _build(self) -> None:
        for func in self.module.functions.values():
            self._callees[func] = {}
            self._callers[func] = {}
        for func in self.module.defined_functions():
            for block in func.blocks:
                for inst in block.instructions:
                    if type(inst) is not Call:
                        continue
                    callee = inst.callee
                    if callee is not None:
                        self._callees[func][callee] = None
                        self._callers.setdefault(callee, {})[func] = None
                        self._callees.setdefault(callee, {})
                        self._call_sites.setdefault((func, callee), []).append(inst)
                        self._sites_of.setdefault(callee, []).append(inst)
                    # Function-typed arguments escape the callee's address.
                    for arg in inst.args:
                        if isinstance(arg, Function):
                            self.address_taken.add(arg)

    # -- queries -------------------------------------------------------------

    def callees(self, func: Function) -> Set[Function]:
        return set(self._callees.get(func, ()))

    def callers(self, func: Function) -> Set[Function]:
        return set(self._callers.get(func, ()))

    def call_sites(self, caller: Function, callee: Function) -> List[Call]:
        return list(self._call_sites.get((caller, callee), []))

    def all_call_sites_of(self, callee: Function) -> List[Call]:
        """Every direct call of *callee*, in function and program order."""
        return list(self._sites_of.get(callee, []))

    def is_recursive(self, func: Function) -> bool:
        """True if *func* participates in a call-graph cycle (it can
        reach itself through direct calls)."""
        known = self._recursive.get(func)
        if known is None:
            known = self._recursive[func] = func in _reach(func, self._callees)
        return known

    def has_unknown_callers(self, func: Function) -> bool:
        """Kernels and externally visible / address-taken functions can be
        entered from outside the module."""
        if func.is_kernel:
            return True
        if func in self.address_taken:
            return True
        return func.linkage != "internal"

    def transitive_callers(self, func: Function) -> Set[Function]:
        return _reach(func, self._callers) - {func}

    def transitive_callees(self, func: Function) -> Set[Function]:
        return _reach(func, self._callees) - {func}

    def reachable_from_kernels(self) -> Set[Function]:
        """Functions reachable (directly or via taken addresses) from any
        kernel entry point — everything else is dead after linking."""
        roots: List[Function] = list(self.module.kernels())
        reached: Set[Function] = set()
        work = list(roots)
        while work:
            func = work.pop()
            if func in reached:
                continue
            reached.add(func)
            for callee in self.callees(func):
                work.append(callee)
            for inst in func.instructions() if not func.is_declaration else ():
                if isinstance(inst, Call):
                    for arg in inst.args:
                        if isinstance(arg, Function):
                            work.append(arg)
        return reached

    def bottom_up_order(self) -> List[Function]:
        """Functions ordered callees-first (members of one recursion
        cycle in arbitrary order).

        Tarjan's algorithm (iterative) emits each strongly connected
        component only after every component it calls into.
        """
        index: Dict[Function, int] = {}
        low: Dict[Function, int] = {}
        on_stack: Set[Function] = set()
        stack: List[Function] = []
        order: List[Function] = []
        for root in self._callees:
            if root in index:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            on_stack.add(root)
            frames = [(root, iter(self._callees[root]))]
            while frames:
                node, succs = frames[-1]
                advanced = False
                for succ in succs:
                    if succ not in index:
                        index[succ] = low[succ] = len(index)
                        stack.append(succ)
                        on_stack.add(succ)
                        frames.append((succ, iter(self._callees.get(succ, ()))))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        order.append(member)
                        if member is node:
                            break
        return order


def _reach(
    func: Function, adjacency: Dict[Function, Dict[Function, None]]
) -> Set[Function]:
    """Functions reachable from *func* over one or more edges."""
    seen: Set[Function] = set()
    work = list(adjacency.get(func, ()))
    while work:
        node = work.pop()
        if node not in seen:
            seen.add(node)
            work.extend(adjacency.get(node, ()))
    return seen
