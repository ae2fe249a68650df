"""Function inlining.

The co-design depends on inlining: runtime entry points are built
``alwaysinline`` so their state accesses land inside the kernel where
the value-propagation machinery can see them (§IV-B), and outlined loop
bodies become direct calls once the worksharing runtime is inlined
around them (the function-pointer argument folds to the callee).
Recursive functions are never inlined — which is exactly why MiniFMM's
tree traversal keeps residual overhead in the paper's evaluation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.callgraph import CallGraph
from repro.ir.instructions import (
    Alloca,
    Br,
    Call,
    CondBr,
    Instruction,
    Phi,
    Ret,
    Unreachable,
    clone_instruction,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import VOID
from repro.ir.values import UndefValue, Value
from repro.passes.pass_manager import PassContext

#: Do not inline bodies bigger than this unless ``alwaysinline``.
INLINE_THRESHOLD = 80


def _should_inline(callee: Function, num_sites: int) -> bool:
    if callee.is_declaration:
        return False
    if "noinline" in callee.attrs:
        return False
    if "alwaysinline" in callee.attrs:
        return True
    if callee.linkage != "internal":
        return False
    size = sum(1 for _ in callee.instructions())
    return num_sites <= 2 or size <= INLINE_THRESHOLD


def inline_call(call: Call) -> None:
    """Inline *call*'s direct callee at the call site."""
    callee = call.callee
    assert callee is not None and not callee.is_declaration
    caller_block = call.parent
    assert caller_block is not None
    caller = caller_block.parent
    assert caller is not None

    # Split the caller block at the call site.
    call_index = caller_block.instructions.index(call)
    after_block = caller.add_block(f"{caller_block.name}.split", after=caller_block)
    tail = caller_block.instructions[call_index + 1 :]
    del caller_block.instructions[call_index + 1 :]
    for inst in tail:
        inst.parent = after_block
        after_block.instructions.append(inst)
    # Successor phis must now name the tail block as their predecessor.
    for succ in after_block.successors():
        for phi in succ.phis():
            for i, incoming in enumerate(phi.incoming_blocks):
                if incoming is caller_block:
                    phi.incoming_blocks[i] = after_block

    # Clone the callee body in reverse post-order: a dominator always
    # precedes its dominatees in RPO, so non-phi operands are mapped
    # before they are used (phis are wired up afterwards).
    from repro.ir.cfg import reverse_post_order

    clone_order = reverse_post_order(callee)
    value_map: Dict[Value, Value] = {}
    for formal, actual in zip(callee.args, call.args):
        value_map[formal] = actual
    block_map: Dict[BasicBlock, BasicBlock] = {}
    for block in clone_order:
        block_map[block] = caller.add_block(f"{callee.name}.{block.name}")

    returns: List[Tuple[Optional[Value], BasicBlock]] = []
    cloned_phis: List[Tuple[Phi, Phi]] = []
    for block in clone_order:
        new_block = block_map[block]
        for inst in block.instructions:
            if isinstance(inst, Ret):
                rv = inst.return_value
                mapped = value_map.get(rv, rv) if rv is not None else None
                new_block.append(Br(after_block))
                returns.append((mapped, new_block))
                continue
            new_inst = clone_instruction(inst, value_map)
            value_map[inst] = new_inst
            if isinstance(inst, Phi):
                cloned_phis.append((inst, new_inst))  # fill incomings later
            if isinstance(new_inst, Br):
                new_inst.target = block_map[new_inst.target]
            elif isinstance(new_inst, CondBr):
                new_inst.true_target = block_map[new_inst.true_target]
                new_inst.false_target = block_map[new_inst.false_target]
            new_block.append(new_inst)

    for old_phi, new_phi in cloned_phis:
        for value, block in zip(old_phi.operands, old_phi.incoming_blocks):
            if block in block_map:  # edges from unreachable blocks vanish
                new_phi.add_incoming(value_map.get(value, value), block_map[block])

    # Hoist inlined allocas to the caller entry so loops around the call
    # site don't re-allocate (LLVM does the same).  Each lands first
    # after the entry's phis, so they end up in reverse visiting order.
    entry = caller.entry
    hoisted: List[Instruction] = []
    for block in block_map.values():
        allocas = [i for i in block.instructions if isinstance(i, Alloca)]
        if allocas:
            hoisted.extend(allocas)
            block.instructions[:] = [
                i for i in block.instructions if not isinstance(i, Alloca)
            ]
    if hoisted:
        hoisted.reverse()
        for inst in hoisted:
            inst.parent = entry
        at = entry.first_non_phi_index()
        entry.instructions[at:at] = hoisted
        caller.touch()

    # Route the caller into the inlined entry.
    caller_block.append(Br(block_map[callee.entry]))

    # Wire up the return value.
    if call.type != VOID and call.uses:
        live_returns = [(v, b) for v, b in returns if v is not None]
        if not live_returns:
            call.replace_all_uses_with(UndefValue(call.type))
        elif len(live_returns) == 1:
            call.replace_all_uses_with(live_returns[0][0])
        else:
            phi = Phi(call.type, f"{callee.name}.ret")
            after_block.insert(0, phi)
            for value, block in live_returns:
                phi.add_incoming(value, block)
            call.replace_all_uses_with(phi)
    else:
        if call.uses:
            call.replace_all_uses_with(UndefValue(call.type))

    # Finally remove the call itself (it sat at the end of caller_block
    # before the br we just appended).
    assert caller_block.instructions[-2] is call
    del caller_block.instructions[-2]
    call.drop_all_references()
    call.parent = None

    # If the callee could not return (no rets), the after block is
    # unreachable; leave it for simplifycfg to clean up, but make sure
    # it still ends in a terminator.
    if not after_block.terminator:
        after_block.append(Unreachable())


class InlinePass:
    """Bottom-up inlining of runtime calls and outlined bodies."""

    name = "inline"

    def run(self, module: Module, ctx: PassContext) -> bool:
        if not ctx.config.enable_inlining:
            return False
        changed = False
        rounds = 0
        while rounds < 10:
            rounds += 1
            cg = CallGraph(module)
            sites: List[Call] = []
            for func in list(module.defined_functions()):
                for inst in list(func.instructions()):
                    if not isinstance(inst, Call):
                        continue
                    callee = inst.callee
                    if callee is None or callee.is_declaration:
                        continue
                    if callee is func or cg.is_recursive(callee):
                        if callee is not func and "alwaysinline" not in callee.attrs:
                            ctx.remarks.missed(
                                self.name,
                                func.name,
                                f"not inlining recursive @{callee.name}",
                            )
                        continue
                    num_sites = len(cg.all_call_sites_of(callee))
                    if _should_inline(callee, num_sites):
                        sites.append(inst)
            if not sites:
                break
            for call in sites:
                if call.parent is None:  # removed by a previous inline
                    continue
                callee = call.callee
                if callee is None or callee.is_declaration:
                    continue
                inline_call(call)
                changed = True
        return changed
