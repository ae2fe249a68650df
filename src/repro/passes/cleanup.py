"""Generic scalar/CFG cleanup: folding, DCE, CFG simplification.

These are the "existing LLVM capabilities" the paper's domain passes
lean on: once a domain pass replaces a runtime-state load with a
constant, this machinery folds the dependent branches, deletes the dead
state-machine blocks, and finally drops unreferenced state globals —
which is where the shared-memory savings of Fig. 11 come from.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.memory.memmodel import decode_scalar, scalar_size
from repro.ir.cfg import predecessors, reachable_blocks
from repro.ir.instructions import (
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Phi,
    PtrAdd,
    Select,
    Store,
)
from repro.ir.intrinsics import intrinsic_info
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import IntType, PointerType
from repro.ir.values import Constant, GlobalVariable, UndefValue, Value
from repro.passes.folding import (
    fold_binop,
    fold_cast,
    fold_fcmp,
    fold_icmp,
    fold_math_intrinsic,
)
from repro.passes.pass_manager import PassContext


def resolve_pointer_base(value: Value) -> Tuple[Optional[Value], Optional[int]]:
    """Chase a pointer back to (base, constant byte offset).

    Looks through ``ptradd`` with constant offsets and
    ``inttoptr(ptrtoint X)`` round-trips.  Returns ``(None, None)`` when
    the chain is not a constant-offset walk from a single base.
    """
    offset = 0
    seen = 0
    while True:
        seen += 1
        if seen > 64:  # defensive: cyclic or pathological chains
            return None, None
        if isinstance(value, PtrAdd):
            if not isinstance(value.offset, Constant):
                return None, None
            off_ty = value.offset.type
            assert isinstance(off_ty, IntType)
            offset += off_ty.to_signed(int(value.offset.value))
            value = value.pointer
            continue
        if isinstance(value, Cast) and value.opcode == "inttoptr":
            src = value.source
            if isinstance(src, Cast) and src.opcode == "ptrtoint":
                value = src.source
                continue
            return None, None
        if isinstance(value, Cast) and value.opcode == "bitcast":
            value = value.source
            continue
        return value, offset


def fold_constant_global_load(load: Load) -> Optional[Constant]:
    """Fold a load of a ``constant`` global with a known initializer.

    This is the §III-F mechanism: the compiler emits configuration
    values (over-subscription assumptions, the debug mask) as constant
    globals that the runtime "reads at compile time".
    """
    base, offset = resolve_pointer_base(load.pointer)
    if not isinstance(base, GlobalVariable) or offset is None:
        return None
    if not base.is_constant or base.initializer is None:
        return None
    size = scalar_size(load.type)
    if isinstance(base.initializer, bytes):
        image = base.initializer
    else:
        from repro.memory.memmodel import encode_scalar

        image = b"".join(
            encode_scalar(c.value, c.type) for c in base.initializer
        )
    if offset < 0 or offset + size > len(image):
        return None
    value = decode_scalar(image[offset : offset + size], load.type)
    return Constant(load.type, value)


def _fold_pointer_difference_icmp(inst: ICmp) -> Optional[Constant]:
    """Fold comparisons of offsets from the *same* base pointer.

    ``icmp uge (add (ptrtoint X), c1), (add (ptrtoint X), c2)`` and the
    degenerate forms fold by comparing c1 and c2 — the in-bounds
    assumption of pointer arithmetic (the shared-stack range check in
    ``__kmpc_free_shared`` folds this way once allocations are static).
    """

    def decompose(v: Value) -> Optional[Tuple[Value, int]]:
        offset = 0
        while isinstance(v, BinOp) and v.opcode == "add":
            if isinstance(v.rhs, Constant):
                ty = v.rhs.type
                assert isinstance(ty, IntType)
                offset += ty.to_signed(int(v.rhs.value))
                v = v.lhs
            elif isinstance(v.lhs, Constant):
                ty = v.lhs.type
                assert isinstance(ty, IntType)
                offset += ty.to_signed(int(v.lhs.value))
                v = v.rhs
            else:
                return None
        if isinstance(v, Cast) and v.opcode == "ptrtoint":
            base, extra = resolve_pointer_base(v.source)
            if base is None:
                return None
            return base, offset + (extra or 0)
        return None

    lhs = decompose(inst.lhs)
    rhs = decompose(inst.rhs)
    if lhs is None or rhs is None or lhs[0] is not rhs[0]:
        return None
    if inst.predicate not in ("ult", "ule", "ugt", "uge", "eq", "ne"):
        return None
    a, b = lhs[1], rhs[1]
    result = {
        "ult": a < b, "ule": a <= b, "ugt": a > b, "uge": a >= b,
        "eq": a == b, "ne": a != b,
    }[inst.predicate]
    from repro.ir.types import I1

    return Constant(I1, 1 if result else 0)


def _simplify_binop(inst: BinOp) -> Optional[Value]:
    lhs, rhs = inst.lhs, inst.rhs
    if isinstance(lhs, Constant) and isinstance(rhs, Constant):
        return fold_binop(inst.opcode, lhs, rhs)
    if isinstance(rhs, Constant) and rhs.value == 0:
        if inst.opcode in ("add", "sub", "or", "xor", "shl", "lshr", "ashr"):
            return lhs
        if inst.opcode == "mul":
            return rhs
    if isinstance(lhs, Constant) and lhs.value == 0:
        if inst.opcode in ("add", "or", "xor"):
            return rhs
        if inst.opcode in ("mul", "and"):
            return lhs
    if isinstance(rhs, Constant) and rhs.value == 1 and inst.opcode in ("mul", "sdiv", "udiv"):
        return lhs
    return None


def _simplify_icmp(inst: ICmp) -> Optional[Value]:
    if isinstance(inst.lhs, Constant) and isinstance(inst.rhs, Constant):
        return fold_icmp(inst.predicate, inst.lhs, inst.rhs)
    if inst.lhs is inst.rhs:
        from repro.ir.types import I1

        return Constant(I1, 1 if inst.predicate in ("eq", "ule", "uge", "sle", "sge") else 0)
    return _fold_pointer_difference_icmp(inst)


def _simplify_fcmp(inst: FCmp) -> Optional[Value]:
    if isinstance(inst.operands[0], Constant) and isinstance(inst.operands[1], Constant):
        return fold_fcmp(inst.predicate, inst.operands[0], inst.operands[1])
    return None


def _simplify_select(inst: Select) -> Optional[Value]:
    if isinstance(inst.condition, Constant):
        return inst.true_value if inst.condition.value else inst.false_value
    if inst.true_value is inst.false_value:
        return inst.true_value
    return None


def _simplify_cast(inst: Cast) -> Optional[Value]:
    src = inst.source
    if isinstance(src, Constant):
        return fold_cast(inst.opcode, src, inst.type)
    # inttoptr(ptrtoint X) -> X ; ptrtoint(inttoptr Y) -> Y
    if inst.opcode == "inttoptr" and isinstance(src, Cast) and src.opcode == "ptrtoint":
        inner = src.source
        if isinstance(inner.type, PointerType):
            return inner
    if inst.opcode == "ptrtoint" and isinstance(src, Cast) and src.opcode == "inttoptr":
        return src.source
    if inst.opcode == "bitcast" and src.type == inst.type:
        return src
    return None


def _simplify_ptradd(inst: PtrAdd) -> Optional[Value]:
    if isinstance(inst.offset, Constant) and inst.offset.value == 0:
        return inst.pointer
    return None


def _simplify_phi(inst: Phi) -> Optional[Value]:
    distinct = {op for op in inst.operands if op is not inst}
    non_undef = {op for op in distinct if not isinstance(op, UndefValue)}
    if len(non_undef) == 1:
        return next(iter(non_undef))
    return None


def _simplify_call(inst: Call) -> Optional[Value]:
    callee = inst.callee
    if callee is None:
        return None
    info = intrinsic_info(callee.name)
    if info is None:
        return None
    if info.constant_result is not None:
        return Constant(inst.type, info.constant_result)
    if info.readnone and all(isinstance(a, Constant) for a in inst.args):
        folded = fold_math_intrinsic(callee.name, list(inst.args))
        if folded is not None:
            return folded
    return None


def _simplify_load(inst: Load) -> Optional[Value]:
    if inst.is_volatile:
        return None
    return fold_constant_global_load(inst)


#: Per-opcode-class simplifiers (dispatch on the exact class: the
#: instruction classes have no subclasses).
_SIMPLIFIERS = {
    BinOp: _simplify_binop,
    ICmp: _simplify_icmp,
    FCmp: _simplify_fcmp,
    Select: _simplify_select,
    Cast: _simplify_cast,
    PtrAdd: _simplify_ptradd,
    Phi: _simplify_phi,
    Call: _simplify_call,
    Load: _simplify_load,
}


def simplify_instruction(inst: Instruction) -> Optional[Value]:
    """Return a simpler equivalent value for *inst*, or None."""
    simplifier = _SIMPLIFIERS.get(type(inst))
    return simplifier(inst) if simplifier is not None else None


def _combine_ptradd_chain(inst: PtrAdd) -> Optional[PtrAdd]:
    """ptradd(ptradd(X, c1), c2) -> ptradd(X, c1+c2)."""
    base = inst.pointer
    if (
        isinstance(base, PtrAdd)
        and isinstance(base.offset, Constant)
        and isinstance(inst.offset, Constant)
    ):
        from repro.ir.types import I64

        total = int(base.offset.type.to_signed(int(base.offset.value))) + int(
            inst.offset.type.to_signed(int(inst.offset.value))
        )
        return PtrAdd(base.pointer, Constant(I64, total), inst.name)
    return None


class Worklist:
    """Instructions of one function still to (re)visit, in FIFO order.

    LLVM-style: seeded once with every instruction, after which only the
    instructions a rewrite may have affected come back -- the users of a
    replaced value (they may simplify now) and the operands of an erased
    instruction (they may be dead now).  Each instruction is queued at
    most once at a time.  The drain loops below pop from ``queue`` and
    discard from ``queued`` inline: this is the hottest loop of the
    pipeline.
    """

    __slots__ = ("queue", "queued")

    def __init__(self, insts: List[Instruction]) -> None:
        self.queue: Deque[Instruction] = deque(insts)
        self.queued: Set[Instruction] = set(insts)

    def push(self, value: Value) -> None:
        if isinstance(value, Instruction) and value not in self.queued:
            self.queued.add(value)
            self.queue.append(value)

    def push_users(self, value: Value) -> None:
        """Queue every instruction whose simplification may depend on
        *value*: its users, and -- transitively -- the users of those
        users that simplifiers look through (``resolve_pointer_base``,
        the ptradd-chain combine and the pointer-difference compare read
        past ptradds, casts and adds to their operands)."""
        pending = [value]
        walked = {value}
        while pending:
            for use in pending.pop().uses:
                user = use.user
                if user not in self.queued:
                    self.queued.add(user)
                    self.queue.append(user)
                if type(user) in _LOOKED_THROUGH and user not in walked:
                    walked.add(user)
                    pending.append(user)


#: Instruction classes some simplifier reads *through* to their operands
#: (see :func:`resolve_pointer_base`, :func:`_combine_ptradd_chain`,
#: :func:`_fold_pointer_difference_icmp`, :func:`_simplify_cast`): when
#: one of their operands changes, their users may fold even if they do
#: not.
_LOOKED_THROUGH = (PtrAdd, Cast, BinOp)


class CleanupWork:
    """The two worklists of one function's cleanup: instructions to
    re-simplify and instructions to re-check for deadness."""

    __slots__ = ("combine", "dead", "_detached")

    def __init__(self, func: Function) -> None:
        insts = [inst for block in func.blocks for inst in block.instructions]
        self.combine = Worklist(insts)
        insts.reverse()
        self.dead = Worklist(insts)
        self._detached: Dict[BasicBlock, None] = {}

    def erase(self, inst: Instruction) -> None:
        """Erase *inst*; its operands may have become dead."""
        operands = list(inst.operands)
        self._detached[inst.parent] = None
        inst.detach()
        for op in operands:
            self.dead.push(op)

    def purge(self) -> None:
        """Drop the block slots of erased instructions (see ``detach``)."""
        for block in self._detached:
            block.purge_detached()
        self._detached.clear()

    def replace(self, inst: Instruction, value: Value) -> None:
        """RAUW *inst* with *value*; its users may simplify further."""
        self.combine.push_users(inst)
        inst.replace_all_uses_with(value)

    def operand_changed(self, inst: Instruction) -> None:
        """*inst* got a new operand: it and what reads through it may
        simplify further."""
        self.combine.push(inst)
        if type(inst) in _LOOKED_THROUGH:
            self.combine.push_users(inst)


def run_instcombine(func: Function, work: Optional[CleanupWork] = None) -> bool:
    """Local folding to fixpoint within one function."""
    if work is None:
        work = CleanupWork(func)
    changed = False
    queue, queued = work.combine.queue, work.combine.queued
    while queue:
        inst = queue.popleft()
        queued.discard(inst)
        if inst.parent is None:
            continue
        replacement = simplify_instruction(inst)
        if replacement is not None and replacement is not inst:
            work.replace(inst, replacement)
            if not inst.uses and not inst.is_terminator:
                work.erase(inst)
            changed = True
            continue
        if type(inst) is PtrAdd:
            combined = _combine_ptradd_chain(inst)
            if combined is not None:
                inst.parent.insert_before(inst, combined)
                work.replace(inst, combined)
                work.erase(inst)
                work.combine.push(combined)
                changed = True
    work.purge()
    return changed


def _is_removable_dead(inst: Instruction) -> bool:
    if inst.uses or inst.is_terminator:
        return False
    if isinstance(inst, Call):
        callee = inst.callee
        # Assumptions are kept alive until the final strip pass; they
        # carry information for the optimizer despite being readnone.
        if callee is not None and callee.name in ("llvm.assume",):
            return False
        return inst.is_readnone_callee()
    return not inst.may_have_side_effects()


def run_dce(func: Function, work: Optional[CleanupWork] = None) -> bool:
    """Erase trivially dead instructions to fixpoint within one function."""
    if work is None:
        work = CleanupWork(func)
    changed = False
    queue, queued = work.dead.queue, work.dead.queued
    while queue:
        inst = queue.popleft()
        queued.discard(inst)
        if not inst.uses and inst.parent is not None and _is_removable_dead(inst):
            work.erase(inst)
            changed = True
    work.purge()
    return changed


def _drop_phi_edge(phi: Phi, block: BasicBlock, work: CleanupWork) -> None:
    """Remove *phi*'s incoming edge from *block*, if it has one."""
    try:
        value = phi.incoming_value_for(block)
    except KeyError:
        return
    phi.remove_incoming(block)
    work.combine.push(phi)
    work.dead.push(value)


def _replace_terminator(block: BasicBlock, target: BasicBlock,
                        work: CleanupWork) -> None:
    """Replace *block*'s conditional branch with ``br target``."""
    term = block.instructions.pop()
    operands = list(term.operands)
    term.drop_all_references()
    term.parent = None
    block.append(Br(target))
    for op in operands:
        work.dead.push(op)


def run_simplify_cfg(
    func: Function,
    work: Optional[CleanupWork] = None,
    preds: Optional[Dict[BasicBlock, List[BasicBlock]]] = None,
) -> bool:
    """Fold constant branches and empty diamonds, delete unreachable
    blocks and merge straight-line block pairs, to fixpoint.

    *preds* (the CFG predecessors on entry, e.g. a cached map) is copied,
    and the copy is kept up to date as edges change instead of being
    recomputed.  Instructions the edits may have made foldable or dead
    are queued on *work* (a throwaway one when not given).
    """
    if work is None:
        work = CleanupWork(func)
    preds = {b: list(ps) for b, ps in (preds or predecessors(func)).items()}
    changed = False
    again = True
    while again:
        again = False

        # Fold constant conditional branches.
        for block in func.blocks:
            term = block.terminator
            if isinstance(term, CondBr):
                target: Optional[BasicBlock] = None
                if isinstance(term.condition, Constant):
                    target = term.true_target if term.condition.value else term.false_target
                elif term.true_target is term.false_target:
                    target = term.true_target
                if target is not None:
                    dropped = (
                        term.false_target if target is term.true_target else term.true_target
                    )
                    _replace_terminator(block, target, work)
                    if dropped is not target:
                        preds[dropped].remove(block)
                        for phi in dropped.phis():
                            _drop_phi_edge(phi, block, work)
                    again = changed = True

        # Fold empty diamonds: `condbr c, A, B` where A contains only
        # `br B` collapses to `br B` (the husk left behind once a
        # guarded write is dead-store-eliminated).
        for block in list(func.blocks):
            term = block.terminator
            if not isinstance(term, CondBr) or term.true_target is term.false_target:
                continue
            for arm, other in ((term.true_target, term.false_target),
                               (term.false_target, term.true_target)):
                if (
                    len(arm.instructions) == 1
                    and isinstance(arm.terminator, Br)
                    and arm.terminator.target is other
                    and preds.get(arm) == [block]
                    and not other.phis()
                ):
                    _replace_terminator(block, other, work)
                    preds[arm].remove(block)
                    again = changed = True
                    break
            if again:
                break
        if again:
            continue

        # Remove blocks unreachable from the entry.
        reachable = reachable_blocks(func)
        dead = [b for b in func.blocks if b not in reachable]
        if dead:
            dead_set = set(dead)
            for block in dead:
                for succ in block.successors():
                    if succ in reachable:
                        preds[succ].remove(block)
                        for phi in succ.phis():
                            _drop_phi_edge(phi, block, work)
            # Break operand references among dead blocks before removal.
            for block in dead:
                for inst in block.instructions:
                    for use in list(inst.uses):
                        user_block = use.user.parent
                        if user_block in dead_set:
                            continue
                        # A reachable user of a dead def can only be a phi
                        # on a removed edge; drop it defensively.
                        use.user.set_operand(use.index, UndefValue(inst.type))
                        work.operand_changed(use.user)
            for block in dead:
                for inst in block.instructions:
                    for op in inst.operands:
                        work.dead.push(op)
                func.remove_block(block)
                del preds[block]
            again = changed = True

        # Merge single-successor/single-predecessor block pairs.
        for block in list(func.blocks):
            if block is func.entry:
                continue
            ps = preds.get(block, [])
            if len(ps) != 1:
                continue
            pred = ps[0]
            term = pred.terminator
            if not isinstance(term, Br) or term.target is not block:
                continue
            if block.phis():
                for phi in block.phis():
                    work.combine.push_users(phi)
                    phi.replace_all_uses_with(phi.incoming_value_for(pred))
                    phi.remove_incoming(pred)
                    phi.erase_from_parent()
            pred.instructions.pop()
            term.drop_all_references()
            term.parent = None
            succs = block.successors()
            for inst in block.instructions:
                inst.parent = pred
                pred.instructions.append(inst)
            for succ in succs:
                preds[succ] = [pred if p is block else p for p in preds[succ]]
                for phi in succ.phis():
                    for i, incoming in enumerate(phi.incoming_blocks):
                        if incoming is block:
                            phi.incoming_blocks[i] = pred
            block.instructions = []
            func.blocks.remove(block)
            block.parent = None
            del preds[block]
            func.touch()
            again = changed = True
    return changed


def remove_dead_globals(module: Module) -> bool:
    changed = False
    for gv in list(module.globals.values()):
        if not gv.uses:
            module.remove_global(gv)
            changed = True
    return changed


def remove_dead_functions(module: Module, keep: Set[str] = frozenset()) -> bool:
    """Drop internal functions that are unreferenced and not kernels."""
    changed = True
    any_change = False
    while changed:
        changed = False
        for func in list(module.functions.values()):
            if func.is_kernel or func.name in keep:
                continue
            if func.linkage != "internal" and not func.is_declaration:
                continue
            if func.uses:
                continue
            if func.is_declaration:
                # Unreferenced declarations are just noise.
                module.remove_function(func)
                changed = any_change = True
                continue
            for block in list(func.blocks):
                func.remove_block(block)
            module.remove_function(func)
            changed = any_change = True
    return any_change


class CleanupPass:
    """fold + dce + simplifycfg to fixpoint, then dead global/function elim.

    Change-driven: a function this pass already left at its fixpoint,
    and that nothing touched since, is skipped.
    """

    name = "cleanup"

    def run(self, module: Module, ctx: PassContext) -> bool:
        changed = ctx.changes.run_per_function(
            self.name, module, lambda func: cleanup_function(func, ctx), fixpoint=True
        )
        changed |= remove_dead_functions(module)
        changed |= remove_dead_globals(module)
        return changed


def cleanup_function(func: Function, ctx: PassContext) -> bool:
    """Run fold + dce + simplifycfg on *func* until none changes it.

    The worklists are seeded once: the CFG step queues what its edits
    may have affected, and the loop stops once draining them changes
    nothing, since the CFG step already ran to its own fixpoint.
    """
    work = CleanupWork(func)
    changed = run_instcombine(func, work) | run_dce(func, work)
    while True:
        if not run_simplify_cfg(func, work, ctx.changes.predecessors(func)):
            return changed
        changed = True
        if not (run_instcombine(func, work) | run_dce(func, work)):
            return changed
