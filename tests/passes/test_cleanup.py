"""Cleanup passes: instcombine, DCE, CFG simplification, dead globals."""

import pytest

from repro.memory.addrspace import AddressSpace
from repro.ir import (
    Constant,
    GlobalVariable,
    I1,
    I32,
    I64,
    PTR,
    verify_module,
)
from repro.passes.cleanup import (
    CleanupPass,
    remove_dead_functions,
    remove_dead_globals,
    resolve_pointer_base,
    run_dce,
    run_instcombine,
    run_simplify_cfg,
)
from repro.passes.pass_manager import PassContext, PipelineConfig
from tests.conftest import make_function, make_kernel


def ctx():
    return PassContext(config=PipelineConfig())


class TestResolvePointerBase:
    def test_ptradd_chain(self, module):
        func, b = make_function(module, params=(PTR,))
        p = b.ptradd(b.ptradd(func.args[0], 8), 16)
        base, off = resolve_pointer_base(p)
        assert base is func.args[0] and off == 24

    def test_inttoptr_roundtrip(self, module):
        func, b = make_function(module, params=(PTR,))
        v = b.cast("ptrtoint", func.args[0], I64)
        p = b.cast("inttoptr", v, PTR)
        base, off = resolve_pointer_base(p)
        assert base is func.args[0] and off == 0

    def test_dynamic_offset_unresolved(self, module):
        func, b = make_function(module, params=(PTR, I64), arg_names=["p", "i"])
        p = b.ptradd(func.args[0], func.args[1])
        base, off = resolve_pointer_base(p)
        assert base is None and off is None


class TestInstCombine:
    def test_folds_through_dependent_chain(self, module):
        func, b = make_function(module)
        # (x * 0) + 5 -> 5 ; then icmp 5 == 5 -> true
        v = b.mul(func.args[0], 0)
        w = b.add(v, 5) if not isinstance(v, Constant) else b.i32(5)
        cmp = b.icmp("eq", w, b.i32(5))
        b.ret(b.zext(cmp, I32))
        run_instcombine(func)
        run_dce(func)
        assert sum(1 for _ in func.instructions()) <= 2  # zext+ret at most

    def test_constant_global_load_folds(self, module):
        gv = module.add_global(GlobalVariable(
            "flag", I32, addrspace=AddressSpace.CONSTANT,
            initializer=[Constant(I32, 1)], is_constant=True))
        func, b = make_function(module)
        v = b.load(I32, gv)
        b.ret(v)
        run_instcombine(func)
        run_dce(func)
        ret = func.entry.instructions[-1]
        assert isinstance(ret.return_value, Constant)
        assert ret.return_value.value == 1

    def test_mutable_global_load_not_folded(self, module):
        gv = module.add_global(GlobalVariable("state", I32))
        func, b = make_function(module)
        v = b.load(I32, gv)
        b.ret(v)
        run_instcombine(func)
        assert any(i.opcode == "load" for i in func.instructions())

    def test_ptradd_chain_combines(self, module):
        func, b = make_function(module, params=(PTR,))
        from repro.ir.instructions import PtrAdd, Load

        p1 = PtrAdd(func.args[0], Constant(I64, 8))
        b.block.append(p1)
        p2 = PtrAdd(p1, Constant(I64, 16))
        b.block.append(p2)
        ld = Load(I32, p2)
        b.block.append(ld)
        b.ret(ld)
        run_instcombine(func)
        loads = [i for i in func.instructions() if i.opcode == "load"]
        base, off = resolve_pointer_base(loads[0].pointer)
        assert off == 24

    def test_same_base_pointer_compare_folds(self, module):
        """The free_shared in-range check pattern."""
        gv = module.add_global(GlobalVariable("stack", I64, addrspace=AddressSpace.SHARED))
        func, b = make_function(module)
        lo = b.cast("ptrtoint", gv, I64)
        p = b.add(lo, b.i64(32))
        hi = b.add(lo, b.i64(128))
        in_lo = b.icmp("uge", p, lo)
        in_hi = b.icmp("ult", p, hi)
        both = b.and_(in_lo, in_hi)
        b.ret(b.zext(both, I32))
        run_instcombine(func)
        run_dce(func)
        ret = func.entry.instructions[-1]
        assert isinstance(ret.return_value, Constant)
        assert ret.return_value.value == 1


class TestDCE:
    def test_dead_pure_chain_removed(self, module):
        func, b = make_function(module)
        v = b.add(func.args[0], 1)
        b.mul(v, 2)  # dead
        b.ret(func.args[0])
        run_dce(func)
        assert sum(1 for _ in func.instructions()) == 1  # just ret

    def test_stores_never_removed_by_dce(self, module):
        func, b = make_function(module, params=(PTR,))
        b.store(b.function.args[0], func.args[0])
        b.ret(b.i32(0))
        run_dce(func)
        assert any(i.opcode == "store" for i in func.instructions())

    def test_assumes_survive_dce(self, module):
        func, b = make_function(module)
        b.assume(b.icmp("eq", func.args[0], b.i32(1)))
        b.ret(func.args[0])
        run_dce(func)
        from repro.ir.instructions import Call

        assert any(
            isinstance(i, Call) and i.callee.name == "llvm.assume"
            for i in func.instructions()
        )


class TestSimplifyCFG:
    def test_constant_branch_folds_and_removes_dead_block(self, module):
        func, b = make_function(module)
        then = func.add_block("then")
        els = func.add_block("els")
        b.cond_br(b.i1(True), then, els)
        b.set_insert_point(then)
        b.ret(b.i32(1))
        b.set_insert_point(els)
        b.ret(b.i32(2))
        run_simplify_cfg(func)
        assert len(func.blocks) == 1  # merged into entry
        verify_module(module)

    def test_phi_updated_when_edge_removed(self, module):
        func, b = make_function(module)
        then = func.add_block("then")
        merge = func.add_block("merge")
        b.cond_br(b.i1(True), then, merge)
        b.set_insert_point(then)
        b.br(merge)
        b.set_insert_point(merge)
        phi = b.phi(I32, "p")
        phi.add_incoming(b.i32(7), then)
        phi.add_incoming(b.i32(9), func.entry)
        b.ret(phi)
        run_simplify_cfg(func)
        run_instcombine(func)
        verify_module(module)
        ret = func.blocks[-1].instructions[-1]
        assert isinstance(ret.return_value, Constant)
        assert ret.return_value.value == 7

    def test_straightline_blocks_merge(self, module):
        func, b = make_function(module)
        b2 = func.add_block("b2")
        b3 = func.add_block("b3")
        b.br(b2)
        b.set_insert_point(b2)
        b.br(b3)
        b.set_insert_point(b3)
        b.ret(func.args[0])
        run_simplify_cfg(func)
        assert len(func.blocks) == 1

    def test_loops_preserved(self, module):
        func, b = make_function(module)
        header = func.add_block("header")
        body = func.add_block("body")
        exit_ = func.add_block("exit")
        b.br(header)
        b.set_insert_point(header)
        iv = b.phi(I32, "iv")
        iv.add_incoming(b.i32(0), func.entry)
        b.cond_br(b.icmp("slt", iv, func.args[0]), body, exit_)
        b.set_insert_point(body)
        nxt = b.add(iv, 1)
        iv.add_incoming(nxt, body)
        b.br(header)
        b.set_insert_point(exit_)
        b.ret(iv)
        before = len(func.blocks)
        run_simplify_cfg(func)
        verify_module(module)
        assert any(len(blk.successors()) == 2 for blk in func.blocks)


class TestDeadGlobalsAndFunctions:
    def test_unreferenced_global_removed(self, module):
        module.add_global(GlobalVariable("dead", I32))
        func, b = make_kernel(module, params=())
        b.ret()
        remove_dead_globals(module)
        assert "dead" not in module.globals

    def test_referenced_global_kept(self, module):
        gv = module.add_global(GlobalVariable("live", I32))
        func, b = make_kernel(module, params=())
        b.load(I32, gv, volatile=True)
        b.ret()
        remove_dead_globals(module)
        assert "live" in module.globals

    def test_unreferenced_internal_function_removed(self, module):
        dead, db = make_function(module, "dead")
        dead.linkage = "internal"
        db.ret(dead.args[0])
        func, b = make_kernel(module, params=())
        b.ret()
        remove_dead_functions(module)
        assert "dead" not in module.functions

    def test_kernel_never_removed(self, module):
        func, b = make_kernel(module, params=())
        b.ret()
        remove_dead_functions(module)
        assert "kern" in module.functions

    def test_transitively_dead_chain_removed(self, module):
        inner, ib = make_function(module, "inner")
        inner.linkage = "internal"
        ib.ret(inner.args[0])
        outer, ob = make_function(module, "outer")
        outer.linkage = "internal"
        ob.ret(ob.call(inner, [outer.args[0]]))
        kern, kb = make_kernel(module, params=())
        kb.ret()
        cleanup = CleanupPass()
        cleanup.run(module, ctx())
        assert "inner" not in module.functions
        assert "outer" not in module.functions


class TestChangeDrivenCleanup:
    """A function cleanup left stable is skipped until something it
    depends on changes: its own body, or a module-level fact folding
    reads (a global's constness/initializer, a callee's readnone)."""

    def test_stable_function_is_skipped(self, module):
        func, b = make_function(module)
        b.ret(b.add(func.args[0], 1))
        c = ctx()
        CleanupPass().run(module, c)
        assert (c.changes.visited, c.changes.skipped) == (1, 0)
        c.changes.visited, c.changes.skipped = None, 0
        CleanupPass().run(module, c)
        assert (c.changes.visited, c.changes.skipped) == (0, 1)

    def test_global_becoming_constant_revisits_its_users(self, module):
        gv = module.add_global(GlobalVariable(
            "flag", I32, addrspace=AddressSpace.CONSTANT,
            initializer=[Constant(I32, 7)]))
        func, b = make_function(module)
        b.ret(b.load(I32, gv))
        c = ctx()
        CleanupPass().run(module, c)
        assert any(i.opcode == "load" for i in func.instructions())
        gv.is_constant = True
        assert CleanupPass().run(module, c)
        ret = func.entry.instructions[-1]
        assert isinstance(ret.return_value, Constant) and ret.return_value.value == 7

    def test_callee_becoming_readnone_revisits_its_callers(self, module):
        from repro.ir import FunctionType
        from repro.ir.intrinsics import declare_intrinsic

        tid = module.declare("gpu.thread_id", FunctionType(I32, ()))
        func, b = make_function(module)
        b.call(tid, [])  # dead, but not removable while not readnone
        b.ret(func.args[0])
        c = ctx()
        CleanupPass().run(module, c)
        assert any(i.opcode == "call" for i in func.instructions())
        declare_intrinsic(module, "gpu.thread_id")
        assert CleanupPass().run(module, c)
        assert not any(i.opcode == "call" for i in func.instructions())

    def test_load_through_ptradd_revisited_when_offset_folds_later(self, module):
        """A constant-global load whose ptradd offset folds only after the
        load was visited still folds, exactly as a full re-sweep does."""
        from repro.ir.instructions import BinOp
        from repro.ir.printer import print_module
        from tests.passes.test_pass_fuzz import _force_full_sweep

        def build(module):
            gv = module.add_global(GlobalVariable(
                "tbl", I32, addrspace=AddressSpace.CONSTANT,
                initializer=[Constant(I32, 7), Constant(I32, 9)],
                is_constant=True))
            func, b = make_function(module, params=(I64,))
            # The offset is defined in a block listed after its use (as
            # after inlining), so the load is visited before it folds.
            use = func.add_block("use")
            define = func.add_block("define")
            b.br(define)
            zero = define.append(BinOp("mul", func.args[0], Constant(I64, 0)))
            off = define.append(BinOp("add", zero, Constant(I64, 4)))
            b.set_insert_point(define)
            b.br(use)
            b.set_insert_point(use)
            b.ret(b.load(I32, b.ptradd(gv, off)))
            return func

        func = build(module)
        CleanupPass().run(module, ctx())
        verify_module(module)
        ret = func.blocks[-1].instructions[-1]
        assert isinstance(ret.return_value, Constant) and ret.return_value.value == 9

        from repro.ir import Module

        reference = Module(module.name)
        build(reference)
        with pytest.MonkeyPatch.context() as patch:
            _force_full_sweep(patch)
            CleanupPass().run(reference, ctx())
        assert print_module(module, canonical=True) == print_module(
            reference, canonical=True)
