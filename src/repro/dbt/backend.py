"""DBT backend: compile TCG micro-ops into host code.

The "host" here is the CPython VM: each translation block becomes one
generated Python function, built as source text and compiled with
``compile()`` — the same generate-once/execute-many structure as a JIT
emitting machine code, with the translation cost paid once per block.

Precise guest state: guest registers are committed as each guest instruction
completes, and before any instruction that can fault the generated code
records its pc and the count of completed instructions (``cpu.block_ic``).
A :class:`~repro.mem.api.PageStall` raised by the memory system therefore
propagates with the CPU stopped exactly at the faulting instruction, which
DQEMU's coherence machinery requires (§4.2).

Hot-path tier.  Beyond plain per-block compilation the backend supports:

* **successor metadata** — every block records its statically-known
  successor pcs (``succ_pcs``) so the engine can profile the edges a trace
  may grow along;
* **trace superblocks** (:meth:`Backend.compile_superblock`) — a hot path
  of blocks stitched into one generated function with a single entry and
  interior side exits, so hot loops pay one dispatch per trace instead of
  one per block;
* **idiom fusion** (:func:`find_fusions`) — a peephole over adjacent guest
  instructions that collapses recurring GA64 idioms (compare+branch,
  load+op, the guest-libc atomic spin idiom) into single host operations,
  each fused pair billed as one instruction by the engine.

Fusion never changes architectural state: every guest register write still
happens, and fused pairs are only formed when no precise-exception point
can observe the intermediate value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.dbt import fpu
from repro.dbt import runtime as rt
from repro.dbt.frontend import BlockIR
from repro.dbt.tcg import InstrIR, TCGOp
from repro.mem.layout import PAGE_SIZE

__all__ = ["TranslationBlock", "Backend", "find_fusions"]

M64 = rt.M64

#: Globals visible to generated code.
_CODEGEN_GLOBALS = {
    "M": M64,
    "s64": rt.s64,
    "sdiv64": rt.sdiv64,
    "udiv64": rt.udiv64,
    "srem64": rt.srem64,
    "urem64": rt.urem64,
    "mulh64": rt.mulh64,
    "mulhu64": rt.mulhu64,
    "b2f": fpu.b2f,
    "f2b": fpu.f2b,
    "fdiv_h": fpu.fdiv,
    "fsqrt_h": fpu.fsqrt,
    "fmin_h": fpu.fmin,
    "fmax_h": fpu.fmax,
    "fcvt_l_d": fpu.fcvt_l_d,
    "fcvt_d_l": fpu.fcvt_d_l,
}

_COND_EXPR = {
    "eq": "{a} == {b}",
    "ne": "{a} != {b}",
    "lt": "s64({a}) < s64({b})",
    "ge": "s64({a}) >= s64({b})",
    "ltu": "{a} < {b}",
    "geu": "{a} >= {b}",
}

_FBIN_EXPR = {
    "fadd": "f2b(b2f({a}) + b2f({b}))",
    "fsub": "f2b(b2f({a}) - b2f({b}))",
    "fmul": "f2b(b2f({a}) * b2f({b}))",
    "fdiv": "f2b(fdiv_h(b2f({a}), b2f({b})))",
    "fmin": "f2b(fmin_h(b2f({a}), b2f({b})))",
    "fmax": "f2b(fmax_h(b2f({a}), b2f({b})))",
}

_FSET_EXPR = {
    "feq": "1 if b2f({a}) == b2f({b}) else 0",
    "flt": "1 if b2f({a}) < b2f({b}) else 0",
    "fle": "1 if b2f({a}) <= b2f({b}) else 0",
}

_BIN_EXPR = {
    "add": "({a} + {b}) & M",
    "sub": "({a} - {b}) & M",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "({a} << ({b} & 63)) & M",
    "shr": "{a} >> ({b} & 63)",
    "sar": "(s64({a}) >> ({b} & 63)) & M",
    "mul": "({a} * {b}) & M",
    "mulh": "mulh64({a}, {b})",
    "mulhu": "mulhu64({a}, {b})",
    "div": "sdiv64({a}, {b})",
    "divu": "udiv64({a}, {b})",
    "rem": "srem64({a}, {b})",
    "remu": "urem64({a}, {b})",
}

_TERMINALS = ("brcond", "jmp", "jmp_ind", "exit")


@dataclass(eq=False)
class TranslationBlock:
    """A compiled block: guest extent, host function, and the source kept for
    diagnostics (``/proc``-style introspection and tests).

    ``eq=False`` keeps identity semantics: each block is a distinct compiled
    object with mutable counters, and the engine asks whether the cache
    still holds *this* block (``cache.peek(pc) is tb``).  A generated
    field-wise ``__eq__`` would compare host functions and counters, and
    would make blocks unhashable.
    """

    pc: int
    n_insns: int
    end_pc: int  # first byte past the last guest instruction
    fn: Callable
    source: str
    exec_count: int = 0
    #: Statically-known successor entry pcs (empty for indirect jumps).
    succ_pcs: tuple[int, ...] = ()
    #: Guest pages this block's code spans (union over members for
    #: superblocks) — the invalidation index key set.
    pages: tuple[int, ...] = ()
    #: Fused idiom groups: ``(end_index, pattern)`` where ``end_index`` is
    #: the cumulative index of the pair's second instruction.  A group whose
    #: second instruction completed is billed as one host operation.
    fused: tuple[tuple[int, str], ...] = ()
    #: Unfused block IR, kept so superblock formation can re-stitch it.
    ir: Optional[BlockIR] = None
    is_superblock: bool = False
    member_pcs: tuple[int, ...] = ()
    #: Latched when trace formation from this head failed; stops retrying.
    no_promote: bool = False
    #: Dynamic successor execution counts, recorded by the engine only while
    #: superblocks are armed, and used to pick the hottest path when growing
    #: a trace.
    edges: dict[int, int] = field(default_factory=dict)


def _page_span(pc: int, end_pc: int) -> tuple[int, ...]:
    return tuple(range(pc // PAGE_SIZE, max(end_pc - 1, pc) // PAGE_SIZE + 1))


def _successors(instrs: list[InstrIR], next_pc: int) -> tuple[int, ...]:
    """Static successor entry pcs of a block ending in ``instrs[-1]``."""
    last = instrs[-1].ops[-1] if instrs and instrs[-1].ops else None
    if last is None or last.name not in _TERMINALS:
        return (next_pc,)
    if last.name == "brcond":
        _a, _b, _cond, tgt, fall = last.args
        return (tgt,) if tgt == fall else (tgt, fall)
    if last.name == "jmp":
        return (last.args[0],)
    return ()  # jmp_ind / exit: target unknown or engine takes over


# -- idiom fusion -------------------------------------------------------------

_NEGATE_COND = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "ltu": "geu", "geu": "ltu"}
_ATOMIC_OPS = ("lr", "sc", "cas", "amoadd", "amoswap")


def _branch_on_zero(instr: InstrIR):
    """``(reg, taken_when_nonzero)`` if ``instr`` is beq/bne of a guest
    register against x0, else ``None``."""
    if not instr.ops or instr.ops[-1].name != "brcond":
        return None
    a, b, cond, _tgt, _fall = instr.ops[-1].args
    if cond not in ("eq", "ne"):
        return None
    for reg, zero in ((a, b), (b, a)):
        if zero == ("g", 0) and reg[0] == "g" and reg[1] != 0:
            return reg[1], cond == "ne"
    return None


def _try_fuse_cmp_branch(a: InstrIR, b: InstrIR) -> Optional[InstrIR]:
    """slt/sltu/slti/sltiu + beqz/bnez on its result → one direct brcond.

    The setcond still commits its register (architectural state preserved);
    the branch is rewritten to test the original operands, negating the
    condition for the beqz form.  Not applied when the setcond destination
    is also one of its sources — the rewritten branch would re-read a
    clobbered value.
    """
    if len(a.ops) != 1 or a.ops[0].name != "setcond":
        return None
    d, x, y, cond = a.ops[0].args
    if d[0] != "g" or d[1] == 0 or d in (x, y):
        return None
    bz = _branch_on_zero(b)
    if bz is None or bz[0] != d[1]:
        return None
    _a, _b, _c, tgt, fall = b.ops[-1].args
    newcond = cond if bz[1] else _NEGATE_COND[cond]
    return InstrIR(
        pc=b.pc,
        mnemonic=b.mnemonic,
        ops=[TCGOp("brcond", (x, y, newcond, tgt, fall))],
        can_fault=False,
    )


def _is_atomic_branch(a: InstrIR, b: InstrIR) -> bool:
    """lr/sc/cas/amo + beqz/bnez on its result — the guest-libc spin idiom
    (``rt_spin_lock``/``rt_mutex_lock`` retry loops)."""
    if len(a.ops) != 1 or a.ops[0].name not in _ATOMIC_OPS:
        return False
    d = a.ops[0].args[0]
    if d[0] != "g" or d[1] == 0:
        return False
    bz = _branch_on_zero(b)
    return bz is not None and bz[0] == d[1]


def _is_load_op(a: InstrIR, b: InstrIR) -> bool:
    """Plain load + integer op consuming the loaded register."""
    if len(a.ops) != 2 or a.ops[0].name != "add" or a.ops[1].name != "ld":
        return False
    d = a.ops[1].args[0]
    if d[0] != "g" or d[1] == 0:
        return False
    if len(b.ops) != 1 or b.can_fault:
        return False
    op2 = b.ops[0]
    if op2.name not in _BIN_EXPR and op2.name != "setcond":
        return False
    return d in op2.args[1:3]


def find_fusions(instrs: list[InstrIR]) -> tuple[list[InstrIR], list[tuple[int, str]]]:
    """Peephole over adjacent instruction pairs.

    Returns the (possibly rewritten) instruction list plus the fused
    ``(end_index, pattern)`` groups, non-overlapping and scanned left to
    right.  The instruction count is unchanged — fusion collapses host
    work, not architectural instructions.
    """
    out = list(instrs)
    groups: list[tuple[int, str]] = []
    k = 0
    while k < len(out) - 1:
        a, b = out[k], out[k + 1]
        fused_branch = _try_fuse_cmp_branch(a, b)
        if fused_branch is not None:
            out[k + 1] = fused_branch
            groups.append((k + 1, "cmp_branch"))
            k += 2
            continue
        if _is_atomic_branch(a, b):
            groups.append((k + 1, "atomic_branch"))
            k += 2
            continue
        if _is_load_op(a, b):
            groups.append((k + 1, "load_op"))
            k += 2
            continue
        k += 1
    return out, groups


class Backend:
    """TCG-to-Python compiler."""

    _ids = itertools.count()

    def compile(self, block: BlockIR, *, fusion: bool = False) -> TranslationBlock:
        instrs = block.instrs
        groups: list[tuple[int, str]] = []
        if fusion:
            instrs, groups = find_fusions(instrs)
        body, _terminated = self._emit_body(instrs, groups, 0, None, block.next_pc, set())
        lines = ["R = cpu.regs"] + body
        name = f"tb_{block.pc:x}_{next(self._ids)}"
        src = f"def {name}(cpu, mem):\n" + "\n".join("    " + ln for ln in lines) + "\n"
        ns: dict = {}
        exec(compile(src, f"<tb@{block.pc:#x}>", "exec"), dict(_CODEGEN_GLOBALS), ns)
        return TranslationBlock(
            pc=block.pc,
            n_insns=len(instrs),
            end_pc=block.next_pc,
            fn=ns[name],
            source=src,
            succ_pcs=_successors(instrs, block.next_pc),
            pages=_page_span(block.pc, block.next_pc),
            fused=tuple(groups),
            ir=block,
        )

    def compile_superblock(
        self, members: list[BlockIR], *, fusion: bool = False
    ) -> TranslationBlock:
        """Stitch a hot trace of blocks into one generated function.

        One entry (the head's pc); interior terminators that reach the next
        member fall through inside the function, every other outcome is a
        side exit that returns with guest state fully committed.  The same
        block may appear more than once (loop traces unroll themselves up
        to the trace-length cap).
        """
        lines = ["R = cpu.regs"]
        groups_all: list[tuple[int, str]] = []
        side_exits: set[int] = set()
        pages: set[int] = set()
        base = 0
        last = len(members) - 1
        tail_succs: tuple[int, ...] = ()
        for mi, block in enumerate(members):
            instrs = block.instrs
            groups: list[tuple[int, str]] = []
            if fusion:
                instrs, groups = find_fusions(instrs)
            groups_all.extend((base + end, pat) for end, pat in groups)
            pages.update(_page_span(block.pc, block.next_pc))
            next_entry = members[mi + 1].pc if mi < last else None
            lines.append(f"# member {mi}: block {block.pc:#x}")
            body, _terminated = self._emit_body(
                instrs, groups, base, next_entry, block.next_pc, side_exits
            )
            lines.extend(body)
            base += len(instrs)
            if mi == last:
                tail_succs = _successors(instrs, block.next_pc)
        head = members[0]
        name = f"sb_{head.pc:x}_{next(self._ids)}"
        src = f"def {name}(cpu, mem):\n" + "\n".join("    " + ln for ln in lines) + "\n"
        ns: dict = {}
        exec(compile(src, f"<sb@{head.pc:#x}>", "exec"), dict(_CODEGEN_GLOBALS), ns)
        return TranslationBlock(
            pc=head.pc,
            n_insns=base,
            end_pc=head.next_pc,
            fn=ns[name],
            source=src,
            succ_pcs=tuple(sorted(set(tail_succs) | side_exits)),
            pages=tuple(sorted(pages)),
            fused=tuple(groups_all),
            ir=None,
            is_superblock=True,
            member_pcs=tuple(b.pc for b in members),
        )

    # -- emission -------------------------------------------------------------

    def _emit_body(
        self,
        instrs: list[InstrIR],
        groups: list[tuple[int, str]],
        base: int,
        next_entry: Optional[int],
        next_pc: int,
        side_exits: set[int],
    ) -> tuple[list[str], bool]:
        """Emit ``instrs`` with cumulative instruction indices from ``base``.

        ``next_entry`` is the pc the enclosing superblock continues into
        (``None`` for a standalone block or the trace tail): terminators
        that reach it fall through to the member emitted next, anything
        else returns.  Off-trace targets are collected into ``side_exits``.
        """
        lines: list[str] = []
        end_ic = base + len(instrs)
        load_starts = {end - 1 for end, pat in groups if pat == "load_op"}
        skip: set[int] = set()
        terminated = False
        for j, ir in enumerate(instrs):
            if j in skip:
                continue
            k = base + j
            lines.append(f"# {ir.pc:#x}: {ir.mnemonic}")
            if ir.can_fault:
                # Precise exception point: pc + completed-instruction count.
                lines.append(f"cpu.pc = {ir.pc}")
                lines.append(f"cpu.block_ic = {k}")
            if j in load_starts:
                lines.extend(self._emit_load_op(ir, instrs[j + 1]))
                skip.add(j + 1)
                continue
            for op in ir.ops:
                if op.name in _TERMINALS:
                    lines.extend(
                        self._emit_terminal(op, ir, k, end_ic, next_entry, side_exits)
                    )
                    terminated = True
                else:
                    lines.extend(self._emit_simple(op))
        if not terminated and (next_entry is None or next_pc != next_entry):
            lines.append(f"cpu.block_ic = {end_ic}")
            lines.append(f"cpu.pc = {next_pc}")
            lines.append("return 0")
        return lines, terminated

    def _emit_load_op(self, ld_ir: InstrIR, op_ir: InstrIR) -> list[str]:
        """Fused load+op: one combined sequence, the consumer reading the
        loaded value from a host local instead of re-reading the register
        file.  The load still commits its register first, so a later fault
        observes precise state."""
        add_op, ld_op = ld_ir.ops
        d, addr, size, signed = ld_op.args
        lines = self._emit_simple(add_op)
        lines.append(f"_v = mem.load({self._ref(addr)}, {size}, {signed})")
        lines.append(f"{self._dst(d)} = _v")
        lines.append(f"# {op_ir.pc:#x}: {op_ir.mnemonic} (fused)")
        lines.extend(self._emit_simple(op_ir.ops[0], sub={d: "_v"}))
        return lines

    def _emit_terminal(
        self,
        op: TCGOp,
        ir: InstrIR,
        k: int,
        end_ic: int,
        next_entry: Optional[int],
        side_exits: set[int],
    ) -> list[str]:
        name = op.name
        if name == "brcond":
            a, b, cond, tgt, fall = op.args
            expr = _COND_EXPR[cond].format(a=self._ref(a), b=self._ref(b))
            lines = [
                f"cpu.block_ic = {end_ic}",
                f"cpu.pc = {tgt} if {expr} else {fall}",
            ]
            if next_entry is None:
                lines.append("return 0")
            else:
                side_exits.update(x for x in (tgt, fall) if x != next_entry)
                lines.append(f"if cpu.pc != {next_entry}:")
                lines.append("    return 0")
            return lines
        if name == "jmp":
            (tgt,) = op.args
            lines = [f"cpu.block_ic = {end_ic}", f"cpu.pc = {tgt}"]
            if next_entry is None or tgt != next_entry:
                if next_entry is not None:
                    side_exits.add(tgt)
                lines.append("return 0")
            return lines
        if name == "jmp_ind":
            (addr,) = op.args
            lines = [f"cpu.block_ic = {end_ic}", f"cpu.pc = {self._ref(addr)}"]
            if next_entry is None:
                lines.append("return 0")
            else:
                lines.append(f"if cpu.pc != {next_entry}:")
                lines.append("    return 0")
            return lines
        # exit: ecall/ebreak hand control to the engine unconditionally.
        (rc,) = op.args
        return [f"cpu.block_ic = {k + 1}", f"cpu.pc = {ir.pc + 4}", f"return {rc}"]

    def _ref(self, operand, sub: Optional[dict] = None) -> str:
        if sub is not None and operand in sub:
            return sub[operand]
        kind, v = operand
        if kind == "g":
            return "0" if v == 0 else f"R[{v}]"
        if kind == "t":
            return f"t{v}"
        return repr(v & M64)

    def _dst(self, operand) -> str:
        kind, v = operand
        if kind == "g":
            return "_" if v == 0 else f"R[{v}]"
        return f"t{v}"

    def _emit_simple(self, op: TCGOp, sub: Optional[dict] = None) -> list[str]:
        name = op.name
        if name in _BIN_EXPR:
            d, a, b = op.args
            return [
                f"{self._dst(d)} = "
                + _BIN_EXPR[name].format(a=self._ref(a, sub), b=self._ref(b, sub))
            ]
        if name == "mov":
            d, s = op.args
            return [f"{self._dst(d)} = {self._ref(s, sub)}"]
        if name == "setcond":
            d, a, b, cond = op.args
            expr = _COND_EXPR[cond].format(a=self._ref(a, sub), b=self._ref(b, sub))
            return [f"{self._dst(d)} = 1 if {expr} else 0"]
        if name == "fbin":
            d, a, b, f = op.args
            return [f"{self._dst(d)} = " + _FBIN_EXPR[f].format(a=self._ref(a), b=self._ref(b))]
        if name == "fun":
            d, a, f = op.args
            if f == "fsqrt":
                return [f"{self._dst(d)} = f2b(fsqrt_h(b2f({self._ref(a)})))"]
            return [f"{self._dst(d)} = {f}({self._ref(a)})"]
        if name == "fsetcond":
            d, a, b, cond = op.args
            return [f"{self._dst(d)} = " + _FSET_EXPR[cond].format(a=self._ref(a), b=self._ref(b))]
        if name == "ld":
            d, addr, size, signed = op.args
            return [f"{self._dst(d)} = mem.load({self._ref(addr)}, {size}, {signed})"]
        if name == "st":
            val, addr, size = op.args
            return [f"mem.store({self._ref(addr)}, {size}, {self._ref(val)})"]
        if name == "lr":
            d, addr = op.args
            return [f"{self._dst(d)} = mem.load_reserved(cpu, {self._ref(addr)})"]
        if name == "sc":
            d, val, addr = op.args
            return [
                f"{self._dst(d)} = 0 if mem.store_conditional(cpu, {self._ref(addr)}, {self._ref(val)}) else 1"
            ]
        if name == "cas":
            d, exp, val, addr = op.args
            return [
                f"{self._dst(d)} = mem.atomic_cas(cpu, {self._ref(addr)}, {self._ref(exp)}, {self._ref(val)})"
            ]
        if name in ("amoadd", "amoswap"):
            d, val, addr = op.args
            fn = "atomic_add" if name == "amoadd" else "atomic_swap"
            return [f"{self._dst(d)} = mem.{fn}(cpu, {self._ref(addr)}, {self._ref(val)})"]
        if name == "hint":
            (value,) = op.args
            return [f"cpu.hint_group = {value}"]
        if name == "hint_reg":
            (src,) = op.args
            return [f"cpu.hint_group = {self._ref(src)}"]
        if name == "fence":
            return ["pass  # fence: sequential across nodes by construction"]
        raise NotImplementedError(f"backend cannot emit {name}")  # pragma: no cover
