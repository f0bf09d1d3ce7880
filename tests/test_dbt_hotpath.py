"""DBT hot-path tier: trace superblocks, idiom fusion, and the
cycle-accounting/invalidation bugfixes that ride along.

Complements test_dbt_engine.py (baseline engine behaviour) and
test_dbt_differential.py (architectural identity).  Everything here drives
the engine directly against a flat memory, the way a single node's DBT
thread would.
"""

import pytest

from repro.dbt import CPUState, EngineTiming, ExecutionEngine, StopKind
from repro.dbt.backend import TranslationBlock
from repro.dbt.codecache import CodeCache
from repro.isa import SPECS, Instruction, assemble, encode
from repro.mem import FlatMemory, PAGE_SIZE, PageStall, page_of

TEXT = 0x1_0000

LOOP_SRC = """
_start:
  li t0, 0
loop:
  addi t0, t0, 1
  li t1, 200
  blt t0, t1, loop
  ecall
"""


def load(source):
    prog = assemble(source)
    mem = FlatMemory()
    mem.load_image(prog.iter_load_segments())
    cpu = CPUState(pc=prog.entry, tid=1, sp=0x7000_0000)
    return prog, mem, cpu


def run_to_syscall(engine, cpu, budget=100_000_000):
    stop = engine.run_quantum(cpu, budget)
    assert stop.kind is StopKind.SYSCALL, stop
    return stop


def synthetic_tb(pc, fn, *, n_insns=1, pages=None):
    return TranslationBlock(
        pc=pc,
        n_insns=n_insns,
        end_pc=pc + 4 * n_insns,
        fn=fn,
        source="<synthetic>",
        pages=pages if pages is not None else (pc // PAGE_SIZE,),
    )


class StallingMemory(FlatMemory):
    """Raises PageStall on first access to each listed data page."""

    def __init__(self, stall_pages):
        super().__init__()
        self.stall_pages = set(stall_pages)

    def _maybe_stall(self, addr, write):
        page = page_of(addr)
        if page in self.stall_pages:
            self.stall_pages.discard(page)
            raise PageStall(page, write, addr % PAGE_SIZE)

    def load(self, addr, size, signed):
        self._maybe_stall(addr, False)
        return super().load(addr, size, signed)

    def store(self, addr, size, value):
        self._maybe_stall(addr, True)
        super().store(addr, size, value)


def emit_words(mem, addr, instrs):
    code = b"".join(encode(i).to_bytes(4, "little") for i in instrs)
    mem.write_bytes(addr, code)


# -- bugfix: multi-page invalidation ---------------------------------------


class TestMultiPageInvalidation:
    def test_spanning_block_removed_from_every_page_index(self):
        cache = CodeCache()
        pc = 0x10_0000
        page = pc // PAGE_SIZE
        spanning = synthetic_tb(pc, lambda cpu, mem: 0, pages=(page, page + 1))
        cache.insert(spanning)

        assert cache.invalidate_page(page) == 1
        assert cache.peek(pc) is None

        # Re-translate at the same pc, this time within one page.  The old
        # block's stale entry in page+1's index must not shoot it down.
        smaller = synthetic_tb(pc, lambda cpu, mem: 0, pages=(page,))
        cache.insert(smaller)
        assert cache.invalidate_page(page + 1) == 0
        assert cache.peek(pc) is smaller

    def test_invalidating_either_page_drops_a_spanning_block(self):
        cache = CodeCache()
        pc = 0x10_0000
        page = pc // PAGE_SIZE
        for victim in (page, page + 1):
            tb = synthetic_tb(pc, lambda cpu, mem: 0, pages=(page, page + 1))
            cache.insert(tb)
            assert cache.invalidate_page(victim) == 1
            assert cache.peek(pc) is None
            # The sibling page's index holds no leftover entry.
            other = page + 1 if victim == page else page
            assert cache.invalidate_page(other) == 0

    def test_invalidation_count_not_inflated_by_stale_entries(self):
        cache = CodeCache()
        pc = 0x10_0000
        page = pc // PAGE_SIZE
        cache.insert(synthetic_tb(pc, lambda cpu, mem: 0, pages=(page, page + 1)))
        cache.invalidate_page(page)
        cache.insert(synthetic_tb(pc, lambda cpu, mem: 0, pages=(page,)))
        cache.invalidate_page(page + 1)
        assert cache.stats.invalidations == 1


# -- bugfix: block_ic reset before tb.fn -----------------------------------


class TestBlockIcReset:
    def test_fault_before_first_checkpoint_bills_zero_insns(self):
        # A block that stalls before its first `cpu.block_ic = k` assignment
        # (as a fused or miscompiled prologue could) must not be billed the
        # previous block's completed-instruction count.
        def stalls_immediately(cpu, mem):
            raise PageStall(0x999, False, 0)

        mem = FlatMemory()
        cpu = CPUState(pc=TEXT, tid=1)
        engine = ExecutionEngine(
            mem, timing=EngineTiming(cpi_dbt=10.0, translate_per_insn=0.0)
        )
        engine.cache.insert(synthetic_tb(TEXT, stalls_immediately, n_insns=4))
        cpu.block_ic = 57  # stale count from a previous block
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.PAGE_STALL
        assert stop.cycles == 0
        assert engine.insns_executed == 0

    def test_stall_on_blocks_first_memory_op_after_full_block(self):
        # Regression shape from the issue: a full block completes (block_ic
        # left at its length), then the next block stalls on its very first
        # memory instruction.  Only the first block's instructions may bill.
        src = """
        _start:
          li a0, 1
          li a1, 2
          la t2, cell
          j touch
        touch:
          ld a3, 0(t2)
          ecall
        .data
        cell: .quad 5
        """
        prog = assemble(src)
        mem = StallingMemory([page_of(prog.symbol("cell"))])
        mem.load_image(prog.iter_load_segments())
        cpu = CPUState(pc=prog.entry, tid=1)
        engine = ExecutionEngine(
            mem, timing=EngineTiming(cpi_dbt=10.0, translate_per_insn=0.0)
        )
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.PAGE_STALL
        # li + li + la(movz+3*movk) + j = 7 completed instructions; the
        # stalled ld contributes nothing.
        assert stop.cycles == 70
        stop2 = engine.run_quantum(cpu, 1_000_000)
        assert stop2.kind is StopKind.SYSCALL
        assert cpu.regs[13] == 5


# -- bugfix: exact fractional-cycle accounting ------------------------------


class TestExactCycleAccounting:
    def test_fractional_cpi_carries_remainder_across_quanta(self):
        prog, mem, cpu = load(LOOP_SRC.replace("li t1, 200", "li t1, 500"))
        timing = EngineTiming(cpi_dbt=2.88, translate_per_insn=800.0)
        engine = ExecutionEngine(mem, timing=timing)
        total = 0
        quanta = 0
        while True:
            stop = engine.run_quantum(cpu, 10)  # tiny budget: many stops
            total += stop.cycles
            quanta += 1
            if stop.kind is StopKind.SYSCALL:
                break
            assert stop.kind is StopKind.QUANTUM
        # Hundreds of stops: int-truncation at each would lose ~0.5 cycles
        # per stop.  The carried remainder keeps the long-run total equal to
        # the per-instruction model to within one cycle's rounding.
        assert quanta > 100
        model = (
            engine.insns_translated * timing.translate_per_insn
            + engine.insns_executed * timing.cpi_dbt
        )
        assert total + cpu.cycle_frac == pytest.approx(model, abs=1e-6)
        assert 0.0 <= cpu.cycle_frac < 1.0
        # The engine's own mode split agrees with the model as well.
        assert engine.translate_cycles + engine.execute_cycles == pytest.approx(
            model, abs=1e-6
        )

    def test_integral_cpi_never_accumulates_fraction(self):
        prog, mem, cpu = load(LOOP_SRC)
        engine = ExecutionEngine(mem)  # default timing: all-integer costs
        while engine.run_quantum(cpu, 100).kind is not StopKind.SYSCALL:
            assert cpu.cycle_frac == 0.0
        assert cpu.cycle_frac == 0.0

    def test_interp_mode_also_carries_remainder(self):
        prog, mem, cpu = load(LOOP_SRC)
        timing = EngineTiming(cpi_interp=30.5)
        engine = ExecutionEngine(mem, mode="interp", timing=timing)
        total = 0
        while True:
            stop = engine.run_quantum(cpu, 100)
            total += stop.cycles
            if stop.kind is StopKind.SYSCALL:
                break
        model = engine.insns_executed * timing.cpi_interp
        assert total + cpu.cycle_frac == pytest.approx(model, abs=1e-6)


# -- invalidation of rewritten code -----------------------------------------


class TestCodeRewrite:
    def _two_page_program(self, mem, value):
        """Block A (jal) on one page jumps to block B (li a0; ecall) on the
        next page, so invalidating B's page leaves A cached."""
        b_pc = TEXT + PAGE_SIZE
        emit_words(mem, TEXT, [Instruction(SPECS["jal"], rd=0, imm=b_pc - TEXT)])
        emit_words(mem, b_pc, [
            Instruction(SPECS["addi"], rd=10, rs1=0, imm=value),
            Instruction(SPECS["ecall"]),
        ])
        return b_pc

    def test_rewritten_page_runs_new_code(self):
        mem = FlatMemory()
        b_pc = self._two_page_program(mem, 1)
        engine = ExecutionEngine(mem)
        run_to_syscall(engine, CPUState(pc=TEXT, tid=1))

        assert engine.cache.invalidate_page(b_pc // PAGE_SIZE) == 1
        assert engine.cache.peek(TEXT) is not None  # A survives on its page

        # Guest rewrites B: dispatching from the still-cached A must
        # translate the new code, not run the stale block.
        emit_words(mem, b_pc, [
            Instruction(SPECS["addi"], rd=10, rs1=0, imm=2),
            Instruction(SPECS["ecall"]),
        ])
        cpu = CPUState(pc=TEXT, tid=2)
        run_to_syscall(engine, cpu)
        assert cpu.regs[10] == 2

    def test_flush_empties_the_cache(self):
        mem = FlatMemory()
        self._two_page_program(mem, 1)
        engine = ExecutionEngine(mem)
        run_to_syscall(engine, CPUState(pc=TEXT, tid=1))
        assert len(engine.cache) == 2
        engine.cache.flush()
        assert len(engine.cache) == 0
        assert engine.cache.peek(TEXT) is None


# -- superblock promotion and demotion --------------------------------------


class TestSuperblocks:
    # Long enough that the cheaper superblock CPI amortizes the one-off
    # trace-compilation cost (~max_blocks * body_insns * translate_per_insn).
    HOT_SRC = LOOP_SRC.replace("li t1, 200", "li t1, 20000")

    def test_hot_loop_promotes_and_matches_baseline_state(self):
        prog, mem, cpu = load(self.HOT_SRC)
        hot = ExecutionEngine(mem, superblock_threshold=4, superblock_max_blocks=6)
        stop_hot = run_to_syscall(hot, cpu)
        assert hot.superblocks_formed >= 1
        sbs = [tb for tb in hot.cache._blocks.values() if tb.is_superblock]
        assert sbs and sbs[0].exec_count > 0
        assert len(sbs[0].member_pcs) >= 2  # the loop body unrolled

        prog2, mem2, cpu2 = load(self.HOT_SRC)
        base = ExecutionEngine(mem2)
        stop_base = run_to_syscall(base, cpu2)
        assert cpu.regs == cpu2.regs and cpu.pc == cpu2.pc
        assert hot.insns_executed == base.insns_executed
        # Cheaper superblock CPI wins despite the extra trace compilation.
        assert stop_hot.cycles < stop_base.cycles
        assert hot.superblock_saved_cycles > 0

    def test_below_threshold_is_bit_identical_to_baseline(self):
        prog, mem, cpu = load(LOOP_SRC)
        off = ExecutionEngine(mem, superblock_threshold=0)
        stop_off = run_to_syscall(off, cpu)
        prog2, mem2, cpu2 = load(LOOP_SRC)
        base = ExecutionEngine(mem2)
        stop_base = run_to_syscall(base, cpu2)
        assert off.superblocks_formed == 0
        assert stop_off.cycles == stop_base.cycles
        assert cpu.regs == cpu2.regs

    def test_edges_profiled_only_while_superblocks_are_armed(self):
        prog, mem, cpu = load(LOOP_SRC)
        off = ExecutionEngine(mem, superblock_threshold=0)
        run_to_syscall(off, cpu)
        assert all(not tb.edges for tb in off.cache._blocks.values())

        prog2, mem2, cpu2 = load(LOOP_SRC)
        armed = ExecutionEngine(mem2, superblock_threshold=10**9)
        run_to_syscall(armed, cpu2)
        loop_tb = max(armed.cache._blocks.values(), key=lambda tb: tb.exec_count)
        assert sum(loop_tb.edges.values()) == loop_tb.exec_count

    @pytest.mark.parametrize("budget, sign", [(10_000, -1), (50_000, 1)])
    def test_saved_cycles_are_net_of_trace_compile_cost(self, budget, sign):
        # A one-block loop (addi; jal back) unrolls into a 4-member trace.
        mem = FlatMemory()
        emit_words(mem, TEXT, [
            Instruction(SPECS["addi"], rd=5, rs1=5, imm=1),
            Instruction(SPECS["jal"], rd=0, imm=-4),
        ])
        t = EngineTiming(cpi_dbt=3.0, cpi_superblock=1.0, translate_per_insn=800.0)
        engine = ExecutionEngine(mem, timing=t, superblock_threshold=3,
                                 superblock_max_blocks=4)
        stop = engine.run_quantum(CPUState(pc=TEXT, tid=1), budget)
        assert stop.kind is StopKind.QUANTUM
        sb = engine.cache.peek(TEXT)
        assert sb.is_superblock and sb.n_insns == 8
        gross = sb.exec_count * sb.n_insns * (t.cpi_dbt - t.cpi_superblock)
        compile_cost = sb.n_insns * t.translate_per_insn
        assert engine.superblock_saved_cycles == gross - compile_cost
        # A short run does not amortize the trace; a long one does.
        assert sign * engine.superblock_saved_cycles > 0

    def test_demotion_on_member_page_invalidation_then_repromotion(self):
        prog, mem, cpu = load(LOOP_SRC)
        engine = ExecutionEngine(mem, superblock_threshold=4, superblock_max_blocks=6)
        run_to_syscall(engine, cpu)
        sb = next(tb for tb in engine.cache._blocks.values() if tb.is_superblock)
        dropped = engine.cache.invalidate_page(sb.pages[0])
        assert dropped >= 1
        assert not any(tb.is_superblock for tb in engine.cache._blocks.values())

        formed_before = engine.superblocks_formed
        cpu2 = CPUState(pc=prog.entry, tid=2, sp=0x7000_0000)
        run_to_syscall(engine, cpu2)
        assert engine.superblocks_formed > formed_before
        assert cpu2.regs == cpu.regs

    def test_cross_page_trace_is_demoted_from_either_page(self):
        # A 1-instruction block at the tail of one page jumps to a block on
        # the next page, which jumps back: the promoted trace spans both
        # pages and must be indexed (and invalidatable) under each.
        mem = FlatMemory()
        a_pc = TEXT + PAGE_SIZE - 4
        b_pc = TEXT + PAGE_SIZE
        emit_words(mem, a_pc, [Instruction(SPECS["jal"], rd=0, imm=4)])
        emit_words(mem, b_pc, [
            Instruction(SPECS["addi"], rd=5, rs1=5, imm=1),
            Instruction(SPECS["jal"], rd=0, imm=a_pc - (b_pc + 4)),
        ])
        engine = ExecutionEngine(mem, superblock_threshold=3, superblock_max_blocks=4)
        stop = engine.run_quantum(CPUState(pc=a_pc, tid=1), 50_000)
        assert stop.kind is StopKind.QUANTUM
        sb = next(tb for tb in engine.cache._blocks.values() if tb.is_superblock)
        assert a_pc // PAGE_SIZE in sb.pages and b_pc // PAGE_SIZE in sb.pages
        engine.cache.invalidate_page(b_pc // PAGE_SIZE)
        assert not any(tb.is_superblock for tb in engine.cache._blocks.values())
        # No stale entry left under the first page either.
        assert engine.cache.peek(a_pc) is None or not engine.cache.peek(a_pc).is_superblock

    def test_trace_tail_may_end_in_a_syscall_block(self):
        src = """
        _start:
          li t0, 0
        loop:
          addi t0, t0, 1
          li t1, 50
          blt t0, t1, loop
          li a0, 42
          ecall
        """
        prog, mem, cpu = load(src)
        engine = ExecutionEngine(mem, superblock_threshold=2, superblock_max_blocks=8)
        run_to_syscall(engine, cpu)
        assert cpu.regs[10] == 42
        assert cpu.regs[5] == 50


# -- idiom fusion ------------------------------------------------------------


class TestFusion:
    def test_cmp_branch_fusion_hits_and_matches_baseline(self):
        src = """
        _start:
          li t0, 0
          li t6, 30
        loop:
          addi t0, t0, 1
          slt t5, t0, t6
          bne t5, zero, loop
          ecall
        """
        prog, mem, cpu = load(src)
        fused = ExecutionEngine(mem, fusion=True)
        stop_f = run_to_syscall(fused, cpu)
        assert fused.fusion_hits.get("cmp_branch", 0) >= 29
        prog2, mem2, cpu2 = load(src)
        base = ExecutionEngine(mem2)
        stop_b = run_to_syscall(base, cpu2)
        assert cpu.regs == cpu2.regs and cpu.pc == cpu2.pc
        assert fused.insns_executed == base.insns_executed
        assert stop_f.cycles < stop_b.cycles
        assert fused.fusion_saved_cycles > 0

    def test_load_op_fusion_hits_and_matches_baseline(self):
        src = """
        _start:
          li s0, 0
          li t0, 0
          li t6, 16
        loop:
          la t2, table
          slli t3, t0, 3
          add t2, t2, t3
          ld t4, 0(t2)
          add s0, s0, t4
          addi t0, t0, 1
          blt t0, t6, loop
          ecall
        .data
        table: .quad 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
        """
        prog, mem, cpu = load(src)
        fused = ExecutionEngine(mem, fusion=True)
        run_to_syscall(fused, cpu)
        assert fused.fusion_hits.get("load_op", 0) >= 16
        assert cpu.regs[8] == sum(range(1, 17))
        prog2, mem2, cpu2 = load(src)
        base = ExecutionEngine(mem2)
        run_to_syscall(base, cpu2)
        assert cpu.regs == cpu2.regs

    def test_atomic_branch_fusion_on_spin_idiom(self):
        src = """
        _start:
          la a0, cell
          li t1, 1
        retry:
          lr t0, (a0)
          bne t0, zero, retry
          sc t2, t1, (a0)
          bne t2, zero, retry
          ld a1, 0(a0)
          ecall
        .data
        .align 8
        cell: .quad 0
        """
        prog, mem, cpu = load(src)
        fused = ExecutionEngine(mem, fusion=True)
        run_to_syscall(fused, cpu)
        assert fused.fusion_hits.get("atomic_branch", 0) >= 2
        assert cpu.regs[11] == 1  # the lock was taken

    def test_fusion_not_applied_when_setcond_clobbers_source(self):
        # slt t0, t0, t6 then bne t0: the branch must see the *new* t0, so
        # the pair cannot be rewritten to re-test the original operands.
        src = """
        _start:
          li t0, 5
          li t6, 30
          slt t0, t0, t6
          bne t0, zero, taken
          li a0, 111
          ecall
        taken:
          li a0, 222
          ecall
        """
        prog, mem, cpu = load(src)
        fused = ExecutionEngine(mem, fusion=True)
        run_to_syscall(fused, cpu)
        assert fused.fusion_hits.get("cmp_branch", 0) == 0
        assert cpu.regs[10] == 222

    def test_fusion_inside_superblocks_compounds(self):
        # Enough iterations that the traces repay their compile cost, which
        # superblock_saved_cycles (a net figure) subtracts.
        src = """
        _start:
          li t0, 0
          li t6, 5000
        loop:
          addi t0, t0, 1
          slt t5, t0, t6
          bne t5, zero, loop
          ecall
        """
        prog, mem, cpu = load(src)
        engine = ExecutionEngine(
            mem, fusion=True, superblock_threshold=4, superblock_max_blocks=6
        )
        run_to_syscall(engine, cpu)
        assert engine.superblocks_formed >= 1
        assert engine.fusion_hits.get("cmp_branch", 0) > 50
        assert engine.superblock_saved_cycles > 0
        assert engine.fusion_saved_cycles > 0
        prog2, mem2, cpu2 = load(src)
        base = ExecutionEngine(mem2)
        run_to_syscall(base, cpu2)
        assert cpu.regs == cpu2.regs


# -- translation/execution mode split ---------------------------------------


class TestModeSplit:
    def test_stop_event_reports_translation_share(self):
        prog, mem, cpu = load("_start:\n li a0, 1\n li a1, 2\n ecall\n")
        timing = EngineTiming(cpi_dbt=2.0, translate_per_insn=100.0)
        engine = ExecutionEngine(mem, timing=timing)
        stop = run_to_syscall(engine, cpu)
        assert stop.cycles == 306
        assert stop.translate_cycles == 300
        assert engine.translate_cycles == 300.0
        assert engine.execute_cycles == 6.0

    def test_quantum_with_no_translation_reports_zero(self):
        prog, mem, cpu = load(LOOP_SRC)
        engine = ExecutionEngine(mem)
        engine.run_quantum(cpu, 10_000)  # warm: all blocks translated
        stop = engine.run_quantum(cpu, 10_000)
        assert stop.translate_cycles == 0
