"""Execution-engine behaviour: quanta, code cache, precise page stalls, faults."""

from repro.dbt import CPUState, EngineTiming, ExecutionEngine, StopKind
from repro.errors import InvalidInstruction, UnalignedAccess
from repro.isa import assemble
from repro.mem import PAGE_SIZE, page_of
from tests.conftest import StallingMemory, local_memory

TEXT = 0x1_0000


def load(source):
    prog = assemble(source)
    mem = local_memory(prog.iter_load_segments())
    cpu = CPUState(pc=prog.entry, tid=1, sp=0x7000_0000)
    return prog, mem, cpu


class TestQuantum:
    def test_quantum_expires_on_infinite_loop(self):
        prog, mem, cpu = load("_start:\n j _start\n")
        engine = ExecutionEngine(mem)
        stop = engine.run_quantum(cpu, 10_000)
        assert stop.kind is StopKind.QUANTUM
        assert stop.cycles >= 10_000

    def test_cycles_accounted_for_translated_code(self):
        prog, mem, cpu = load("_start:\n li a0, 1\n li a1, 2\n ecall\n")
        timing = EngineTiming(cpi_dbt=2.0, translate_per_insn=100.0)
        engine = ExecutionEngine(mem, timing=timing)
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.SYSCALL
        # 3 instructions: translation 300 + execution 6
        assert stop.cycles == 306
        assert engine.insns_executed == 3
        assert engine.insns_translated == 3

    def test_retranslation_not_charged_twice(self):
        prog, mem, cpu = load(
            """
            _start:
              li t0, 0
            loop:
              addi t0, t0, 1
              li t1, 5
              blt t0, t1, loop
              ecall
            """
        )
        timing = EngineTiming(cpi_dbt=1.0, translate_per_insn=1000.0)
        engine = ExecutionEngine(mem, timing=timing)
        stop = engine.run_quantum(cpu, 10_000_000)
        assert stop.kind is StopKind.SYSCALL
        assert engine.cache.stats.translations == 3  # entry, loop body, exit


class TestCodeCache:
    def test_blocks_reused_across_loop_iterations(self):
        prog, mem, cpu = load(
            """
            _start:
              li t0, 0
            loop:
              addi t0, t0, 1
              li t1, 100
              blt t0, t1, loop
              ecall
            """
        )
        engine = ExecutionEngine(mem)
        engine.run_quantum(cpu, 100_000_000)
        stats = engine.cache.stats
        assert stats.translations <= 4
        assert stats.misses == stats.translations

    def test_chaining_disabled_pays_a_lookup_per_block(self):
        # The engine does not chain blocks, so every loop iteration
        # dispatches the body through one cache probe, and all but the
        # first few find it already translated.
        prog, mem, cpu = load(
            """
            _start:
              li t0, 0
            loop:
              addi t0, t0, 1
              li t1, 100
              blt t0, t1, loop
              ecall
            """
        )
        engine = ExecutionEngine(mem)
        engine.run_quantum(cpu, 100_000_000)
        stats = engine.cache.stats
        assert stats.lookups > 100
        assert 1 - stats.misses / stats.lookups > 0.9

    def test_invalidate_page_drops_blocks(self):
        prog, mem, cpu = load("_start:\n li a0, 1\n ecall\n")
        engine = ExecutionEngine(mem)
        engine.run_quantum(cpu, 1_000_000)
        assert len(engine.cache) > 0
        dropped = engine.cache.invalidate_page(TEXT // PAGE_SIZE)
        assert dropped > 0
        assert len(engine.cache) == 0

    def test_invalidated_block_is_retranslated(self):
        prog, mem, cpu = load("_start:\n li a0, 1\n ecall\n")
        engine = ExecutionEngine(mem)
        engine.run_quantum(cpu, 1_000_000)
        first = engine.cache.stats.translations
        engine.cache.invalidate_page(TEXT // PAGE_SIZE)
        cpu2 = CPUState(pc=prog.entry, tid=2)
        engine.run_quantum(cpu2, 1_000_000)
        assert engine.cache.stats.translations == 2 * first

    def test_block_does_not_cross_page_boundary(self):
        # straight-line code spanning a page edge must split into >= 2 blocks
        body = "\n".join("  addi t0, t0, 1" for _ in range(2000))
        prog, mem, cpu = load(f"_start:\n{body}\n  ecall\n")
        engine = ExecutionEngine(mem)
        engine.run_quantum(cpu, 100_000_000)
        for pc in list(engine.cache._blocks):
            tb = engine.cache._blocks[pc]
            last_insn_start = tb.end_pc - 4
            assert page_of(tb.pc) == page_of(last_insn_start)


class TestPreciseStalls:
    def test_stall_mid_block_resumes_exactly(self):
        src = """
        _start:
          li a0, 1
          li a1, 10
          la t2, cell
          sd a1, 0(t2)       # faults here on first touch
          addi a0, a0, 100
          ecall
        .data
        cell: .quad 0
        """
        prog = assemble(src)
        data_page = page_of(prog.symbol("cell"))
        mem = StallingMemory([data_page], prog.iter_load_segments())
        cpu = CPUState(pc=prog.entry, tid=1)
        engine = ExecutionEngine(mem)
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.PAGE_STALL
        assert stop.info.page == data_page
        assert stop.info.write is True
        # a0 committed by earlier instructions, the store not yet done
        assert cpu.regs[10] == 1
        # resume: the faulting sd re-executes, then the block completes
        stop2 = engine.run_quantum(cpu, 1_000_000)
        assert stop2.kind is StopKind.SYSCALL
        assert cpu.regs[10] == 101
        assert mem.load(prog.symbol("cell"), 8, False) == 10

    def test_stall_cycle_accounting_counts_completed_insns_only(self):
        src = """
        _start:
          li a0, 1
          la t2, cell
          ld a1, 0(t2)
          ecall
        .data
        cell: .quad 7
        """
        prog = assemble(src)
        data_page = page_of(prog.symbol("cell"))
        mem = StallingMemory([data_page], prog.iter_load_segments())
        cpu = CPUState(pc=prog.entry, tid=1)
        timing = EngineTiming(cpi_dbt=10.0, translate_per_insn=0.0)
        engine = ExecutionEngine(mem, timing=timing)
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.PAGE_STALL
        # li (1) + la (4 = movz+3*movk) completed; ld not committed
        assert stop.cycles == 50

    def test_interp_mode_stalls_identically(self):
        src = """
        _start:
          la t2, cell
          ld a1, 0(t2)
          ecall
        .data
        cell: .quad 99
        """
        prog = assemble(src)
        mem = StallingMemory([page_of(prog.symbol("cell"))], prog.iter_load_segments())
        cpu = CPUState(pc=prog.entry, tid=1)
        engine = ExecutionEngine(mem, mode="interp")
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.PAGE_STALL
        stop2 = engine.run_quantum(cpu, 1_000_000)
        assert stop2.kind is StopKind.SYSCALL
        assert cpu.regs[11] == 99


class TestFaults:
    def test_invalid_instruction_faults(self):
        mem = local_memory([(TEXT, b"\x00\x00\x00\x00")])  # opcode 0 undefined
        cpu = CPUState(pc=TEXT, tid=1)
        engine = ExecutionEngine(mem)
        stop = engine.run_quantum(cpu, 1000)
        assert stop.kind is StopKind.FAULT
        assert isinstance(stop.info, InvalidInstruction)

    def test_page_crossing_access_faults(self):
        src = """
        _start:
          la t0, edge
          addi t0, t0, 4090
          ld a0, 0(t0)
          ecall
        .data
        .align 4096
        edge: .space 8192
        """
        # 'edge' begins page-aligned, +4090 crosses into the next page mid-load
        prog, mem, cpu = load(src)
        engine = ExecutionEngine(mem)
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.FAULT
        assert isinstance(stop.info, UnalignedAccess)

    def test_unaligned_atomic_faults(self):
        src = """
        _start:
          la t0, cell
          addi t0, t0, 4
          lr a0, (t0)
          ecall
        .data
        .align 8
        cell: .quad 0
        """
        prog, mem, cpu = load(src)
        engine = ExecutionEngine(mem)
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.FAULT
        assert isinstance(stop.info, UnalignedAccess)

    def test_ebreak_stops_with_break(self):
        prog, mem, cpu = load("_start:\n ebreak\n")
        engine = ExecutionEngine(mem)
        stop = engine.run_quantum(cpu, 1000)
        assert stop.kind is StopKind.BREAK

    def test_fault_pc_is_precise(self):
        src = """
        _start:
          li a0, 3
          la t0, cell
          addi t0, t0, 1
          lr a1, (t0)
          ecall
        .data
        .align 8
        cell: .quad 0
        """
        prog, mem, cpu = load(src)
        engine = ExecutionEngine(mem)
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.FAULT
        # pc parked at the faulting lr, with prior instructions committed
        assert cpu.regs[10] == 3
        lr_pc = prog.entry + 4 * (1 + 4 + 1)  # li(1) + la(4) + addi(1)
        assert cpu.pc == lr_pc


class TestGeneratedCode:
    def test_tb_source_is_recorded(self):
        prog, mem, cpu = load("_start:\n li a0, 7\n ecall\n")
        engine = ExecutionEngine(mem)
        engine.run_quantum(cpu, 1_000_000)
        tb = engine.cache.peek(prog.entry)
        assert tb is not None
        assert "def tb_" in tb.source
        assert "R = cpu.regs" in tb.source

    def test_exec_count_tracks_hot_blocks(self):
        prog, mem, cpu = load(
            """
            _start:
              li t0, 0
            loop:
              addi t0, t0, 1
              li t1, 50
              blt t0, t1, loop
              ecall
            """
        )
        engine = ExecutionEngine(mem)
        engine.run_quantum(cpu, 100_000_000)
        counts = sorted(tb.exec_count for tb in engine.cache._blocks.values())
        # The entry block subsumes the first iteration; the loop block runs 49x.
        assert counts[-1] == 49
