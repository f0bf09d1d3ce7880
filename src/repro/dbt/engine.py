"""Execution engine: the translate/execute mode switch of a DBT thread.

Each guest thread's host thread alternates between *translation mode* and
*execution mode* (paper §2).  ``run_quantum`` runs one vCPU until its cycle
budget is spent or an event needs outside help: a syscall, a page the DSM
must fetch, or a guest fault.  Cycle accounting is virtual: translated code
is billed ``cpi_dbt`` cycles per guest instruction, interpretation
``cpi_interp``, superblock code ``cpi_superblock``, and translation
``translate_per_insn`` once per block — constants calibrated in
:mod:`repro.core.config`.

Every dispatch takes one path: probe the code cache's pc → block map,
translate on a miss, run the block.  Dispatch itself is unbilled.

Hot-path tier (off by default):

* **trace superblocks** — while ``superblock_threshold`` is armed, the
  dispatch loop records each block's taken static successor edges
  (``TranslationBlock.edges``); once a block's ``exec_count`` crosses the
  threshold, the engine grows a trace along the hottest recorded edges and
  compiles it into one superblock (single dispatch, interior side exits)
  billed at the cheaper ``cpi_superblock``.  ``superblock_saved_cycles``
  is net: execution cycles saved minus each promoted trace's compile cost.
* **idiom fusion** — blocks are compiled with the peephole pass from
  :mod:`repro.dbt.backend`; each fused pair whose second instruction
  completed is billed as one host operation, with per-pattern hit counters.

Cycle accounting is exact: the fractional cycle remainder at each stop is
carried on the vCPU (``cpu.cycle_frac``) into its next quantum instead of
being truncated, so long-run totals match the per-instruction model to the
cycle even for fractional CPIs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dbt.backend import Backend, TranslationBlock
from repro.dbt.codecache import CodeCache
from repro.dbt.cpu import CPUState
from repro.dbt.frontend import Frontend
from repro.dbt.interp import Interpreter
from repro.dbt.stop import RC_BREAK, RC_SYSCALL, StopEvent, StopKind
from repro.errors import ConfigError, GuestFault
from repro.mem.api import MemoryAPI, PageStall

__all__ = ["EngineTiming", "ExecutionEngine"]


@dataclass(frozen=True)
class EngineTiming:
    """Virtual-cycle costs of the DBT pipeline."""

    cpi_dbt: float = 3.0  # cycles per translated guest instruction
    cpi_interp: float = 30.0  # cycles per interpreted instruction
    cpi_superblock: float = 1.0  # cycles per instruction inside a superblock
    translate_per_insn: float = 800.0  # one-time per-block translation cost


class ExecutionEngine:
    """Runs vCPUs against a memory system in DBT or interpreter mode."""

    def __init__(
        self,
        mem: MemoryAPI,
        *,
        timing: EngineTiming | None = None,
        mode: str = "dbt",
        max_block_insns: int = 64,
        cache: CodeCache | None = None,
        superblock_threshold: int = 0,
        superblock_max_blocks: int = 8,
        fusion: bool = False,
    ) -> None:
        if mode not in ("dbt", "interp"):
            raise ConfigError(f"unknown engine mode {mode!r}")
        self.mem = mem
        self.mode = mode
        self.timing = timing or EngineTiming()
        self.cache = cache or CodeCache()
        self.frontend = Frontend(mem, max_block_insns=max_block_insns)
        self.backend = Backend()
        self.interp = Interpreter(mem)
        self.superblock_threshold = superblock_threshold
        self.superblock_max_blocks = superblock_max_blocks
        self.fusion = fusion
        # Counters for profiling/experiments.
        self.insns_executed = 0
        self.insns_translated = 0
        self.superblocks_formed = 0
        self.fusion_hits: dict[str, int] = {}
        self.fusion_saved_cycles = 0.0
        self.superblock_saved_cycles = 0.0
        self.execute_cycles = 0.0
        self.translate_cycles = 0.0

    # -- main entry ----------------------------------------------------------

    def run_quantum(self, cpu: CPUState, cycle_budget: int) -> StopEvent:
        """Run ``cpu`` for at most ``cycle_budget`` virtual cycles."""
        if self.mode == "interp":
            return self._run_interp(cpu, cycle_budget)
        return self._run_dbt(cpu, cycle_budget)

    # -- DBT mode ----------------------------------------------------------

    def _run_dbt(self, cpu: CPUState, cycle_budget: int) -> StopEvent:
        t = self.timing
        cycles = cpu.cycle_frac  # remainder carried from the last quantum
        cpu.cycle_frac = 0.0
        tcycles = 0.0
        mem = self.mem
        cache = self.cache
        stats = cache.stats
        probe = cache.peek
        threshold = self.superblock_threshold
        prev: Optional[TranslationBlock] = None
        while cycles < cycle_budget:
            pc = cpu.pc
            stats.lookups += 1
            tb = probe(pc)
            if tb is None:
                stats.misses += 1
                try:
                    block_ir = self.frontend.build_block(pc)
                    tb = self.backend.compile(block_ir, fusion=self.fusion)
                except PageStall as stall:
                    return self._stop(StopKind.PAGE_STALL, cycles, tcycles, cpu, stall)
                except GuestFault as fault:
                    return self._stop(StopKind.FAULT, cycles, tcycles, cpu, fault)
                cache.insert(tb)
                self.insns_translated += tb.n_insns
                cost = tb.n_insns * t.translate_per_insn
                cycles += cost
                tcycles += cost
            # The edge profile feeds only trace formation (_try_promote).
            if threshold and prev is not None and pc in prev.succ_pcs:
                prev.edges[pc] = prev.edges.get(pc, 0) + 1
            # A stall/fault raised before the block's first checkpoint must
            # bill zero completed instructions, not the previous block's.
            cpu.block_ic = 0
            try:
                rc = tb.fn(cpu, mem)
            except PageStall as stall:
                cycles += self._bill(tb, cpu.block_ic, t)
                return self._stop(StopKind.PAGE_STALL, cycles, tcycles, cpu, stall)
            except GuestFault as fault:
                cycles += self._bill(tb, cpu.block_ic, t)
                return self._stop(StopKind.FAULT, cycles, tcycles, cpu, fault)
            tb.exec_count += 1
            cycles += self._bill(tb, cpu.block_ic, t)
            if (
                threshold
                and not tb.is_superblock
                and not tb.no_promote
                and tb.exec_count >= threshold
                and probe(pc) is tb
            ):
                cost = self._try_promote(tb)
                cycles += cost
                tcycles += cost
            if rc == RC_SYSCALL:
                return self._stop(StopKind.SYSCALL, cycles, tcycles, cpu)
            if rc == RC_BREAK:
                return self._stop(StopKind.BREAK, cycles, tcycles, cpu)
            prev = tb
        return self._stop(StopKind.QUANTUM, cycles, tcycles, cpu)

    # -- hot-path accounting -----------------------------------------------

    def _bill(self, tb: TranslationBlock, done: int, t: EngineTiming) -> float:
        """Execution cycles for ``done`` completed guest instructions."""
        self.insns_executed += done
        cpi = t.cpi_superblock if tb.is_superblock else t.cpi_dbt
        billed = done
        if tb.fused:
            saved = 0
            for end, pattern in tb.fused:
                if end < done:  # the pair's second instruction completed
                    saved += 1
                    self.fusion_hits[pattern] = self.fusion_hits.get(pattern, 0) + 1
            if saved:
                billed -= saved
                self.fusion_saved_cycles += saved * cpi
        if tb.is_superblock:
            self.superblock_saved_cycles += done * (t.cpi_dbt - t.cpi_superblock)
        cost = billed * cpi
        self.execute_cycles += cost
        return cost

    def _try_promote(self, head: TranslationBlock) -> float:
        """Grow a trace from ``head`` along its hottest recorded edges and
        promote the compiled superblock; returns translation cycles billed.

        The walk may revisit blocks — loop traces unroll themselves up to
        ``superblock_max_blocks`` members, so a one-block hot loop becomes
        an unrolled superblock re-entered once per trace rather than once
        per iteration.
        """
        trace = [head]
        cur = head
        while len(trace) < self.superblock_max_blocks:
            if not cur.edges:
                break
            # Hottest successor; ties break to the lowest pc (deterministic).
            pc = min(cur.edges, key=lambda p: (-cur.edges[p], p))
            nxt = self.cache.peek(pc)
            if nxt is None or nxt.is_superblock or nxt.ir is None:
                break
            trace.append(nxt)
            cur = nxt
        if len(trace) < 2:
            head.no_promote = True
            return 0.0
        sb = self.backend.compile_superblock(
            [tb.ir for tb in trace], fusion=self.fusion
        )
        self.cache.promote(sb)
        self.superblocks_formed += 1
        self.insns_translated += sb.n_insns
        cost = sb.n_insns * self.timing.translate_per_insn
        self.superblock_saved_cycles -= cost  # the "saved" figure is net
        return cost

    def _stop(
        self,
        kind: StopKind,
        cycles: float,
        tcycles: float,
        cpu: CPUState,
        info=None,
    ) -> StopEvent:
        whole = int(cycles)
        cpu.cycle_frac = cycles - whole  # carried into the next quantum
        self.translate_cycles += tcycles
        return StopEvent(kind, whole, info, translate_cycles=int(tcycles))

    # -- interpreter mode ------------------------------------------------------

    def _run_interp(self, cpu: CPUState, cycle_budget: int) -> StopEvent:
        t = self.timing
        cycles = cpu.cycle_frac
        cpu.cycle_frac = 0.0
        while cycles < cycle_budget:
            try:
                rc = self.interp.step(cpu)
            except PageStall as stall:
                return self._stop(StopKind.PAGE_STALL, cycles, 0.0, cpu, stall)
            except GuestFault as fault:
                return self._stop(StopKind.FAULT, cycles, 0.0, cpu, fault)
            cycles += t.cpi_interp
            self.execute_cycles += t.cpi_interp
            self.insns_executed += 1
            if rc == RC_SYSCALL:
                return self._stop(StopKind.SYSCALL, cycles, 0.0, cpu)
            if rc == RC_BREAK:
                return self._stop(StopKind.BREAK, cycles, 0.0, cpu)
        return self._stop(StopKind.QUANTUM, cycles, 0.0, cpu)
