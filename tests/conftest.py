"""Shared test helpers."""

from __future__ import annotations

import pytest

from repro.core.dsmmem import LocalMemory
from repro.core.llsc import LLSCTable
from repro.dbt import CPUState, ExecutionEngine, StopKind
from repro.isa import assemble
from repro.mem import STACK_TOP, MSIState, PageStall, PageStore


def read_bytes(mem: LocalMemory, addr: int, size: int) -> bytes:
    return mem.pages.read_bytes(addr, size, MSIState.MODIFIED)


def write_bytes(mem: LocalMemory, addr: int, data: bytes) -> None:
    mem.pages.write_bytes(addr, data, MSIState.MODIFIED)


def load_image(mem: LocalMemory, segments) -> LocalMemory:
    """Copy ``(vaddr, bytes)`` segments (e.g. a Program's) in, pages Modified."""
    for vaddr, data in segments:
        write_bytes(mem, vaddr, data)
    return mem


def local_memory(segments=()) -> LocalMemory:
    """Single-node memory holding ``segments``."""
    return load_image(LocalMemory(PageStore(), LLSCTable()), segments)


class StallingMemory(LocalMemory):
    """LocalMemory whose listed pages start Invalid, like a DSM client's:
    the first load or store to each raises PageStall and grants the page,
    so the re-executed access hits."""

    def __init__(self, stall_pages, segments=()):
        super().__init__(PageStore(), LLSCTable())
        load_image(self, segments)
        self.stall_pages = set(stall_pages)
        for page in self.stall_pages:
            self.pages.set_state(page, MSIState.INVALID)

    def _miss(self, page, write, offset, size):
        if page in self.stall_pages:
            self.stall_pages.discard(page)
            self.pages.ensure(page, MSIState.MODIFIED)
            raise PageStall(page, write, offset, size)
        super()._miss(page, write, offset, size)


def run_to_ecall(source: str, *, mode: str = "dbt", regs: dict | None = None,
                 max_quanta: int = 10_000):
    """Assemble and run a program until the first ecall; returns (cpu, mem, engine).

    The ecall is treated as program end — full syscall handling lives in the
    kernel layer and has its own tests.
    """
    prog = assemble(source)
    mem = local_memory(prog.iter_load_segments())
    cpu = CPUState(pc=prog.entry, tid=1, sp=STACK_TOP - 64)
    engine = ExecutionEngine(mem, mode=mode)
    for _ in range(max_quanta):
        stop = engine.run_quantum(cpu, 1_000_000)
        if stop.kind is StopKind.SYSCALL:
            return cpu, mem, engine
        if stop.kind is not StopKind.QUANTUM:
            raise AssertionError(f"unexpected stop: {stop.kind} ({stop.info})")
    raise AssertionError("program did not reach ecall")


@pytest.fixture
def run():
    return run_to_ecall
