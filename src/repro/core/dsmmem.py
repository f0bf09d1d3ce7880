"""Node memory systems.

:class:`DSMMemory` is what a DQEMU instance's engine executes against: the
guest→host address translation step applies the shadow-page split table
(§5.1), then the page-protection check — an access to a page the node does
not hold (or holds in an insufficient MSI state) raises
:class:`~repro.mem.api.PageStall`, the software analogue of the
page-protection faults DQEMU drives its coherence state machine with (§4.2).

A hit is served straight from the page store's two dicts, which play the
part of QEMU's softmmu TLB.  That relies on the
:class:`~repro.mem.pagestore.PageStore` invariants: ``INVALID`` is never
stored, so a page in ``states`` is readable (and has a buffer), and neither
dict is ever rebound.

:class:`LocalMemory` is the same memory with the DSM layer removed: a miss
creates the page Modified instead of faulting.  It backs the vanilla
single-node QEMU baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.llsc import LLSCTable
from repro.errors import UnalignedAccess
from repro.mem.api import M64, PageStall
from repro.mem.layout import PAGE_SIZE
from repro.mem.msi import MSIState
from repro.mem.pagestore import PageStore
from repro.mem.splitmap import SplitCrossing, SplitMap

if TYPE_CHECKING:  # pragma: no cover
    from repro.dbt.cpu import CPUState

__all__ = ["MergeStall", "DSMMemory", "LocalMemory"]

_MODIFIED = MSIState.MODIFIED


class MergeStall(PageStall):
    """An access straddles split regions: the node must ask the master to
    merge the shadow pages back before the access can proceed."""

    def __init__(self, orig_page: int, offset: int):
        super().__init__(orig_page, True, offset)
        self.orig_page = orig_page


def _page_crossing(addr: int, size: int) -> UnalignedAccess:
    return UnalignedAccess(
        f"access of {size} bytes at {addr:#x} crosses a page boundary", addr=addr
    )


class DSMMemory:
    """MemoryAPI over a node's page cache, split table and LL/SC table.

    GA64 access rules: any alignment within one page is legal, an access
    crossing a page boundary raises :class:`UnalignedAccess`, and atomics
    must be 8-byte aligned.
    """

    def __init__(self, store: PageStore, split: SplitMap, llsc: LLSCTable):
        self.pages = store
        self.split = split
        self.llsc = llsc
        self._states = store.states
        self._buffers = store.buffers
        self._split_pages = split.by_orig
        self._reservations = llsc.reservations

    # -- slow paths -------------------------------------------------------------

    def _translate(self, addr: int, size: int) -> int:
        """Shadow-page translation; called only while some page is split."""
        try:
            return self.split.translate_span(addr, size)
        except SplitCrossing as sc:
            raise MergeStall(sc.page, sc.offset) from None

    def _miss(self, page: int, write: bool, offset: int, size: int) -> None:
        """The page is absent, or held read-only for a write: fault so the
        coherence protocol fetches it.  Returns only if the page is now held
        in a sufficient state."""
        raise PageStall(page, write, offset, size)

    def _atomic(self, addr: int, write: bool) -> tuple[bytearray, int, int]:
        """Checks shared by the atomics; returns (buffer, offset, address)."""
        if addr % 8:
            raise UnalignedAccess(f"atomic access to unaligned address {addr:#x}", addr=addr)
        if self._split_pages:
            addr = self._translate(addr, 8)
        page = addr >> 12
        off = addr & (PAGE_SIZE - 1)
        state = self._states.get(page)
        if state is None or (write and state is not _MODIFIED):
            self._miss(page, write, off, 8)
        return self._buffers[page], off, addr

    # -- MemoryAPI ------------------------------------------------------------

    def load(self, addr: int, size: int, signed: bool) -> int:
        if self._split_pages:
            addr = self._translate(addr, size)
        off = addr & (PAGE_SIZE - 1)
        if off + size > PAGE_SIZE:
            raise _page_crossing(addr, size)
        page = addr >> 12
        if page not in self._states:
            self._miss(page, False, off, size)
        data = self._buffers[page][off : off + size]
        if signed:
            return int.from_bytes(data, "little", signed=True) & M64
        return int.from_bytes(data, "little")

    def store(self, addr: int, size: int, value: int) -> None:
        if self._split_pages:
            addr = self._translate(addr, size)
        off = addr & (PAGE_SIZE - 1)
        if off + size > PAGE_SIZE:
            raise _page_crossing(addr, size)
        page = addr >> 12
        if self._states.get(page) is not _MODIFIED:
            self._miss(page, True, off, size)
        self._buffers[page][off : off + size] = (
            value & ((1 << (8 * size)) - 1)
        ).to_bytes(size, "little")
        if self._reservations:
            self.llsc.kill_store(addr, size)

    def fetch_code(self, addr: int, size: int) -> bytes:
        if self._split_pages:
            addr = self._translate(addr, size)
        off = addr & (PAGE_SIZE - 1)
        if off + size > PAGE_SIZE:
            raise _page_crossing(addr, size)
        page = addr >> 12
        if page not in self._states:
            self._miss(page, False, off, 8)
        return bytes(self._buffers[page][off : off + size])

    # -- atomics (two-level scheme, §4.4) --------------------------------------

    def load_reserved(self, cpu: "CPUState", addr: int) -> int:
        buf, off, taddr = self._atomic(addr, False)
        self.llsc.reserve(taddr, cpu.tid)
        return int.from_bytes(buf[off : off + 8], "little")

    def store_conditional(self, cpu: "CPUState", addr: int, value: int) -> bool:
        # SC stores, so it needs the page Modified — this is what makes one
        # node's spinlock exclusive cluster-wide (Fig. 3).
        buf, off, taddr = self._atomic(addr, True)
        if not self.llsc.consume(taddr, cpu.tid):
            return False
        buf[off : off + 8] = (value & M64).to_bytes(8, "little")
        return True

    def atomic_cas(self, cpu: "CPUState", addr: int, expected: int, desired: int) -> int:
        buf, off, taddr = self._atomic(addr, True)
        old = int.from_bytes(buf[off : off + 8], "little")
        if old == (expected & M64):
            buf[off : off + 8] = (desired & M64).to_bytes(8, "little")
            self.llsc.kill_store(taddr, 8)
        return old

    def atomic_add(self, cpu: "CPUState", addr: int, operand: int) -> int:
        buf, off, taddr = self._atomic(addr, True)
        old = int.from_bytes(buf[off : off + 8], "little")
        buf[off : off + 8] = ((old + operand) & M64).to_bytes(8, "little")
        self.llsc.kill_store(taddr, 8)
        return old

    def atomic_swap(self, cpu: "CPUState", addr: int, operand: int) -> int:
        buf, off, taddr = self._atomic(addr, True)
        old = int.from_bytes(buf[off : off + 8], "little")
        buf[off : off + 8] = (operand & M64).to_bytes(8, "little")
        self.llsc.kill_store(taddr, 8)
        return old


class LocalMemory(DSMMemory):
    """Single-node memory: every page local and writable (QEMU baseline)."""

    def __init__(self, store: PageStore, llsc: LLSCTable):
        super().__init__(store, SplitMap(), llsc)

    def _miss(self, page: int, write: bool, offset: int, size: int) -> None:
        self.pages.ensure(page, _MODIFIED)
