"""Per-node page storage.

Each DQEMU instance holds copies of the guest pages it currently caches,
tagged with their MSI coherence state.  The store is two dicts — page →
state and page → 4 KiB bytearray — sparse, so a 1 GB guest region costs
nothing until touched (the paper's Table 1 experiment reserves 1 GB on the
master).

Together the two dicts are the node's softmmu TLB: the guest-memory hot
path in :mod:`repro.core.dsmmem` probes them directly.  It relies on two
invariants that every method here keeps:

* ``INVALID`` is never stored — a page in :attr:`states` is readable, and
  only ``MODIFIED`` is writable;
* :attr:`states` and :attr:`buffers` are never rebound, so a reference
  taken once stays current.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import SegmentationFault
from repro.mem.layout import PAGE_SIZE
from repro.mem.msi import MSIState

__all__ = ["PageStore"]


class PageStore:
    """Sparse page container with per-page MSI state."""

    def __init__(self) -> None:
        self.buffers: dict[int, bytearray] = {}
        self.states: dict[int, MSIState] = {}

    # -- state bookkeeping ----------------------------------------------------

    def state(self, page: int) -> MSIState:
        return self.states.get(page, MSIState.INVALID)

    def set_state(self, page: int, state: MSIState) -> None:
        if state is MSIState.INVALID:
            self.states.pop(page, None)
        else:
            self.states[page] = state

    def has_read(self, page: int) -> bool:
        return page in self.states

    def has_write(self, page: int) -> bool:
        return self.states.get(page) is MSIState.MODIFIED

    def silently_upgrade(self, page: int) -> bool:
        """MESI's silent E→M transition: an Exclusive-clean copy becomes
        Modified with no master round trip (docs/PROTOCOL.md "Coherence
        protocols").  Returns whether the upgrade happened — the caller
        counts it as a saved round trip.  Any other state is untouched."""
        if self.states.get(page) is MSIState.EXCLUSIVE:
            self.states[page] = MSIState.MODIFIED
            return True
        return False

    # -- page installation ------------------------------------------------------

    def install(self, page: int, data: bytes, state: MSIState) -> None:
        if len(data) != PAGE_SIZE:
            raise ValueError(f"page data must be {PAGE_SIZE} bytes, got {len(data)}")
        self.buffers[page] = bytearray(data)
        self.set_state(page, state)

    def ensure(self, page: int, state: MSIState) -> bytearray:
        """Get-or-create a zeroed page in ``state`` (master-side allocation)."""
        buf = self.buffers.get(page)
        if buf is None:
            buf = bytearray(PAGE_SIZE)
            self.buffers[page] = buf
        self.set_state(page, state)
        return buf

    def drop(self, page: int) -> Optional[bytes]:
        """Invalidate: remove the local copy, returning it (for write-back)."""
        self.states.pop(page, None)
        buf = self.buffers.pop(page, None)
        return bytes(buf) if buf is not None else None

    def snapshot(self, page: int) -> bytes:
        try:
            return bytes(self.buffers[page])
        except KeyError:
            raise SegmentationFault(f"no copy of page {page:#x}") from None

    # -- bulk copies (loader, kernel buffers); no coherence check --------------

    def _spans(self, addr: int, size: int, state: MSIState):
        """Yield ``(buffer, offset, length)`` per page of ``[addr, addr+size)``,
        creating a missing page zeroed in ``state``.  A page already held
        keeps its state."""
        end = addr + size
        while addr < end:
            page = addr >> 12
            off = addr & (PAGE_SIZE - 1)
            n = min(PAGE_SIZE - off, end - addr)
            buf = self.buffers.get(page)
            if buf is None:
                buf = self.ensure(page, state)
            yield buf, off, n
            addr += n

    def read_bytes(self, addr: int, size: int, state: MSIState) -> bytes:
        """Copy ``size`` bytes out, spanning pages (missing ones made in ``state``)."""
        spans = self._spans(addr, size, state)
        return b"".join(buf[off : off + n] for buf, off, n in spans)

    def write_bytes(self, addr: int, data: bytes, state: MSIState) -> None:
        """Copy ``data`` in, spanning pages (missing ones made in ``state``)."""
        pos = 0
        for buf, off, n in self._spans(addr, len(data), state):
            buf[off : off + n] = data[pos : pos + n]
            pos += n

    # -- iteration ------------------------------------------------------------

    def pages(self) -> Iterator[int]:
        return iter(self.buffers)

    def __contains__(self, page: int) -> bool:
        return page in self.buffers

    def __len__(self) -> int:
        return len(self.buffers)
