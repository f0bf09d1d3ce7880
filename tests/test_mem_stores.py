"""PageStore and single-node (LocalMemory) unit tests, plus a model check
of the one MemoryAPI implementation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dsmmem import DSMMemory
from repro.core.llsc import LLSCTable
from repro.dbt import CPUState
from repro.errors import SegmentationFault, UnalignedAccess
from repro.mem import M64, MSIState, PAGE_SIZE, PageStore
from repro.mem.api import sign_extend
from repro.mem.splitmap import SplitMap
from tests.conftest import local_memory, read_bytes, write_bytes


class TestPageStore:
    def test_default_state_invalid(self):
        ps = PageStore()
        assert ps.state(5) is MSIState.INVALID
        assert not ps.has_read(5)
        assert not ps.has_write(5)

    def test_install_and_read(self):
        ps = PageStore()
        data = bytes(range(256)) * 16
        ps.install(3, data, MSIState.SHARED)
        assert ps.has_read(3)
        assert not ps.has_write(3)
        assert ps.read_bytes(3 * PAGE_SIZE + 1, 1, MSIState.SHARED) == b"\x01"

    def test_install_wrong_size_rejected(self):
        ps = PageStore()
        with pytest.raises(ValueError):
            ps.install(1, b"short", MSIState.SHARED)

    def test_modified_grants_write(self):
        ps = PageStore()
        ps.ensure(2, MSIState.MODIFIED)
        assert ps.has_write(2)
        ps.write_bytes(2 * PAGE_SIZE, b"\xad\xde", MSIState.SHARED)
        assert ps.read_bytes(2 * PAGE_SIZE, 2, MSIState.SHARED) == b"\xad\xde"
        assert ps.has_write(2)  # a bulk copy leaves a held page's state alone

    def test_drop_returns_content(self):
        ps = PageStore()
        ps.ensure(2, MSIState.MODIFIED)
        ps.write_bytes(2 * PAGE_SIZE, (77).to_bytes(4, "little"), MSIState.MODIFIED)
        content = ps.drop(2)
        assert content is not None and len(content) == PAGE_SIZE
        assert int.from_bytes(content[:4], "little") == 77
        assert ps.state(2) is MSIState.INVALID
        assert ps.drop(2) is None

    def test_access_without_copy_is_segfault(self):
        ps = PageStore()
        with pytest.raises(SegmentationFault):
            ps.snapshot(5)

    def test_set_state_invalid_clears(self):
        ps = PageStore()
        ps.ensure(1, MSIState.SHARED)
        ps.set_state(1, MSIState.INVALID)
        assert ps.state(1) is MSIState.INVALID
        # data copy still present until dropped (write-back keeps it readable)
        assert 1 in ps

    def test_len_and_pages(self):
        ps = PageStore()
        ps.ensure(1, MSIState.SHARED)
        ps.ensure(9, MSIState.MODIFIED)
        assert len(ps) == 2
        assert sorted(ps.pages()) == [1, 9]

    def test_bulk_copy_spans_pages(self):
        ps = PageStore()
        addr = 2 * PAGE_SIZE - 2
        ps.write_bytes(addr, b"\x01\x02\x03\x04", MSIState.SHARED)
        assert ps.snapshot(1)[-2:] == b"\x01\x02"
        assert ps.snapshot(2)[:2] == b"\x03\x04"
        assert len(ps.snapshot(1)) == len(ps.snapshot(2)) == PAGE_SIZE
        assert ps.state(2) is MSIState.SHARED
        assert ps.read_bytes(addr, 4, MSIState.SHARED) == b"\x01\x02\x03\x04"
        # a read past the held pages zero-fills a new page in the given state
        assert ps.read_bytes(3 * PAGE_SIZE - 1, 2, MSIState.SHARED) == b"\x00\x00"
        assert ps.state(3) is MSIState.SHARED


class TestFlatMemory:
    """Flat single-node memory: LocalMemory, every page local and writable."""

    def test_auto_alloc_reads_zero(self):
        mem = local_memory()
        assert mem.load(0x123456, 8, False) == 0
        assert mem.pages.state(0x123) is MSIState.MODIFIED

    def test_cross_page_write_bytes_allowed(self):
        """Bulk (loader) writes may span pages; guest accesses may not."""
        mem = local_memory()
        addr = PAGE_SIZE - 2
        write_bytes(mem, addr, b"\x01\x02\x03\x04")
        assert read_bytes(mem, addr, 4) == b"\x01\x02\x03\x04"
        assert mem.load(PAGE_SIZE, 2, False) == 0x0403

    def test_guest_access_cross_page_rejected(self):
        mem = local_memory()
        with pytest.raises(UnalignedAccess):
            mem.load(PAGE_SIZE - 2, 4, False)
        with pytest.raises(UnalignedAccess):
            mem.store(PAGE_SIZE - 1, 2, 0)

    def test_sign_extension_helper(self):
        assert sign_extend(0xFF, 1) == 2**64 - 1
        assert sign_extend(0x7F, 1) == 0x7F
        assert sign_extend(0x8000, 2) == 2**64 - 0x8000

    def test_reservation_killed_by_other_thread_store(self):
        mem = local_memory()
        cpu1 = CPUState(tid=1)
        cpu2 = CPUState(tid=2)
        mem.store(0x1000, 8, 5)
        mem.load_reserved(cpu1, 0x1000)
        # thread 2 stores into the reserved cell
        mem.store(0x1000, 8, 6)
        assert mem.store_conditional(cpu1, 0x1000, 7) is False
        assert mem.load(0x1000, 8, False) == 6

    def test_reservation_killed_by_overlapping_narrow_store(self):
        mem = local_memory()
        cpu = CPUState(tid=1)
        mem.load_reserved(cpu, 0x1000)
        mem.store(0x1004, 1, 9)  # 1-byte store inside the reserved cell
        assert mem.store_conditional(cpu, 0x1000, 7) is False

    def test_two_threads_can_both_reserve(self):
        """LL by two threads: first SC wins, second fails (its reservation
        is killed by the successful store)."""
        mem = local_memory()
        cpu1, cpu2 = CPUState(tid=1), CPUState(tid=2)
        mem.load_reserved(cpu1, 0x2000)
        mem.load_reserved(cpu2, 0x2000)
        assert mem.store_conditional(cpu1, 0x2000, 1) is True
        assert mem.store_conditional(cpu2, 0x2000, 2) is False
        assert mem.load(0x2000, 8, False) == 1

    def test_sc_to_different_address_fails(self):
        mem = local_memory()
        cpu = CPUState(tid=1)
        mem.load_reserved(cpu, 0x3000)
        assert mem.store_conditional(cpu, 0x3008, 1) is False


@settings(max_examples=100, deadline=None)
@given(
    addr=st.integers(0, 2**32).map(lambda a: a & ~7),
    value=st.integers(0, 2**64 - 1),
    size=st.sampled_from([1, 2, 4, 8]),
)
def test_store_load_roundtrip(addr, value, size):
    mem = local_memory()
    mem.store(addr, size, value)
    mask = (1 << (8 * size)) - 1
    assert mem.load(addr, size, False) == value & mask
    expected_signed = sign_extend(value & mask, size) if size < 8 else value & mask
    assert mem.load(addr, size, True) == expected_signed


# -- model check: DSMMemory (all pages Modified) == LocalMemory == a bytearray ---

MODEL_PAGE = 0x10
MODEL_PAGES = 3
# Non-zero initial bytes, so loads see sign bits and stores overwrite something.
MODEL_IMAGE = bytes((i * 37 + 11) % 256 for i in range(MODEL_PAGES * PAGE_SIZE))


class ModelMemory:
    """The MemoryAPI spec in a few lines: one bytearray plus an
    ``address -> {tids}`` reservation table."""

    def __init__(self):
        self.data = bytearray(MODEL_IMAGE)
        self.res: dict[int, set[int]] = {}

    def _read(self, addr, size):
        off = addr - MODEL_PAGE * PAGE_SIZE
        return int.from_bytes(self.data[off : off + size], "little")

    def _write(self, addr, size, value):
        off = addr - MODEL_PAGE * PAGE_SIZE
        self.data[off : off + size] = (value % (1 << (8 * size))).to_bytes(size, "little")

    def _kill(self, addr, size):
        for cell in {addr & ~7, (addr + size - 1) & ~7}:
            self.res.pop(cell, None)

    def load(self, addr, size, signed):
        value = self._read(addr, size)
        return sign_extend(value, size) if signed and size < 8 else value

    def store(self, addr, size, value):
        self._write(addr, size, value)
        self._kill(addr, size)

    def load_reserved(self, cpu, addr):
        self.res.setdefault(addr, set()).add(cpu.tid)
        return self._read(addr, 8)

    def store_conditional(self, cpu, addr, value):
        if cpu.tid not in self.res.get(addr, ()):
            return False
        del self.res[addr]
        self._write(addr, 8, value)
        return True

    def _rmw(self, addr, new):
        old = self._read(addr, 8)
        value = new(old)
        if value is not None:
            self._write(addr, 8, value)
            self._kill(addr, 8)
        return old

    def atomic_cas(self, cpu, addr, expected, desired):
        return self._rmw(addr, lambda old: desired if old == expected & M64 else None)

    def atomic_add(self, cpu, addr, operand):
        return self._rmw(addr, lambda old: old + operand)

    def atomic_swap(self, cpu, addr, operand):
        return self._rmw(addr, lambda old: operand)


def _modified_dsm():
    store = PageStore()
    store.write_bytes(MODEL_PAGE * PAGE_SIZE, MODEL_IMAGE, MSIState.MODIFIED)
    return DSMMemory(store, SplitMap(), LLSCTable())


# Few 8-byte cells (a page's first two, another's last, a third's first), so
# accesses, reservations and the stores that kill them collide often.
_cells = st.sampled_from([
    (MODEL_PAGE + page) * PAGE_SIZE + 8 * cell
    for page, cell in ((0, 0), (0, 1), (1, 511), (2, 0))
])
_values = st.one_of(st.integers(0, 3), st.integers(0, M64))
_tids = st.sampled_from([1, 2])


@st.composite
def _plain(draw):
    size = draw(st.sampled_from([1, 2, 4, 8]))
    addr = draw(_cells) + draw(st.integers(0, 8 - size))
    if draw(st.booleans()):
        return ("load", None, addr, size, draw(st.booleans()))
    return ("store", None, addr, size, draw(_values))


_ops = st.one_of(
    _plain(),
    st.tuples(st.just("load_reserved"), _tids, _cells),
    st.tuples(st.just("store_conditional"), _tids, _cells, _values),
    st.one_of(
        st.tuples(st.just("atomic_cas"), _tids, _cells, _values, _values),
        st.tuples(st.sampled_from(["atomic_add", "atomic_swap"]), _tids, _cells, _values),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ops, min_size=10, max_size=80))
def test_memory_implementations_match_model(ops):
    model = ModelMemory()
    dsm = _modified_dsm()
    local = local_memory([(MODEL_PAGE * PAGE_SIZE, MODEL_IMAGE)])
    cpus = {tid: CPUState(tid=tid) for tid in (1, 2)}
    for name, tid, *args in ops:
        head = () if tid is None else (cpus[tid],)
        want = getattr(model, name)(*head, *args)
        assert getattr(dsm, name)(*head, *args) == want, (name, tid, args)
        assert getattr(local, name)(*head, *args) == want, (name, tid, args)
    base = MODEL_PAGE * PAGE_SIZE
    for mem in (dsm, local):
        assert read_bytes(mem, base, len(model.data)) == bytes(model.data)
