"""DSMMemory unit tests: protection checks, split translation, atomics."""

import pytest

from repro.core.dsmmem import DSMMemory, LocalMemory, MergeStall
from repro.core.llsc import LLSCTable
from repro.dbt.cpu import CPUState
from repro.mem.api import PageStall
from repro.mem.msi import MSIState
from repro.mem.pagestore import PageStore
from repro.mem.splitmap import SplitEntry, SplitMap

PAGE = 0x10
BASE = PAGE << 12


def make_mem():
    store, split, llsc = PageStore(), SplitMap(), LLSCTable()
    return DSMMemory(store, split, llsc), store, split, llsc


def cpu(tid=1):
    return CPUState(tid=tid)


class TestProtection:
    def test_read_of_absent_page_stalls(self):
        mem, *_ = make_mem()
        with pytest.raises(PageStall) as exc:
            mem.load(BASE + 8, 8, False)
        assert exc.value.page == PAGE
        assert exc.value.write is False
        assert exc.value.offset == 8
        assert exc.value.size == 8

    def test_write_to_shared_page_stalls_for_upgrade(self):
        mem, store, *_ = make_mem()
        store.install(PAGE, bytes(4096), MSIState.SHARED)
        assert mem.load(BASE, 8, False) == 0  # read OK
        with pytest.raises(PageStall) as exc:
            mem.store(BASE + 16, 1, 7)
        assert exc.value.write is True
        assert exc.value.size == 1

    def test_modified_page_fully_accessible(self):
        mem, store, *_ = make_mem()
        store.install(PAGE, bytes(4096), MSIState.MODIFIED)
        mem.store(BASE, 8, 0xABCD)
        assert mem.load(BASE, 8, False) == 0xABCD

    def test_fetch_code_needs_read(self):
        mem, store, *_ = make_mem()
        with pytest.raises(PageStall):
            mem.fetch_code(BASE, 4)
        store.install(PAGE, b"\x01" * 4096, MSIState.SHARED)
        assert mem.fetch_code(BASE, 4) == b"\x01\x01\x01\x01"


class TestSplitTranslation:
    def setup_method(self):
        self.mem, self.store, self.split, self.llsc = make_mem()
        self.shadows = (0x60000, 0x60001)
        self.split.install(SplitEntry(PAGE, self.shadows, 2048))

    def test_access_routed_to_shadow_page(self):
        self.store.install(self.shadows[1], bytes(4096), MSIState.MODIFIED)
        addr = BASE + 2048 + 8  # region 1
        self.mem.store(addr, 8, 42)
        shadow = self.store.snapshot(self.shadows[1])
        assert int.from_bytes(shadow[2048 + 8 : 2048 + 16], "little") == 42

    def test_stall_names_shadow_page(self):
        with pytest.raises(PageStall) as exc:
            self.mem.load(BASE + 100, 8, False)  # region 0, shadow absent
        assert exc.value.page == self.shadows[0]

    def test_region_crossing_raises_merge_stall(self):
        with pytest.raises(MergeStall) as exc:
            self.mem.load(BASE + 2044, 8, False)
        assert exc.value.orig_page == PAGE

    def test_atomic_on_split_page(self):
        self.store.install(self.shadows[0], bytes(4096), MSIState.MODIFIED)
        c = cpu()
        assert self.mem.atomic_add(c, BASE + 8, 5) == 0
        assert int.from_bytes(self.store.snapshot(self.shadows[0])[8:16], "little") == 5


class TestAtomics:
    def test_lr_needs_read_sc_needs_write(self):
        mem, store, _, llsc = make_mem()
        store.install(PAGE, bytes(4096), MSIState.SHARED)
        c = cpu()
        assert mem.load_reserved(c, BASE) == 0  # S suffices for LL
        with pytest.raises(PageStall) as exc:
            mem.store_conditional(c, BASE, 1)  # SC stores -> needs M (Fig. 3)
        assert exc.value.write

    def test_sc_succeeds_with_modified_and_reservation(self):
        mem, store, _, llsc = make_mem()
        store.install(PAGE, bytes(4096), MSIState.MODIFIED)
        c = cpu()
        mem.load_reserved(c, BASE)
        assert mem.store_conditional(c, BASE, 99) is True
        assert mem.load(BASE, 8, False) == 99

    def test_reservation_killed_by_page_invalidation(self):
        """The paper's false-positive SC scheme (§4.4)."""
        mem, store, _, llsc = make_mem()
        store.install(PAGE, bytes(4096), MSIState.MODIFIED)
        c = cpu()
        mem.load_reserved(c, BASE)
        llsc.kill_page(PAGE)  # coherence invalidation
        store.install(PAGE, bytes(4096), MSIState.MODIFIED)  # re-acquired
        assert mem.store_conditional(c, BASE, 1) is False
        assert llsc.spurious_kills == 1

    def test_cas_requires_modified(self):
        mem, store, *_ = make_mem()
        store.install(PAGE, bytes(4096), MSIState.SHARED)
        with pytest.raises(PageStall):
            mem.atomic_cas(cpu(), BASE, 0, 1)


class TestLocalMemory:
    def test_auto_allocates_modified(self):
        store, llsc = PageStore(), LLSCTable()
        mem = LocalMemory(store, llsc)
        mem.store(BASE, 8, 5)
        assert store.state(PAGE) is MSIState.MODIFIED
        assert mem.load(BASE, 8, False) == 5

    def test_llsc_works_without_dsm(self):
        store, llsc = PageStore(), LLSCTable()
        mem = LocalMemory(store, llsc)
        c1, c2 = cpu(1), cpu(2)
        mem.load_reserved(c1, BASE)
        mem.store(BASE, 8, 3)  # intervening store
        assert mem.store_conditional(c1, BASE, 9) is False
