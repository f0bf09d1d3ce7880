"""Translation-block cache with page-wise invalidation.

QEMU keeps translated code in a code cache keyed by guest pc.  We keep the
same structure: a pc → block dict that the engine probes once per
dispatch through :attr:`CodeCache.peek` (the dict's own bound ``get``, so
the probe adds no Python frame), plus a page index so invalidation can
drop every block overlapping a guest page (needed if guest code pages are
ever written, and used by tests).

Hot blocks can be *promoted*: :meth:`CodeCache.promote` replaces the cached
entry at a trace head's pc with the superblock compiled from the trace.
The superblock is indexed under the union of its members' pages, so
invalidating any member's page demotes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dbt.backend import TranslationBlock

__all__ = ["CodeCache", "CacheStats"]


@dataclass
class CacheStats:
    translations: int = 0
    #: Block dispatches, each one probe of the cache (counted by the engine).
    lookups: int = 0
    #: Dispatches that found no block and translated one.
    misses: int = 0
    invalidations: int = 0
    #: Superblocks promoted into the cache.
    superblocks: int = 0


class CodeCache:
    """pc → :class:`TranslationBlock` map with page index."""

    def __init__(self) -> None:
        # Never rebound (``flush`` clears it in place), so ``peek`` stays
        # bound to the live map.
        self._blocks: dict[int, TranslationBlock] = {}
        self._by_page: dict[int, set[int]] = {}
        self.stats = CacheStats()
        #: ``pc -> block or None``: the uncounted probe of the dispatch loop.
        self.peek = self._blocks.get

    def insert(self, tb: TranslationBlock) -> None:
        self._blocks[tb.pc] = tb
        self.stats.translations += 1
        for page in tb.pages:
            self._by_page.setdefault(page, set()).add(tb.pc)

    # -- promotion ---------------------------------------------------------

    def promote(self, sb: TranslationBlock) -> None:
        """Replace the entry at ``sb.pc`` with a superblock.

        The next dispatch to ``sb.pc`` finds the superblock; non-head
        members stay cached for mid-trace entries.
        """
        old = self._blocks.get(sb.pc)
        if old is not None:
            self._drop_page_index(old)
        self._blocks[sb.pc] = sb
        self.stats.translations += 1
        self.stats.superblocks += 1
        for page in sb.pages:
            self._by_page.setdefault(page, set()).add(sb.pc)

    # -- invalidation ------------------------------------------------------

    def _drop_page_index(self, tb: TranslationBlock, skip_page: Optional[int] = None) -> None:
        for page in tb.pages:
            if page == skip_page:
                continue
            pcs = self._by_page.get(page)
            if pcs is not None:
                pcs.discard(tb.pc)
                if not pcs:
                    del self._by_page[page]

    def invalidate_page(self, page: int) -> int:
        """Drop all blocks overlapping ``page``; returns how many.

        A block indexed under several pages (a superblock whose members
        span pages, or any block crossing a boundary) is removed from
        *every* page set it was indexed under — otherwise a later
        re-translation at the same pc would be wrongly dropped (and
        ``invalidations`` miscounted) when a neighboring page is
        invalidated.
        """
        pcs = self._by_page.pop(page, set())
        count = 0
        for pc in pcs:
            tb = self._blocks.get(pc)
            if tb is None:
                continue
            if page not in tb.pages:
                # Stale index entry from an older block at this pc; the
                # current block does not overlap the invalidated page.
                continue
            del self._blocks[pc]
            count += 1
            self._drop_page_index(tb, skip_page=page)
        self.stats.invalidations += count
        return count

    def flush(self) -> None:
        self._blocks.clear()
        self._by_page.clear()

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, pc: int) -> bool:
        return pc in self._blocks
