"""Master coherence service: page directory + coherence transactions (§4.2).

Owns the authoritative *home* copies, the page directory, and the per-page
locks every coherence transaction serializes on.  Handles ``page_request``
frames and exposes the kernel-facing page-ownership helpers (§4.3
pointer-argument migration) used by the syscall service's guest-memory
accessor.

The transaction *mechanics* (locks, invalidations, write-backs, grants)
live here and are protocol-independent; the per-page protocol *decisions*
— Exclusive-clean grants, payload-free upgrade acks, home migration, the
adaptive classifier — sit behind the
:class:`~repro.mem.protocols.CoherencePolicy` seam selected by
``DQEMUConfig.coherence_protocol`` (docs/PROTOCOL.md "Coherence
protocols").  The default MSI policy is all no-ops, keeping every default
run's event schedule and wire traffic bit-identical to the pre-seam
protocol.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.core.config import DQEMUConfig
from repro.core.stats import RunStats
from repro.mem.directory import Directory
from repro.mem.layout import PAGE_SIZE, page_of, page_offset
from repro.mem.msi import MSIState
from repro.mem.pagestore import PageStore
from repro.mem.protocols import make_policy
from repro.net.endpoint import Endpoint
from repro.net.messages import Invalidate, PageData, WriteBack
from repro.net.rpc import RpcTimeout
from repro.sim.engine import Simulator
from repro.sim.sync import SimLock

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.services.coordinator import CrossShardCoordinator
    from repro.core.services.forwarding import ForwardingService
    from repro.core.services.splitting import SplittingService
    from repro.net.health import ClusterHealthView

__all__ = ["CoherenceService", "CoherentGuestMemory"]


def _absorb(_event) -> None:
    """No-op event callback: parks a possible failure until it is awaited.

    The engine raises a failed event's exception out of ``step()`` when the
    event has no callbacks (a failure nobody could see); the tolerant gather
    below issues several requests before awaiting any, so each needs a
    callback from the moment it is issued.  Awaiting later still delivers
    the failure to the awaiting process (late subscription re-fires)."""


class CoherentGuestMemory:
    """Kernel access to guest memory through the coherence protocol.

    Pointer-argument pages are migrated to the master before the syscall
    reads or writes them (§4.3): reads pull the freshest copy home (owner
    downgraded), writes invalidate every copy so slaves re-fetch.

    A global syscall's buffer may span pages owned by different master
    shards; each page is resolved to its shard's coherence service through
    the coordinator and owned one page at a time (never holding page locks
    on two shards at once — see docs/PROTOCOL.md "Sharded master").
    """

    def __init__(self, coordinator: "CrossShardCoordinator"):
        self.coordinator = coordinator

    def _spans(self, addr: int, size: int):
        """Split [addr, addr+size) into translated (taddr, length) chunks that
        stay within one page and one split region."""
        pos = addr
        end = addr + size
        while pos < end:
            page = page_of(pos)
            off = page_offset(pos)
            entry = self.coordinator.split_entry(page)
            if entry is not None:
                step = min(end - pos, entry.region_bytes - off % entry.region_bytes)
                taddr = entry.shadow_pages[off // entry.region_bytes] * PAGE_SIZE + off
            else:
                step = min(end - pos, PAGE_SIZE - off)
                taddr = pos
            yield taddr, step
            pos += step

    def read_guest(self, addr: int, size: int) -> Generator:
        out = bytearray()
        for taddr, step in list(self._spans(addr, size)):
            co = self.coordinator.coherence_of(page_of(taddr))
            yield from co.own_page_for_read(page_of(taddr))
            out += co.home_bytes(taddr, step)
        return bytes(out)

    def write_guest(self, addr: int, data: bytes) -> Generator:
        pos = 0
        for taddr, step in list(self._spans(addr, len(data))):
            co = self.coordinator.coherence_of(page_of(taddr))
            yield from co.own_page_for_write(page_of(taddr))
            co.home_write(taddr, data[pos : pos + step])
            pos += step
        return None


class CoherenceService:
    name = "coherence"
    handled_kinds = frozenset({"page_request"})

    def __init__(
        self,
        sim: Simulator,
        config: DQEMUConfig,
        endpoint: Endpoint,
        trace,
        run_stats: RunStats,
        home: PageStore,
        view: Optional["ClusterHealthView"] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.endpoint = endpoint
        self.trace = trace
        self.run_stats = run_stats
        self.home = home
        # Cluster failure view: when set, transactions touching a
        # confirmed-dead peer degrade (skip it, count it) instead of
        # aborting the run.  None keeps every code path and event schedule
        # bit-identical to the failure-blind protocol.
        self.view = view
        self.directory = Directory()
        # Per-page protocol decisions (docs/PROTOCOL.md "Coherence
        # protocols").  One policy per shard: its state is page-keyed and
        # pages are shard-disjoint.  The default MSI policy is stateless
        # no-ops — bit-identical behavior.
        self.policy = make_policy(config)
        # Loss recovery for the requests this service issues (invalidates,
        # write-backs).  Resolved once; stats binding only when armed, so
        # default runs create no extra RunStats entries.
        self.retry = config.nested_retry_policy()
        self.retry_stats = run_stats.service(self.name) if self.retry else None
        self._page_locks: dict[int, SimLock] = {}
        # Bound by the composition root (MasterRuntime.__init__).
        self.splitting: "SplittingService" = None  # type: ignore[assignment]
        self.forwarding: "ForwardingService" = None  # type: ignore[assignment]

    def bind(self, splitting: "SplittingService", forwarding: "ForwardingService") -> None:
        self.splitting = splitting
        self.forwarding = forwarding

    # -- failure-domain degradation (docs/PROTOCOL.md "Failure domains") -------

    def evict_node(self, node: int) -> tuple[list[int], list[int]]:
        """Drop a dead node from this shard's directory (re-homing).

        Policy state goes first: pages whose migrated home lived on the
        dead node revert to the master's home copy (the directory pass
        below accounts any data loss — a dead home held its page Modified,
        so it lands in *lost*), and access-pattern stats naming the dead
        node are reset so it can never be chosen as a migration target
        again.  Exclusive-clean copies on the dead node are owner-tracked
        and counted lost conservatively (see ``Directory.evict_node``).
        """
        for page in self.policy.evict_node(node):
            self.trace.emit("page", node, "home reverted to master", page=page)
        return self.directory.evict_node(node)

    def _dead(self, node: int) -> bool:
        return self.view is not None and self.view.is_failed(node)

    def _ask(self, peer: int, msg):
        """Request/await tolerating the peer dying mid-call.

        Returns the ack, or ``None`` when the call timed out against a peer
        the failure detector has confirmed dead (the caller proceeds with
        the home copy).  Timeouts against live peers still raise — a slow
        peer is not a dead one."""
        try:
            ack = yield self.endpoint.request(
                peer, msg,
                timeout_ns=self.config.rpc_timeout_ns,
                retry=self.retry, stats=self.retry_stats,
            )
        except RpcTimeout:
            if not self._dead(peer):
                raise
            self.run_stats.protocol.dead_peer_skips += 1
            return None
        return ack

    def _gather_tolerant(self, targets: list[int], make_msg):
        """Issue one request per target, await all, skip confirmed-dead peers.

        All requests go out before any is awaited (same concurrency as the
        ``all_of`` fast path); each gets an ``_absorb`` callback immediately
        so a failure arriving while an earlier request is being awaited
        cannot escape the simulator loop unobserved."""
        pairs = []
        for n in targets:
            ev = self.endpoint.request(
                n, make_msg(n),
                timeout_ns=self.config.rpc_timeout_ns,
                retry=self.retry, stats=self.retry_stats,
            )
            ev.add_callback(_absorb)
            pairs.append((n, ev))
        acks = []
        for n, ev in pairs:
            try:
                acks.append((yield ev))
            except RpcTimeout:
                if not self._dead(n):
                    raise
                self.run_stats.protocol.dead_peer_skips += 1
        return acks

    # -- per-page serialization ---------------------------------------------

    def lock(self, page: int) -> SimLock:
        lock = self._page_locks.get(page)
        if lock is None:
            lock = SimLock(self.sim)
            self._page_locks[page] = lock
        return lock

    # -- home-copy helpers ------------------------------------------------------

    def home_bytes(self, addr: int, size: int) -> bytes:
        return self.home.read_bytes(addr, size, MSIState.SHARED)

    def home_write(self, addr: int, data: bytes) -> None:
        self.home.write_bytes(addr, data, MSIState.SHARED)

    def home_install(self, page: int, data: bytes) -> None:
        self.home.install(page, data, MSIState.SHARED)

    def home_snapshot(self, page: int) -> bytes:
        return self.home_bytes(page * PAGE_SIZE, PAGE_SIZE)

    # -- kernel page ownership (syscall pointer arguments, §4.3) -----------------

    def own_page_for_read(self, page: int):
        lock = self.lock(page)
        yield lock.acquire()
        try:
            owner = self.directory.owner(page)
            if owner is not None and self._dead(owner):
                # The Modified copy died with its node; the stale home copy
                # is all that is left (counted as a lost page at eviction).
                self.run_stats.protocol.dead_peer_skips += 1
                self.directory.downgrade_owner(page)
                owner = None
            if owner is not None:
                ack = yield from self._ask(owner, WriteBack(page=page))
                # A clean Exclusive holder acks without payload (the home
                # copy is still current); only dirty data is installed.
                if ack is not None and ack.data is not None:
                    self.home_install(page, ack.data)
                self.directory.downgrade_owner(page)
                self.run_stats.protocol.downgrades += 1
        finally:
            lock.release()

    def own_page_for_write(self, page: int):
        lock = self.lock(page)
        yield lock.acquire()
        try:
            yield from self.pull_home_and_invalidate(page)
        finally:
            lock.release()

    def pull_home_and_invalidate(self, page: int):
        """Invalidate every copy, pulling the owner's data home first.

        Caller holds the page's lock."""
        owner = self.directory.owner(page)
        holders = self.directory.holders(page)
        if self.view is not None:
            dead = [n for n in holders if self.view.is_failed(n)]
            if dead:
                self.run_stats.protocol.dead_peer_skips += len(dead)
                holders = tuple(n for n in holders if n not in dead)
        if holders:
            if self.view is None:
                acks = yield self.sim.all_of(
                    [
                        self.endpoint.request(
                            n, Invalidate(page=page, want_data=(n == owner)),
                            timeout_ns=self.config.rpc_timeout_ns,
                            retry=self.retry, stats=self.retry_stats,
                        )
                        for n in holders
                    ]
                )
            else:
                acks = yield from self._gather_tolerant(
                    list(holders),
                    lambda n: Invalidate(page=page, want_data=(n == owner)),
                )
            for ack in acks:
                if ack.data is not None:
                    self.home_install(page, ack.data)
            for n in holders:
                self.trace.emit("page", n, "invalidate", page=page)
            self.run_stats.protocol.invalidations += len(holders)
        self.directory.invalidate_all(page)

    # -- page requests (§4.2) ------------------------------------------------------

    def handle(self, msg):
        cfg = self.config
        page, node, write = msg.page, msg.src, msg.write
        proto = self.run_stats.protocol
        if self._dead(node):
            # A dead node's request was still in the mailbox when it died.
            # Serving it would re-admit the node to the directory after
            # eviction; the reply is unroutable anyway.
            proto.dead_peer_skips += 1
            return
        lock = self.lock(page)
        yield lock.acquire()
        try:
            proto.page_requests += 1
            if write:
                proto.write_requests += 1
            else:
                proto.read_requests += 1

            # Fast path: a read fault that raced a forwarded page — the
            # directory already lists the node as sharer, so this is a cheap
            # directory-lookup ack (home is fresh for any shared page).
            if (
                not write
                and self.splitting.entry(page) is None
                and self.directory.plan(node, page, write=False).already_granted
            ):
                yield self.sim.timeout(cfg.dsm_fast_service_ns)
                # No payload: the node's copy arrived via PagePush already.
                self.trace.emit("page", node, "fast-ack (already sharer)", page=page)
                self.endpoint.reply(msg, PageData(page=page, write=False, ack_only=True))
                return

            home = self.policy.home_of(page)
            if home == node:
                # The page's home migrated to the requester: the
                # authoritative copy already lives with the node, so the
                # master's part is a metadata-only directory transaction
                # billed at the fast-path service time.
                proto.home_local_hits += 1
                yield self.sim.timeout(cfg.dsm_fast_service_ns)
            elif home is not None:
                # Home migrated to SOME OTHER node: the master must reach
                # the remote home for the authoritative copy — an extra hop
                # on top of the normal service.  Migration only pays while
                # the new home stays the dominant requester.
                proto.home_remote_misses += 1
                yield self.sim.timeout(cfg.dsm_service_ns + cfg.migration_penalty_ns)
            else:
                yield self.sim.timeout(cfg.dsm_service_ns)

            # Requests racing a split/merge retry against the new table.
            if self.splitting.entry(page) is not None or self.splitting.is_retired(page):
                proto.split_retry_replies += 1
                self.endpoint.reply(msg, PageData(page=page, retry=True))
                return

            # False-sharing detection on write traffic (§5.1) lives in the
            # splitting service; a performed split answers with a retry.
            if cfg.splitting_enabled and write:
                did_split = yield from self.splitting.observe_write(
                    page, node, msg.offset, msg.size
                )
                if did_split:
                    proto.split_retry_replies += 1
                    self.endpoint.reply(msg, PageData(page=page, retry=True))
                    return

            # Feed the access-pattern stats behind the policy seam; a write
            # streak may migrate the page's home, the adaptive classifier
            # may switch the page's per-page protocol.  No-ops under MSI.
            was_sharer = node in self.directory.sharers(page)
            new_home, reclassified = self.policy.observe(node, page, write)
            if new_home is not None:
                proto.home_migrations += 1
                self.run_stats.service(self.name).home_migrations += 1
                self.trace.emit("page", new_home, "home migrated", page=page)
            if reclassified:
                proto.adaptive_reclassifications += 1
                self.run_stats.service(self.name).reclassifications += 1

            plan = self.directory.plan(node, page, write)
            fetch_from = plan.fetch_from
            if fetch_from is not None and self._dead(fetch_from):
                # The current copy died with its owner; fall back to the
                # stale home copy (the loss is accounted at eviction time).
                proto.dead_peer_skips += 1
                self.directory.drop_node(fetch_from, page)
                fetch_from = None
            if fetch_from is not None:
                if write:
                    ack = yield from self._ask(
                        fetch_from, Invalidate(page=page, want_data=True)
                    )
                    proto.invalidations += 1
                else:
                    ack = yield from self._ask(fetch_from, WriteBack(page=page))
                    proto.downgrades += 1
                if ack is not None and ack.data is not None:
                    self.home_install(page, ack.data)
            others = [n for n in plan.invalidate if n != plan.fetch_from]
            if self.view is not None:
                live = [n for n in others if not self.view.is_failed(n)]
                proto.dead_peer_skips += len(others) - len(live)
                others = live
            if others:
                if self.view is None:
                    yield self.sim.all_of(
                        [
                            self.endpoint.request(
                                n, Invalidate(page=page, want_data=False),
                                timeout_ns=cfg.rpc_timeout_ns,
                                retry=self.retry, stats=self.retry_stats,
                            )
                            for n in others
                        ]
                    )
                else:
                    yield from self._gather_tolerant(
                        others, lambda n: Invalidate(page=page, want_data=False)
                    )
                proto.invalidations += len(others)

            if self._dead(node):
                # The requester died while we were serving it: do not commit
                # a grant to a dead node (the eviction already scrubbed it).
                proto.dead_peer_skips += 1
                return
            if write:
                if was_sharer:
                    proto.write_upgrades += 1
                self.directory.commit(node, page, write=True)
                if was_sharer and self.policy.upgrade_without_payload(node, page):
                    # The requester's Shared copy is current by protocol
                    # invariant (no invalidate can be in flight to it while
                    # the directory lists it as sharer under this page's
                    # lock) — so the grant is a payload-free upgrade ack.
                    proto.upgrade_acks += 1
                    self.trace.emit("page", node, "grant M (upgrade ack)", page=page)
                    self.endpoint.reply(msg, PageData(page=page, write=True, upgrade=True))
                    return
                self.trace.emit("page", node, "grant M", page=page)
                self.endpoint.reply(
                    msg, PageData(page=page, write=True, data=self.home_snapshot(page))
                )
                return
            # Read grant: an idle entry (no owner, no sharers — including
            # the just-scrubbed dead-owner case) may be granted
            # Exclusive-clean under MESI-family policies.
            exclusive = self.directory.peek(page).is_idle() and self.policy.grant_exclusive(
                node, page
            )
            data = self.home_snapshot(page)
            self.directory.commit(node, page, write=False, exclusive=exclusive)
            if exclusive:
                proto.exclusive_grants += 1
                self.run_stats.service(self.name).exclusive_grants += 1
            self.trace.emit(
                "page", node, "grant E" if exclusive else "grant S", page=page
            )
            self.endpoint.reply(
                msg, PageData(page=page, write=False, data=data, exclusive=exclusive)
            )
        finally:
            lock.release()

        if cfg.forwarding_enabled and not write:
            self.forwarding.note_read(node, page)
