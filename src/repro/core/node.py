"""A DQEMU instance: one node of the cluster (paper Fig. 2).

Each node runs:

* ``cores_per_node`` *core* processes executing guest (TCG-)threads in
  quanta through the DBT engine;
* one *communicator* process pumping inbound commands through a
  :class:`~repro.core.services.base.Dispatcher` over the node-side services
  (coherence client, split-table client, thread control — see
  :mod:`repro.core.services.nodeside`);
* per-fault/per-syscall handler processes, so a thread waiting on a remote
  page or a delegated syscall frees its core for other runnable threads
  (the host OS would deschedule the blocked TCG thread the same way).

The same class is every node: the master is node 0 with a
:class:`~repro.core.master.MasterRuntime` attached, talking to itself over
the fabric's loopback path.

Multi-tenancy: a long-lived node hosts guest threads of several concurrent
jobs.  Everything address-space-shaped — page store, split table, LL/SC
reservations, DBT engine (whose code cache is keyed by guest PC), thread
table, in-flight fault tracking — lives in a per-tenant :class:`NodeTenant`
bundle, so jobs cannot see each other's pages or threads even though they
share the node's cores and NIC.  The cores themselves are shared hardware:
one run queue (tenant-fair, see
:class:`~repro.core.scheduler.FairRunQueue`) feeds every core.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.config import DQEMUConfig
from repro.core.dsmmem import DSMMemory, LocalMemory, MergeStall
from repro.core.gthread import GuestThread, GuestThreadState
from repro.core.llsc import LLSCTable
from repro.core.services.base import Dispatcher, attribute_timeouts
from repro.core.services.heartbeat import NodeHeartbeatService
from repro.core.services.nodeside import (
    NodeCheckpointService,
    NodeCoherenceService,
    NodeControlService,
    NodeSplitTableService,
)
from repro.core.stats import RunStats
from repro.dbt.cpu import CPUState
from repro.dbt.engine import EngineTiming, ExecutionEngine
from repro.dbt.stop import StopKind
from repro.errors import GuestFault, ProtocolError
from repro.kernel.classify import is_global
from repro.kernel.sysnums import SYS
from repro.mem.api import M64, PageStall
from repro.mem.msi import MSIState
from repro.mem.pagestore import PageStore
from repro.mem.sharding import shard_of
from repro.mem.splitmap import SplitMap
from repro.net.endpoint import Endpoint
from repro.net.fabric import Fabric
from repro.net.messages import (
    Checkpoint,
    CheckpointFlush,
    DrainComplete,
    EvacuateThread,
    MergeRequest,
    PageRequest,
    PeerCheckpoint,
    SyscallRequest,
)
from repro.core.scheduler import FairRunQueue
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.localkernel import LocalKernel

__all__ = ["NodeRuntime", "NodeTenant", "COMMAND_KINDS"]

A0, A7 = 10, 17

#: Inbound kinds handled by a node's communicator (vs. master managers),
#: derived from the node-side services' routing claims.
COMMAND_KINDS = (
    NodeCoherenceService.handled_kinds
    | NodeSplitTableService.handled_kinds
    | NodeControlService.handled_kinds
)


def _master_shard_key(msg, nshards: int) -> int:
    """Master shard a request frame routes to: page-keyed kinds go to their
    page's shard, control kinds (no ``page`` attribute — syscall delegation)
    to shard 0, where the shared syscall/futex services are registered."""
    page = getattr(msg, "page", None)
    if page is None:
        return 0
    return shard_of(page, nshards)


class NodeTenant:
    """One job's private slice of a node.

    Page numbers and thread ids are per-job namespaces, so everything keyed
    by them is bundled here rather than on the node: two tenants both using
    page 5 or tid 2 must never collide.  The bundle also carries the job's
    :class:`RunStats`, which is how per-tenant attribution of node-side
    service work happens structurally.
    """

    __slots__ = (
        "tenant", "run_stats", "pagestore", "splitmap", "llsc", "memory",
        "engine", "threads", "inflight", "push_gates", "finished",
        "page_retry_stats", "merge_retry_stats", "syscall_retry_stats",
        "evac_retry_stats", "ckpt_retry_stats",
    )

    def __init__(self, node: "NodeRuntime", tenant: int, run_stats: RunStats):
        config = node.config
        self.tenant = tenant
        self.run_stats = run_stats
        # Eager rows mirror Dispatcher.register: every tenant's RunStats
        # lists the node-side services even at zero requests.
        for name in (
            NodeCoherenceService.name,
            NodeSplitTableService.name,
            NodeControlService.name,
        ):
            run_stats.service(name)
        if config.effective_checkpoint_interval_ns is not None:
            # Mirrors the conditional dispatcher registration: the row
            # exists exactly when the service does.
            run_stats.service(NodeCheckpointService.name)
        if (
            config.heartbeat_interval_ns is not None
            and node.node_id != node.master_id
        ):
            # Same rule for the lease-renewal sender (slaves only: the
            # master's liveness is axiomatic).
            run_stats.service(NodeHeartbeatService.name)
        if node.rpc_retry is not None:
            self.page_retry_stats = run_stats.service(NodeCoherenceService.name)
            self.merge_retry_stats = run_stats.service(NodeSplitTableService.name)
            self.syscall_retry_stats = run_stats.service("node.syscall")
            self.evac_retry_stats = run_stats.service(NodeControlService.name)
        else:
            self.page_retry_stats = None
            self.merge_retry_stats = None
            self.syscall_retry_stats = None
            self.evac_retry_stats = None
        if node.rpc_retry is not None and config.effective_checkpoint_interval_ns is not None:
            self.ckpt_retry_stats = run_stats.service(NodeCheckpointService.name)
        else:
            self.ckpt_retry_stats = None
        self.pagestore = PageStore()
        self.splitmap = SplitMap()
        self.llsc = LLSCTable()
        if config.pure_qemu:
            self.memory = LocalMemory(self.pagestore, self.llsc)
        else:
            self.memory = DSMMemory(self.pagestore, self.splitmap, self.llsc)
        self.engine = ExecutionEngine(
            self.memory,
            timing=EngineTiming(
                cpi_dbt=config.effective_cpi_dbt,
                cpi_interp=config.cpi_interp,
                cpi_superblock=config.cpi_superblock,
                translate_per_insn=config.translate_per_insn,
            ),
            mode=config.mode,
            max_block_insns=config.max_block_insns,
            superblock_threshold=config.superblock_threshold,
            superblock_max_blocks=config.superblock_max_blocks,
            fusion=config.fusion_enabled,
        )
        self.threads: dict[int, GuestThread] = {}
        self.inflight: dict[int, tuple] = {}  # page -> (event, write)
        #: page -> event fired when a forwarded page (§5.2) is installed;
        #: lets an outstanding read fault complete as soon as the push lands.
        self.push_gates: dict[int, object] = {}
        #: The job finished (tenant-scoped Shutdown landed): threads of this
        #: bundle are dropped at their next scheduling point.
        self.finished = False


class NodeRuntime:
    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        node_id: int,
        config: DQEMUConfig,
        run_stats: RunStats,
        *,
        master_id: int = 0,
        on_failure: Optional[Callable[[BaseException], None]] = None,
        tracer=None,
    ) -> None:
        from repro.core.trace import NULL_TRACER

        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.master_id = master_id
        self.run_stats = run_stats
        self.trace = tracer if tracer is not None else NULL_TRACER
        self.on_failure = on_failure or (lambda exc: (_ for _ in ()).throw(exc))

        self.endpoint = Endpoint(sim, fabric, node_id)
        # Node-side services serve every tenant on this node; billing follows
        # the frame's tenant to that job's RunStats via the resolver.
        self.dispatcher = Dispatcher(
            sim, run_stats, endpoint=self.endpoint,
            stats_resolver=lambda msg: self.tenants[msg.tenant].run_stats,
        )
        for service in (
            NodeCoherenceService(self),
            NodeSplitTableService(self),
            NodeControlService(self),
        ):
            self.dispatcher.register(service)
        #: Buddy-held register snapshots (peer-mode checkpointing):
        #: (source node, tenant, tid) -> (taken_ns, context).
        self.peer_checkpoints: dict[tuple[int, int, int], tuple] = {}
        if config.effective_checkpoint_interval_ns is not None:
            # Must register before the router captures the command-kind set
            # below, or peer_checkpoint/fetch_checkpoints frames would route
            # to a master manager.  Conditional so default runs create no
            # "node.checkpoint" stats row and stay bit-identical.
            self.dispatcher.register(NodeCheckpointService(self))
        #: Lease-renewal sender (docs/PROTOCOL.md "Failure detection"):
        #: built only when heartbeats are armed, and only on slaves — the
        #: master never renews a lease with itself.
        self.heartbeat_sender: Optional[NodeHeartbeatService] = None
        if config.heartbeat_interval_ns is not None and node_id != master_id:
            self.heartbeat_sender = NodeHeartbeatService(self)
        command_kinds = self.dispatcher.kinds
        nshards = config.master_shards
        self.endpoint.set_router(
            lambda msg: "comm" if msg.kind in command_kinds
            else ("mgr", msg.tenant, msg.src, _master_shard_key(msg, nshards))
        )
        # Loss recovery for node-issued RPCs (page requests, merge requests,
        # delegated syscalls).  Retransmit traffic is attributed to the
        # node-side service name that owns the protocol plane; the stats
        # bindings exist only when retries are armed, so default runs create
        # no extra RunStats rows ("node.syscall" is not a registered service).
        self.rpc_retry = config.retry_policy()
        self.n_cores = config.cores_of(node_id)
        self.ghz = config.ghz_of(node_id)
        #: Tenant bundles; tenant 0 exists from birth so a bare node is
        #: immediately usable the way the single-job node always was.
        self.tenants: dict[int, NodeTenant] = {}
        self.add_tenant(0, run_stats)
        self.runqueue = FairRunQueue(sim)
        self.shutdown = False
        #: Failure-domain state (docs/PROTOCOL.md "Failure domains"):
        #: ``crashed`` is fail-stop (set by FaultPlan.crash schedules);
        #: ``draining`` diverts every thread reaching a scheduling point
        #: into evacuation back to the master.
        self.crashed = False
        self.draining = False
        self._evacuating = 0  # evacuation RPCs still in flight
        self._drain_sent = False
        #: Cluster node ids (set by the fleet once the topology exists);
        #: checkpoint buddies are computed from it.  A bare node only knows
        #: itself — peer-mode checkpoints then fall back to the master.
        self.peer_ids: list[int] = [node_id]
        #: Virtual time of the last rebalance this node triggered
        #: (cooldown: at most one per rebalance_threshold_ns window).
        self._last_rebalance_ns = 0
        #: Set for the pure-QEMU baseline: syscalls short-circuit locally.
        self.local_kernel: Optional["LocalKernel"] = None

    # -- tenancy ------------------------------------------------------------

    def add_tenant(self, tenant: int, run_stats: RunStats) -> NodeTenant:
        """Provision a job's private slice of this node (idempotent per id)."""
        if tenant in self.tenants:
            raise ProtocolError(f"node {self.node_id}: tenant {tenant} already exists")
        bundle = NodeTenant(self, tenant, run_stats)
        self.tenants[tenant] = bundle
        return bundle

    def bundle(self, tenant: int) -> NodeTenant:
        return self.tenants[tenant]

    # Single-tenant views: the node's original attribute surface delegates
    # to tenant 0, so the pure-QEMU local kernel, tests and tooling written
    # against the one-job node keep reading the same names.

    @property
    def pagestore(self) -> PageStore:
        return self.tenants[0].pagestore

    @property
    def splitmap(self) -> SplitMap:
        return self.tenants[0].splitmap

    @property
    def llsc(self) -> LLSCTable:
        return self.tenants[0].llsc

    @property
    def memory(self):
        return self.tenants[0].memory

    @property
    def engine(self) -> ExecutionEngine:
        return self.tenants[0].engine

    @property
    def threads(self) -> dict[int, GuestThread]:
        return self.tenants[0].threads

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self.sim.spawn(self._guarded(self._communicator()), name=f"comm@{self.node_id}")
        for k in range(self.n_cores):
            self.sim.spawn(self._guarded(self._core(k)), name=f"core{k}@{self.node_id}")
        if self.heartbeat_sender is not None:
            self.heartbeat_sender.start()

    def _guarded(self, gen):
        """Wrap a node process so crashes surface as run failures."""

        def runner():
            try:
                yield from gen
            except BaseException as exc:  # noqa: BLE001 - report and stop
                if self.crashed:
                    return  # a dead node's processes fail silently with it
                self.on_failure(exc)

        return runner()

    def crash(self) -> None:
        """Fail-stop this node (FaultPlan.crash): freeze it mid-flight.

        Cores stop at their next scheduling point, the RPC channel is
        neutered (no retransmit timers keep firing, calls issued by
        still-suspended processes go nowhere and never complete — exactly
        what death looks like to the process), and the permanent wire drop
        rules the crash plan installed take care of any frame already in
        flight.  Nothing is cleaned up: a crashed machine does not get to
        run recovery code.
        """
        if self.crashed:
            return
        self.crashed = True
        self.shutdown = True
        self.trace.emit("node", self.node_id, "crash")
        self.endpoint.rpc.halt()
        for _ in range(self.n_cores):
            self.runqueue.put(None)

    # -- thread management ------------------------------------------------------

    def add_thread(self, cpu: CPUState, tenant: int = 0) -> GuestThread:
        bundle = self.tenants[tenant]
        ts = bundle.run_stats.thread(cpu.tid)
        ts.node = self.node_id
        if ts.quanta == 0:  # fresh thread (not a live migration)
            ts.created_ns = self.sim.now
        th = GuestThread(cpu, ts, tenant)
        th.last_checkpoint_ns = self.sim.now  # first snapshot waits a full interval
        bundle.threads[cpu.tid] = th
        self.trace.emit("thread", self.node_id, "start", tid=cpu.tid)
        self._requeue(th)
        return th

    def _cycles_to_ns(self, cycles: float) -> int:
        return int(round(cycles / self.ghz))

    def _requeue(self, th: GuestThread) -> None:
        if self.draining and not self.shutdown:
            # Cooperative drain: every thread reaching a scheduling point is
            # handed back to the master instead of queued locally.
            self._evacuate(th)
            return
        if self._checkpoint_due(th):
            # Every requeue is a consistent capture point: the fault or
            # syscall that stopped the thread has fully resolved, so the
            # context sits at an instruction boundary with no pending
            # kernel interaction to replay (docs/PROTOCOL.md
            # "Checkpoint/restore").
            self._take_checkpoint(th, self.tenants[th.tenant])
        th.state = GuestThreadState.READY
        th.enqueued_at = self.sim.now
        self.runqueue.put(th)

    def _wake_thread(self, tid: int, retval: int, tenant: int = 0) -> None:
        th = self.tenants[tenant].threads.get(tid)
        if th is None or th.state is not GuestThreadState.BLOCKED:
            raise ProtocolError(f"node {self.node_id}: futex wake for non-blocked tid {tid}")
        if th.blocked_at is not None:
            th.stats.blocked_ns += self.sim.now - th.blocked_at
            th.blocked_at = None
        th.cpu.regs[A0] = retval & M64
        self.trace.emit("thread", self.node_id, "wake", tid=tid)
        self._requeue(th)

    # -- drain evacuation (docs/PROTOCOL.md "Failure domains") -----------------

    def _evacuate(self, th: GuestThread, reason: str = "drain") -> None:
        """Hand a thread back to the master for re-placement elsewhere.

        Locally this looks exactly like a live migration away (same
        bookkeeping as the ``reply.migrated`` branch of the syscall
        handler); the context travels in an ``EvacuateThread`` request and
        the master's failure-domain service re-spawns it on a usable node.
        ``reason`` distinguishes a drain (the node is emptying itself) from
        a load rebalance (the node is shedding its hottest thread).
        """
        cpu = th.cpu
        bundle = self.tenants[th.tenant]
        th.state = GuestThreadState.EXITED
        cpu.halted = True
        bundle.threads.pop(cpu.tid, None)
        self.trace.emit("thread", self.node_id, f"evacuating ({reason})", tid=cpu.tid)
        self._evacuating += 1
        self.sim.spawn(
            self._guarded(self._evacuate_rpc(cpu, bundle, reason)),
            name=f"evac@{self.node_id}",
        )

    def _evacuate_rpc(self, cpu: CPUState, bundle: NodeTenant, reason: str):
        with attribute_timeouts(NodeControlService.name):
            yield self.endpoint.request(
                self.master_id,
                EvacuateThread(
                    tid=cpu.tid, context=cpu.snapshot(), tenant=bundle.tenant,
                    reason=reason,
                ),
                timeout_ns=self.config.rpc_timeout_ns,
                retry=self.rpc_retry, stats=bundle.evac_retry_stats,
            )
        self._evacuating -= 1
        self._check_drain_complete()

    def _check_drain_complete(self) -> None:
        """Announce drain completion once no thread remains on this node.

        Parked threads stay local until their futex wake arrives (the wake
        path then diverts them into evacuation), so a drain completes lazily
        — exactly when the last local incarnation is gone and every
        evacuation RPC has been acknowledged.
        """
        if (
            not self.draining
            or self._drain_sent
            or self.shutdown
            or any(b.threads for b in self.tenants.values())
            or self._evacuating
        ):
            return
        self._drain_sent = True
        self.sim.spawn(
            self._guarded(self._send_drain_complete()),
            name=f"drained@{self.node_id}",
        )

    def _send_drain_complete(self):
        done = DrainComplete()  # drains are single-job (tenant 0) territory
        if self.config.rpc_timeout_ns is not None:
            with attribute_timeouts(NodeControlService.name):
                yield self.endpoint.request(
                    self.master_id, done,
                    timeout_ns=self.config.rpc_timeout_ns,
                    retry=self.rpc_retry, stats=self.tenants[0].evac_retry_stats,
                )
        else:  # pragma: no cover - drains require armed timeouts in practice
            self.endpoint.send(self.master_id, done)

    # -- checkpointing (docs/PROTOCOL.md "Checkpoint/restore") ------------------

    def _checkpoint_due(self, th: GuestThread) -> bool:
        interval = self.config.effective_checkpoint_interval_ns
        return (
            interval is not None
            and self.node_id != self.master_id  # the master cannot crash
            and not self.draining  # a draining node evacuates live contexts
            and not self.tenants[th.tenant].finished
            and self.sim.now - th.last_checkpoint_ns >= interval
        )

    def _take_checkpoint(self, th: GuestThread, bundle: NodeTenant) -> None:
        """Snapshot ``th`` at this scheduling boundary and ship it async.

        The capture itself is synchronous — the register context plus
        byte-copies of every page the tenant holds Modified on this node,
        taken before the thread runs another instruction.  That page set is
        a conservative superset of the thread's own dirty pages (no
        per-thread dirty tracking), and copying it here is what makes the
        snapshot a consistent cut: restoring (context, flushed pages)
        reproduces exactly the memory this thread could have observed at
        ``taken_ns``, under any coherence protocol.  Shipping happens in a
        spawned process so the core keeps executing.
        """
        taken_ns = self.sim.now
        th.last_checkpoint_ns = taken_ns
        context = th.cpu.snapshot()
        store = bundle.pagestore
        pages = tuple(
            (page, store.snapshot(page))
            for page in sorted(store.pages())
            if store.state(page) is MSIState.MODIFIED
        )
        bundle.run_stats.protocol.checkpoints_taken += 1
        self.trace.emit(
            "thread", self.node_id,
            f"checkpoint ({len(pages)} M pages)", tid=th.tid,
        )
        self.sim.spawn(
            self._guarded(self._checkpoint_rpc(th.tid, taken_ns, context,
                                               pages, bundle)),
            name=f"ckpt@{self.node_id}",
        )

    def _checkpoint_rpc(self, tid: int, taken_ns: int, context, pages,
                        bundle: NodeTenant):
        from repro.core.services.checkpoint import checkpoint_buddy

        from repro.net.rpc import RpcTimeout

        proto = bundle.run_stats.protocol
        buddy = self.master_id
        if self.config.checkpoint_target == "peer":
            buddy = checkpoint_buddy(self.node_id, self.peer_ids, self.master_id)
        try:
            with attribute_timeouts(NodeCheckpointService.name):
                if buddy != self.master_id:
                    # Peer mode: register context to the ring buddy, Modified
                    # pages still flush home — the master stays page
                    # authority.
                    ctx_msg = PeerCheckpoint(
                        tid=tid, taken_ns=taken_ns, context=context,
                        tenant=bundle.tenant,
                    )
                    flush = CheckpointFlush(
                        taken_ns=taken_ns, pages=pages, tenant=bundle.tenant,
                    )
                    proto.checkpoint_bytes += (
                        ctx_msg.size_bytes() + flush.size_bytes()
                    )
                    yield self.endpoint.request(
                        buddy, ctx_msg,
                        timeout_ns=self.config.rpc_timeout_ns,
                        retry=self.rpc_retry, stats=bundle.ckpt_retry_stats,
                    )
                    yield self.endpoint.request(
                        self.master_id, flush,
                        timeout_ns=self.config.rpc_timeout_ns,
                        retry=self.rpc_retry, stats=bundle.ckpt_retry_stats,
                    )
                else:
                    # Master mode (or a degenerate single-slave peer ring):
                    # context and pages travel in one frame.
                    msg = Checkpoint(
                        tid=tid, taken_ns=taken_ns, context=context,
                        pages=pages, tenant=bundle.tenant,
                    )
                    proto.checkpoint_bytes += msg.size_bytes()
                    yield self.endpoint.request(
                        self.master_id, msg,
                        timeout_ns=self.config.rpc_timeout_ns,
                        retry=self.rpc_retry, stats=bundle.ckpt_retry_stats,
                    )
        except RpcTimeout:
            # The holder stopped answering (a dead buddy, or the master is
            # drowning) — a checkpoint is best-effort by design: drop this
            # snapshot and carry on; the next interval tries again.
            proto.checkpoints_discarded += 1
            self.trace.emit(
                "thread", self.node_id, "checkpoint lost (holder timeout)",
                tid=tid,
            )

    # -- core scheduling ------------------------------------------------------

    def _core(self, core_id: int):
        while True:
            th = yield self.runqueue.get()
            if th is None:  # shutdown sentinel
                return
            if th.state is not GuestThreadState.READY:
                continue
            if self.draining:
                # Queued before the drain order arrived: evacuate instead of
                # running another quantum here.
                self._evacuate(th)
                continue
            if th.evac_requested:
                # The rebalancer picked this thread while it sat queued:
                # ship it to an underloaded node instead of running it.
                th.evac_requested = False
                self._evacuate(th, reason="rebalance")
                continue
            waited = self.sim.now - th.enqueued_at
            th.stats.runnable_wait_ns += waited
            if self._should_rebalance(waited):
                victim = self._rebalance_victim(th)
                self._last_rebalance_ns = self.sim.now
                self.tenants[victim.tenant].run_stats.protocol \
                    .rebalance_evacuations += 1
                if victim is th:
                    self._evacuate(th, reason="rebalance")
                    continue
                victim.evac_requested = True
            th.state = GuestThreadState.RUNNING
            yield from self._run_turn(th)

    def _should_rebalance(self, waited_ns: int) -> bool:
        """A queue-wait stint crossed the threshold on a healthy slave, and
        the per-node cooldown (one shed per threshold window) has passed."""
        threshold = self.config.rebalance_threshold_ns
        return (
            threshold is not None
            and self.node_id != self.master_id
            and not self.draining
            and not self.shutdown
            and waited_ns >= threshold
            and self.sim.now - self._last_rebalance_ns >= threshold
        )

    def _rebalance_victim(self, current: GuestThread) -> GuestThread:
        """The hottest runnable thread on this node: shedding the biggest
        compute consumer moves the most queue pressure per evacuation."""
        candidates = [current] + [
            t for t in self.runqueue.peek_all()
            if t is not None and t.state is GuestThreadState.READY
            and not t.evac_requested
        ]
        return max(candidates, key=lambda t: (t.stats.execute_ns, -t.tid))

    def _run_turn(self, th: GuestThread):
        cfg = self.config
        cpu = th.cpu
        bundle = self.tenants[th.tenant]
        while not self.shutdown and not bundle.finished:
            stop = bundle.engine.run_quantum(cpu, cfg.quantum_cycles)
            ns = self._cycles_to_ns(stop.cycles)
            if ns:
                yield self.sim.timeout(ns)
            # Split the quantum's wall time into translation vs execution
            # mode for the Fig. 8 breakdown; the sum stays exactly ns.
            tr_ns = min(ns, self._cycles_to_ns(stop.translate_cycles))
            th.stats.translate_ns += tr_ns
            th.stats.execute_ns += ns - tr_ns
            th.stats.quanta += 1
            kind = stop.kind
            if kind is StopKind.QUANTUM:
                if self.draining or len(self.runqueue):
                    self._requeue(th)  # other threads are waiting: yield the core
                    return
                if self._checkpoint_due(th):
                    # A solo thread keeps the core without requeueing, so
                    # its quantum boundary is the capture point (the requeue
                    # path handles every other scheduling boundary).
                    self._take_checkpoint(th, bundle)
                continue
            if kind is StopKind.PAGE_STALL:
                self.sim.spawn(
                    self._guarded(self._fault_handler(th, stop.info)),
                    name=f"fault@{self.node_id}",
                )
                return
            if kind is StopKind.SYSCALL:
                self.sim.spawn(
                    self._guarded(self._syscall_handler(th)),
                    name=f"sys@{self.node_id}",
                )
                return
            if kind is StopKind.BREAK:
                raise GuestFault(f"ebreak at pc={cpu.pc - 4:#x}", pc=cpu.pc - 4)
            raise stop.info  # StopKind.FAULT

    # -- page faults ------------------------------------------------------------

    def _fault_handler(self, th: GuestThread, stall: PageStall):
        cfg = self.config
        t0 = self.sim.now
        yield self.sim.timeout(self._cycles_to_ns(cfg.page_fault_trap_cycles))
        if isinstance(stall, MergeStall):
            yield from self._request_merge(stall.orig_page, th.tenant)
        else:
            yield from self.acquire_page(
                stall.page, stall.write, stall.offset, stall.size, tenant=th.tenant
            )
        th.stats.pagefault_ns += self.sim.now - t0
        th.stats.page_faults += 1
        self._requeue(th)

    def acquire_page(
        self, page: int, write: bool, offset: int = 0, size: int = 8, tenant: int = 0
    ):
        """Bring ``page`` in at (at least) the needed state, deduplicating
        concurrent requests from the tenant's threads on this node."""
        with attribute_timeouts(NodeCoherenceService.name):
            yield from self._acquire_page(self.tenants[tenant], page, write, offset, size)

    def _acquire_page(
        self, bundle: NodeTenant, page: int, write: bool, offset: int, size: int
    ):
        store = bundle.pagestore
        while True:
            if write and store.silently_upgrade(page):
                # MESI: an Exclusive-clean copy becomes Modified right here
                # — the fault costs the local trap, never a master round
                # trip (docs/PROTOCOL.md "Coherence protocols").
                bundle.run_stats.protocol.silent_upgrades += 1
                bundle.run_stats.service(NodeCoherenceService.name).silent_upgrades += 1
                return
            if store.has_write(page) or (not write and store.has_read(page)):
                return
            inflight = bundle.inflight.get(page)
            if inflight is not None:
                ev, in_write = inflight
                yield ev
                continue  # re-check: the finished request may not suffice
            ev = self.sim.event()
            bundle.inflight[page] = (ev, write)
            try:
                req = self.endpoint.request(
                    self.master_id,
                    PageRequest(
                        page=page, write=write, offset=offset, size=size,
                        tenant=bundle.tenant,
                    ),
                    timeout_ns=self.config.rpc_timeout_ns,
                    retry=self.rpc_retry, stats=bundle.page_retry_stats,
                )
                if write:
                    reply = yield req
                else:
                    # A forwarded page may land while the demand request is in
                    # flight; whichever arrives first completes the fault.
                    gate = bundle.push_gates.get(page)
                    if gate is None:
                        gate = bundle.push_gates[page] = self.sim.event()
                    which, value = yield self.sim.any_of([req, gate])
                    reply = value if which == 0 else None
            finally:
                del bundle.inflight[page]
                bundle.push_gates.pop(page, None)
                ev.succeed()
            if reply is None or reply.ack_only:
                # A push installed the page (or will momentarily); if it was
                # somehow dropped meanwhile, the access simply faults again.
                return
            if reply.retry:
                # Page was split/merged concurrently: the access re-translates
                # against the updated table and faults again if needed.
                return
            if reply.upgrade:
                # Payload-free S→M upgrade ack: the local Shared copy is
                # current, only its state flips.  If the copy was somehow
                # dropped meanwhile, the access simply faults again.
                if store.has_read(page):
                    store.set_state(page, MSIState.MODIFIED)
                return
            if reply.write:
                state = MSIState.MODIFIED
            elif reply.exclusive:
                state = MSIState.EXCLUSIVE
            else:
                state = MSIState.SHARED
            store.install(page, reply.data, state)
            return

    def _request_merge(self, orig_page: int, tenant: int = 0):
        bundle = self.tenants[tenant]
        with attribute_timeouts(NodeSplitTableService.name):
            yield self.endpoint.request(
                self.master_id, MergeRequest(page=orig_page, tenant=tenant),
                timeout_ns=self.config.rpc_timeout_ns,
                retry=self.rpc_retry, stats=bundle.merge_retry_stats,
            )

    # -- syscalls ----------------------------------------------------------------

    def _syscall_handler(self, th: GuestThread):
        cfg = self.config
        cpu = th.cpu
        bundle = self.tenants[th.tenant]
        t0 = self.sim.now
        yield self.sim.timeout(self._cycles_to_ns(cfg.syscall_trap_cycles))
        sysno = cpu.regs[A7]
        args = tuple(cpu.regs[A0: A0 + 6])
        th.stats.syscalls += 1

        if not is_global(sysno):
            yield from self._local_syscall(th, sysno, args)
            th.stats.syscall_ns += self.sim.now - t0
            bundle.run_stats.protocol.local_syscalls += 1
            self._requeue(th)
            return

        if self.local_kernel is not None:
            yield from self.local_kernel.handle(self, th, sysno, args)
            th.stats.syscall_ns += self.sim.now - t0
            return

        bundle.run_stats.protocol.delegated_syscalls += 1
        with attribute_timeouts("node.syscall"):
            reply = yield self.endpoint.request(
                self.master_id,
                SyscallRequest(
                    tid=cpu.tid, sysno=sysno, args=args, context=cpu.snapshot(),
                    tenant=th.tenant,
                ),
                timeout_ns=self.config.rpc_timeout_ns,
                retry=self.rpc_retry, stats=bundle.syscall_retry_stats,
            )
        th.stats.syscall_ns += self.sim.now - t0
        if reply.exited:
            th.state = GuestThreadState.EXITED
            th.stats.finished_ns = self.sim.now
            cpu.halted = True
            bundle.threads.pop(cpu.tid, None)
            self.trace.emit("thread", self.node_id, "exit", tid=cpu.tid)
            self._check_drain_complete()
            return
        if reply.parked:
            th.state = GuestThreadState.BLOCKED
            th.blocked_at = self.sim.now
            self.trace.emit("thread", self.node_id, "park", tid=cpu.tid)
            return
        if reply.migrated:
            # The thread now runs on another node (live migration); just
            # forget the local incarnation — no exit bookkeeping.
            th.state = GuestThreadState.EXITED
            cpu.halted = True
            bundle.threads.pop(cpu.tid, None)
            self.trace.emit("thread", self.node_id, "migrated away", tid=cpu.tid)
            self._check_drain_complete()
            return
        cpu.regs[A0] = reply.retval & M64
        self._requeue(th)

    def _local_syscall(self, th: GuestThread, sysno: int, args: tuple[int, ...]):
        """Paper §4.3: local syscalls are served without a master round trip."""
        cpu = th.cpu
        now = self.sim.now
        tenant = th.tenant
        if sysno == SYS.NANOSLEEP:
            sec = yield from self._load_guest_local(args[0], 8, tenant)
            nsec = yield from self._load_guest_local(args[0] + 8, 8, tenant)
            yield self.sim.timeout(sec * 1_000_000_000 + nsec)
            cpu.regs[A0] = 0
        elif sysno == SYS.GETTID:
            cpu.regs[A0] = cpu.tid
        elif sysno == SYS.GETPID:
            cpu.regs[A0] = 1
        elif sysno in (SYS.SCHED_YIELD, SYS.MPROTECT, SYS.MADVISE):
            cpu.regs[A0] = 0
        elif sysno == SYS.CLOCK_GETTIME:
            data = (now // 1_000_000_000).to_bytes(8, "little") + (
                now % 1_000_000_000
            ).to_bytes(8, "little")
            yield from self._store_guest_local(args[1], data, tenant)
            cpu.regs[A0] = 0
        elif sysno == SYS.GETTIMEOFDAY:
            data = (now // 1_000_000_000).to_bytes(8, "little") + (
                (now % 1_000_000_000) // 1000
            ).to_bytes(8, "little")
            yield from self._store_guest_local(args[0], data, tenant)
            cpu.regs[A0] = 0
        else:  # pragma: no cover - classify() keeps this unreachable
            raise ProtocolError(f"syscall {sysno} not handled locally")
        return
        yield  # pragma: no cover - generator protocol

    def _load_guest_local(self, addr: int, size: int, tenant: int = 0):
        """Guest-memory read through the tenant's memory (acquiring pages)."""
        memory = self.tenants[tenant].memory
        while True:
            try:
                return memory.load(addr, size, False)
            except PageStall as stall:
                yield from self.acquire_page(
                    stall.page, stall.write, stall.offset, tenant=tenant
                )

    def _store_guest_local(self, addr: int, data: bytes, tenant: int = 0):
        """8-byte-chunk store through the tenant's memory (acquiring pages)."""
        memory = self.tenants[tenant].memory
        for k in range(0, len(data), 8):
            chunk = data[k : k + 8]
            value = int.from_bytes(chunk, "little")
            while True:
                try:
                    memory.store(addr + k, len(chunk), value)
                    break
                except PageStall as stall:
                    yield from self.acquire_page(
                        stall.page, stall.write, stall.offset, tenant=tenant
                    )

    # -- communicator ------------------------------------------------------------

    def _communicator(self):
        q = self.endpoint.subscribe("comm")
        cfg = self.config
        while True:
            msg = yield q.get()
            # The per-command handling cost is spent before dispatch; passing
            # its start as started_at bills it as the handling service's busy
            # time (not mailbox queue wait) without changing any timing.
            started_at = self.sim.now
            yield self.sim.timeout(cfg.slave_coherence_service_ns)
            yield from self.dispatcher.dispatch(msg, started_at=started_at)
            if self.shutdown:
                return
