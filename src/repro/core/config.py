"""DQEMU configuration and calibrated cost model.

Defaults reproduce the paper's testbed (§6.1): nodes with 4 cores at
3.3 GHz, a 1 Gb/s switch with ~55 µs round-trip for small control messages,
4 KiB pages, forwarding triggered by 4 sequential page requests, splitting
by 10 multi-node false-sharing requests.

Calibration notes (see EXPERIMENTS.md for the resulting numbers):

* ``page_fault_trap_cycles = 2000`` — the paper cites ~2 000 cycles for a
  page-fault trap.
* ``dsm_service_ns = 320_000`` — the measured remote-page latency in the
  paper is 410.5 µs against a ~40 µs wire lower bound; the residual is
  master-side protocol software (directory lookup, mprotect fiddling,
  manager queueing).  We bill it as the manager's per-request service time.
* ``qemu_cpi_discount`` — vanilla QEMU 4.2.0 runs ~4 % faster than a
  one-node DQEMU (Fig. 5's dashed line at 1.04): DQEMU adds a shadow-page
  lookup to guest address translation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigError
from repro.net.faults import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.rpc import RetryPolicy

__all__ = ["DQEMUConfig"]


@dataclass(frozen=True)
class DQEMUConfig:
    # -- cluster shape -------------------------------------------------------
    cores_per_node: int = 4
    cpu_ghz: float = 3.3
    # Heterogeneous clusters (paper §1: DBT "allows nodes in a cluster to
    # have different kinds of physical cores"): per-node overrides of core
    # count and clock, keyed by node id.  None = homogeneous.
    node_cores: Optional[dict[int, int]] = None
    node_ghz: Optional[dict[int, float]] = None

    # -- network (paper §6.1: TP-Link Gigabit switch, 55 us TCP RTT) ----------
    bandwidth_bps: float = 1e9
    one_way_latency_ns: int = 27_400
    loopback_latency_ns: int = 300

    # -- DBT engine ----------------------------------------------------------
    mode: str = "dbt"  # "dbt" | "interp"
    cpi_dbt: float = 3.0
    cpi_interp: float = 30.0
    translate_per_insn: float = 800.0
    max_block_insns: int = 64
    quantum_cycles: int = 50_000
    # DBT hot-path tier (docs/PROTOCOL.md "DBT hot path").  Superblocks and
    # idiom fusion change the cost model, so they default off and every
    # committed table regenerates bit-identically.
    # exec_count at which a hot block is grown into a trace superblock;
    # 0 disables promotion entirely.
    superblock_threshold: int = 0
    superblock_max_blocks: int = 8  # trace-length cap (members, may repeat)
    cpi_superblock: float = 1.0  # per-insn cost inside a superblock
    fusion_enabled: bool = False  # peephole idiom fusion (compare+branch, ...)

    # -- DSM / coherence ----------------------------------------------------
    # Page-coherence protocol (docs/PROTOCOL.md "Coherence protocols"):
    #   "msi"      the paper's directory MSI (default; every committed table
    #              regenerates bit-identically),
    #   "mesi"     Exclusive-clean read grants + silent node-side E->M
    #              upgrades + payload-free S->M upgrade acks,
    #   "migrate"  MESI + home migration toward each page's dominant writer,
    #   "adaptive" per-page choice among the three from online access-
    #              pattern stats with hysteresis.
    coherence_protocol: str = "msi"
    # Consecutive write acquisitions by one node before a page's home
    # migrates to it ("migrate"/"adaptive").
    migration_trigger: int = 4
    # Extra hop paid by every OTHER node's request once a page's home has
    # migrated: the master must reach the remote home for the authoritative
    # copy instead of its own store.  Makes migration a real bet — it only
    # pays off while the new home stays the dominant requester.
    migration_penalty_ns: int = 160_000
    # Page requests between adaptive-classifier evaluations of a page.
    adaptive_window: int = 16
    page_fault_trap_cycles: int = 2_000
    dsm_service_ns: int = 320_000  # master manager per page-request
    # A request racing an already-delivered forwarded page (the directory
    # already lists the node as sharer) is a cheap directory-lookup ack.
    dsm_fast_service_ns: int = 2_000
    slave_coherence_service_ns: int = 2_000  # slave handling inval/downgrade
    syscall_service_ns: int = 3_000  # master executing a delegated syscall
    syscall_trap_cycles: int = 500  # local trap cost (both modes)

    # -- optimizations (§5) ----------------------------------------------------
    forwarding_enabled: bool = False
    forwarding_trigger: int = 4  # sequential requests before pushing (§6.1.1)
    forwarding_initial_window: int = 8
    # Linux-readahead-style doubling; a large cap keeps long streams miss-free
    # (the paper's 1 GB walk approaches wire speed, 108 MB/s on 1 Gb/s).
    forwarding_max_window: int = 256
    forwarding_push_ns: int = 4_000  # master-side cost per pushed page

    splitting_enabled: bool = False
    splitting_trigger: int = 10  # multi-node requests before split (§6.1.1)
    splitting_max_regions: int = 32
    splitting_history: int = 64  # per-page access records kept
    split_service_ns: int = 50_000  # master work: probe space, copy, broadcast
    merge_service_ns: int = 50_000

    # -- master sharding (ROADMAP "Async / sharded master") --------------------
    # Number of independent shard pools the master's directory is partitioned
    # into.  Each shard owns the pages with page_no % master_shards == shard
    # (see repro.mem.sharding.shard_of), with its own dispatcher, directory
    # partition, split-table partition, and per-node manager processes.  The
    # default of 1 is the paper's single-directory master and reproduces every
    # run bit-for-bit; higher values attack manager head-of-line blocking at
    # large node counts (measured as ServiceStats.queue_wait_ns).
    master_shards: int = 1

    # -- scheduling (§5.3) ----------------------------------------------------
    scheduler: str = "round_robin"  # "round_robin" | "hint"

    # -- robustness / fault injection (docs/PROTOCOL.md "Failure modes") -------
    # Per-request timeout for every service-issued RPC.  None (the default)
    # is the paper's lossless-fabric assumption: wait forever.  Set, it makes
    # a dead or partitioned peer fail the run loudly with a ServiceTimeout
    # naming the service, message kind and peer instead of deadlocking.
    rpc_timeout_ns: Optional[int] = None
    # Reliable delivery (docs/PROTOCOL.md "Reliable delivery"): with
    # rpc_max_retries > 0 every service-issued RPC retransmits a cloned frame
    # up to that many times on timeout expiry — waiting out an exponential
    # backoff (base << attempt, plus a deterministic jitter in
    # [0, rpc_backoff_jitter_ns] hashed from the request id) before each —
    # and only then escalates to ServiceTimeout.  Requires rpc_timeout_ns
    # (loss is detected by the timeout).  The default of 0 sends nothing
    # extra ever: wire traffic and timings stay bit-identical to the
    # retry-free protocol.
    rpc_max_retries: int = 0
    rpc_backoff_base_ns: int = 50_000
    rpc_backoff_jitter_ns: int = 0
    # Fault plan applied to the fabric (repro.net.faults.FaultPlan).  None
    # leaves the wire untouched; an empty plan attaches the injection
    # machinery but injects nothing — runs stay bit-identical either way.
    fault_plan: Optional[FaultPlan] = None
    # Health-tracker thresholds (docs/PROTOCOL.md "Failure domains"):
    # consecutive missed timeout windows before a peer is demoted to
    # suspect, and before it is demoted to down.  Any call exhausting its
    # whole retry budget demotes the peer to down regardless.
    health_suspect_after: int = 2
    health_down_after: int = 5
    # Failure-domain runtime: arm the master-side failure detector and the
    # FailureDomainService (thread evacuation, directory re-homing, lost
    # thread/page accounting).  Requires rpc_timeout_ns — crashes are
    # detected by timeout expiry.  Armed (or with a drain scheduled), the
    # fleet keeps a health view and placement consults it: the ThreadPlacer
    # skips down/failed/draining candidates and deprioritizes suspect ones.
    # Off by default — the paper's scheduler is health-blind.
    evacuation_enabled: bool = False
    # Checkpoint/restore (docs/PROTOCOL.md "Checkpoint/restore"): every
    # checkpoint_interval_ns of virtual time each slave snapshots a running
    # thread's register context at a quantum boundary — together with a
    # write-back of the tenant's Modified pages, so the snapshot is a
    # consistent cut under every coherence protocol — and ships it to the
    # master, which holds every snapshot (protocol authority stays on the
    # master, paper §4).  On a crash, threads with a live checkpoint are
    # rolled back and re-placed instead of reaped.  None (the
    # default) sends nothing: wire traffic and every committed table stay
    # bit-identical.  Requires evacuation_enabled (restore rides the failure
    # domain's recovery path).
    checkpoint_interval_ns: Optional[int] = None
    # Master-side cost of landing one checkpoint frame (store the context,
    # before per-page install work under the shard locks).
    checkpoint_service_ns: int = 4_000
    # Active liveness (docs/PROTOCOL.md "Failure detection"): every slave
    # sends a lease-renewal heartbeat frame to the master every
    # heartbeat_interval_ns of virtual time.  The master's HeartbeatService
    # treats a renewal as positive liveness evidence and a whole lease of
    # silence as failure evidence, escalated through the same HealthTracker
    # thresholds as RPC timeouts (up -> suspect -> down) — so a crash on a
    # *quiet victim*, a node nobody happens to call, is detected within a
    # bounded window (heartbeat_detection_bound_ns) instead of hanging the
    # join forever.  The lease — the silence tolerated before a peer
    # accrues missed-lease evidence — is always four renewal intervals
    # (heartbeat_lease_span_ns).  None (the default) sends nothing: wire
    # traffic and every committed table stay bit-identical.  Requires
    # evacuation_enabled: lease expiry drives the failure domain's recovery
    # path exactly as an RPC-detected death does.
    heartbeat_interval_ns: Optional[int] = None

    # -- multi-tenant job admission (docs/PROTOCOL.md "Multi-tenant jobs") ----
    # Jobs submitted beyond max_concurrent_jobs wait in the admission queue;
    # beyond queue depth on top of that, submit() refuses outright
    # (back-pressure to the caller instead of unbounded buffering).
    max_concurrent_jobs: int = 3
    admission_queue_depth: int = 16

    # -- baseline -------------------------------------------------------------
    pure_qemu: bool = False  # single-node vanilla-QEMU model (no DSM layer)
    qemu_cpi_discount: float = 0.96

    def __post_init__(self):
        if self.cores_per_node < 1:
            raise ConfigError("cores_per_node must be >= 1")
        if self.mode not in ("dbt", "interp"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.scheduler not in ("round_robin", "hint"):
            raise ConfigError(f"unknown scheduler {self.scheduler!r}")
        if self.coherence_protocol not in ("msi", "mesi", "migrate", "adaptive"):
            raise ConfigError(
                f"unknown coherence protocol {self.coherence_protocol!r} "
                "(choose msi, mesi, migrate or adaptive)"
            )
        if self.migration_trigger < 1:
            raise ConfigError("migration_trigger must be >= 1")
        if self.migration_penalty_ns < 0:
            raise ConfigError("migration_penalty_ns must be >= 0")
        if self.adaptive_window < 2:
            raise ConfigError("adaptive_window must be >= 2")
        if self.cpu_ghz <= 0:
            raise ConfigError("cpu_ghz must be positive")
        if self.forwarding_trigger < 1 or self.splitting_trigger < 1:
            raise ConfigError("optimization triggers must be >= 1")
        if self.superblock_threshold < 0:
            raise ConfigError("superblock_threshold must be >= 0 (0 disables)")
        if self.superblock_max_blocks < 2:
            raise ConfigError("superblock_max_blocks must be >= 2")
        if self.cpi_superblock <= 0 or self.cpi_superblock > self.cpi_dbt:
            raise ConfigError(
                "cpi_superblock must be positive and no costlier than cpi_dbt"
            )
        if self.master_shards < 1:
            raise ConfigError("master_shards must be >= 1")
        if self.rpc_timeout_ns is not None and self.rpc_timeout_ns <= 0:
            raise ConfigError("rpc_timeout_ns must be positive (or None)")
        if self.rpc_max_retries < 0:
            raise ConfigError("rpc_max_retries must be >= 0")
        if self.rpc_max_retries and self.rpc_timeout_ns is None:
            raise ConfigError(
                "rpc_max_retries needs rpc_timeout_ns: retransmission is "
                "triggered by timeout expiry"
            )
        if self.rpc_backoff_base_ns < 0 or self.rpc_backoff_jitter_ns < 0:
            raise ConfigError("rpc backoff delays must be non-negative")
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ConfigError("fault_plan must be a repro.net.faults.FaultPlan")
        if self.max_concurrent_jobs < 1:
            raise ConfigError("max_concurrent_jobs must be >= 1")
        if self.admission_queue_depth < 0:
            raise ConfigError("admission_queue_depth must be >= 0")
        if self.health_suspect_after < 1:
            raise ConfigError("health_suspect_after must be >= 1")
        if self.health_down_after <= self.health_suspect_after:
            raise ConfigError(
                "health_down_after must exceed health_suspect_after "
                "(a peer is suspect before it is down)"
            )
        if self.evacuation_enabled and self.rpc_timeout_ns is None:
            raise ConfigError(
                "evacuation_enabled needs rpc_timeout_ns: node failures are "
                "detected by timeout expiry"
            )
        if self.checkpoint_interval_ns is not None and self.checkpoint_interval_ns <= 0:
            raise ConfigError("checkpoint_interval_ns must be positive (or None)")
        if self.checkpoint_service_ns < 0:
            raise ConfigError("checkpoint_service_ns must be >= 0")
        if self.checkpoint_interval_ns is not None and not self.evacuation_enabled:
            raise ConfigError(
                "checkpoint_interval_ns needs evacuation_enabled: restore "
                "rides the failure domain's recovery path"
            )
        if self.heartbeat_interval_ns is not None and self.heartbeat_interval_ns <= 0:
            raise ConfigError("heartbeat_interval_ns must be positive (or None)")
        if self.heartbeat_interval_ns is not None and not self.evacuation_enabled:
            raise ConfigError(
                "heartbeat_interval_ns needs evacuation_enabled: lease expiry "
                "drives the failure domain's recovery path"
            )
        for nid, cores in (self.node_cores or {}).items():
            if cores < 1:
                raise ConfigError(f"node {nid}: cores must be >= 1")
        for nid, ghz in (self.node_ghz or {}).items():
            if ghz <= 0:
                raise ConfigError(f"node {nid}: clock must be positive")

    # -- helpers ----------------------------------------------------------------

    def cycles_to_ns(self, cycles: float) -> int:
        return int(round(cycles / self.cpu_ghz))

    def cores_of(self, node_id: int) -> int:
        if self.node_cores and node_id in self.node_cores:
            return self.node_cores[node_id]
        return self.cores_per_node

    def ghz_of(self, node_id: int) -> float:
        if self.node_ghz and node_id in self.node_ghz:
            return self.node_ghz[node_id]
        return self.cpu_ghz

    @property
    def effective_cpi_dbt(self) -> float:
        return self.cpi_dbt * self.qemu_cpi_discount if self.pure_qemu else self.cpi_dbt

    def heartbeat_lease_span_ns(self) -> Optional[int]:
        """The armed lease duration: 4x the renewal interval (None with
        heartbeats off).

        Four intervals tolerate up to three consecutive lost-or-late
        renewals before the first missed-lease evidence accrues, keeping
        the detector quiet under transient loss while still bounding
        detection at a small multiple of the interval.  Anything under two
        would let one delayed renewal false-positive a healthy node.
        """
        if self.heartbeat_interval_ns is None:
            return None
        return 4 * self.heartbeat_interval_ns

    def heartbeat_detection_bound_ns(self) -> Optional[int]:
        """Worst-case crash-to-``node_failed`` latency of the detector.

        A renewal in flight at the crash lands up to one one-way wire
        latency later and re-arms a full lease; the master's monitor then
        needs ``health_down_after`` consecutive expired checks — one per
        renewal interval, plus up to one interval of tick phase — before
        the peer is demoted to down and the failure domain fires.
        """
        if self.heartbeat_interval_ns is None:
            return None
        return (
            self.heartbeat_lease_span_ns()
            + (self.health_down_after + 1) * self.heartbeat_interval_ns
            + self.one_way_latency_ns
        )

    def retry_policy(self) -> Optional["RetryPolicy"]:
        """The RPC reliability policy these options describe, or ``None``.

        ``None`` (the default) is the protocol's historic behavior: one
        transmission per call, timeout (if armed) escalating straight to
        :class:`ServiceTimeout`.  Services resolve this once at construction
        and pass it to every request they issue.
        """
        if not self.rpc_max_retries:
            return None
        from repro.net.rpc import RetryPolicy

        return RetryPolicy(
            max_retries=self.rpc_max_retries,
            backoff_base_ns=self.rpc_backoff_base_ns,
            backoff_jitter_ns=self.rpc_backoff_jitter_ns,
        )

    def nested_retry_policy(self) -> Optional["RetryPolicy"]:
        """Retry policy for master-side *nested* calls (handler -> node).

        With the failure domain armed, a handler stuck calling a dead node
        must give up strictly before its own clients' budgets expire —
        otherwise a recoverable crash cascades into a client
        :class:`ServiceTimeout` before the detector can latch the failure
        (docs/PROTOCOL.md "Failure domains").  One fewer retransmit window
        leaves a full timeout-plus-final-backoff margin between the
        handler's exhaustion (which marks the peer down and aborts every
        other pending call against it) and the earliest client expiry.
        Without the failure domain this is exactly :meth:`retry_policy`,
        keeping budgets symmetric and default runs untouched.
        """
        policy = self.retry_policy()
        if policy is None or not self.evacuation_enabled:
            return policy
        from repro.net.rpc import RetryPolicy

        return RetryPolicy(
            max_retries=max(1, self.rpc_max_retries - 1),
            backoff_base_ns=self.rpc_backoff_base_ns,
            backoff_jitter_ns=self.rpc_backoff_jitter_ns,
        )

    def with_options(self, **kwargs) -> "DQEMUConfig":
        """Return a modified copy (configs are frozen)."""
        return replace(self, **kwargs)

    def time_scaled(self, k: float) -> "DQEMUConfig":
        """Shrink every *communication* cost by ``k`` (and raise bandwidth by
        ``k``), for experiments whose compute is scaled down by the same
        factor.  Preserving the compute:communication ratio preserves the
        paper's speedup-curve shapes at a fraction of the simulation cost
        (see EXPERIMENTS.md, "scaling methodology").  CPU-side trap costs are
        untouched: they scale with guest work, not with the network.
        """
        if k <= 0:
            raise ConfigError("scale factor must be positive")
        hb_interval = (
            None if self.heartbeat_interval_ns is None
            else max(1, int(self.heartbeat_interval_ns / k))
        )
        return replace(
            self,
            heartbeat_interval_ns=hb_interval,
            bandwidth_bps=self.bandwidth_bps * k,
            one_way_latency_ns=max(1, int(self.one_way_latency_ns / k)),
            loopback_latency_ns=max(1, int(self.loopback_latency_ns / k)),
            dsm_service_ns=max(1, int(self.dsm_service_ns / k)),
            dsm_fast_service_ns=max(1, int(self.dsm_fast_service_ns / k)),
            migration_penalty_ns=max(1, int(self.migration_penalty_ns / k)),
            slave_coherence_service_ns=max(1, int(self.slave_coherence_service_ns / k)),
            syscall_service_ns=max(1, int(self.syscall_service_ns / k)),
            checkpoint_service_ns=max(1, int(self.checkpoint_service_ns / k)),
            forwarding_push_ns=max(1, int(self.forwarding_push_ns / k)),
            split_service_ns=max(1, int(self.split_service_ns / k)),
            merge_service_ns=max(1, int(self.merge_service_ns / k)),
        )
