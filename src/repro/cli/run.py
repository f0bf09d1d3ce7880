"""``repro-run``: run a GA64 assembly program on a simulated DQEMU cluster.

Examples::

    repro-run prog.s --slaves 4
    repro-run prog.s --slaves 2 --forwarding --splitting --scheduler hint
    repro-run prog.s --trace --trace-limit 50
    echo data | repro-run prog.s --stdin -
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import Cluster, DQEMUConfig, assemble

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-run",
        description="Run a GA64 assembly program on a simulated DQEMU cluster.",
    )
    p.add_argument("source", help="GA64 assembly file (use '-' for stdin)")
    p.add_argument("--slaves", type=int, default=1, help="slave node count (default 1)")
    p.add_argument("--cores", type=int, default=4, help="cores per node (default 4)")
    p.add_argument("--forwarding", action="store_true", help="enable data forwarding (§5.2)")
    p.add_argument("--splitting", action="store_true", help="enable page splitting (§5.1)")
    p.add_argument(
        "--scheduler", choices=("round_robin", "hint"), default="round_robin",
        help="thread placement policy (§5.3)",
    )
    p.add_argument(
        "--coherence-protocol", choices=("msi", "mesi", "migrate", "adaptive"),
        default="msi",
        help="page-coherence protocol: the paper's MSI (default), MESI "
             "(exclusive-clean grants kill the first-write upgrade round "
             "trip), home migration toward dominant writers, or per-page "
             "adaptive selection",
    )
    p.add_argument("--migration-trigger", type=int, default=4, metavar="N",
                   help="consecutive write acquisitions by one node before a "
                        "page's home migrates to it (default 4)")
    p.add_argument("--master-shards", type=int, default=1, metavar="K",
                   help="partition the master directory across K shard pools "
                        "(default 1: the paper's single-directory master)")
    p.add_argument("--health-suspect-after", type=int, default=2, metavar="N",
                   help="consecutive missed timeout windows before a peer is "
                        "marked suspect (default 2)")
    p.add_argument("--health-down-after", type=int, default=5, metavar="N",
                   help="consecutive missed timeout windows before a peer is "
                        "marked down (default 5; must exceed the suspect "
                        "threshold)")
    p.add_argument("--rpc-timeout-ns", type=int, default=None, metavar="NS",
                   help="arm the RPC retransmit layer with this per-call "
                        "timeout (default: off)")
    p.add_argument("--evacuation", action="store_true",
                   help="arm the failure domain: crashes evacuate/restore "
                        "threads instead of aborting the run, and placement "
                        "skips unhealthy nodes (requires --rpc-timeout-ns)")
    p.add_argument("--checkpoint-interval-ns", type=int, default=None,
                   metavar="NS",
                   help="snapshot each running thread's context every NS of "
                        "virtual time for crash restore (requires "
                        "--evacuation; default: off)")
    p.add_argument("--heartbeat-interval-ns", type=int, default=None,
                   metavar="NS",
                   help="send a lease-renewal heartbeat from every slave to "
                        "the master each NS of virtual time, bounding crash "
                        "detection even on nodes nobody calls; the lease is "
                        "4x the interval (requires --evacuation; default: "
                        "off)")
    p.add_argument("--superblock-threshold", type=int, default=0, metavar="N",
                   help="promote a block into a trace superblock after N "
                        "executions (default 0: disabled)")
    p.add_argument("--superblock-max-blocks", type=int, default=8, metavar="N",
                   help="trace-length cap in blocks, loop bodies may repeat "
                        "(default 8)")
    p.add_argument("--cpi-superblock", type=float, default=1.0, metavar="C",
                   help="virtual cycles per instruction inside a superblock "
                        "(default 1.0)")
    p.add_argument("--fusion", action="store_true",
                   help="fuse recurring guest idioms (compare+branch, "
                        "load+op, atomic spin) into single host operations")
    p.add_argument("--qemu", action="store_true",
                   help="run the vanilla single-node QEMU baseline instead")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="submit the program N times as concurrent tenants "
                        "on one fleet (default 1)")
    p.add_argument("--max-concurrent-jobs", type=int, default=3, metavar="N",
                   help="jobs allowed to run at once; later submissions "
                        "queue (default 3)")
    p.add_argument("--admission-queue-depth", type=int, default=16, metavar="N",
                   help="queued submissions tolerated beyond the running set "
                        "before submit() is refused (default 16)")
    p.add_argument("--stdin", default=None,
                   help="file fed to the guest's stdin ('-' for this process's stdin)")
    p.add_argument("--file", action="append", default=[], metavar="PATH",
                   help="preload a host file into the guest VFS (repeatable)")
    p.add_argument("--max-ms", type=float, default=60_000.0,
                   help="virtual-time budget in ms (default 60000)")
    p.add_argument("--time-scale", type=float, default=1.0,
                   help="divide communication costs by this factor")
    p.add_argument("--trace", action="store_true", help="record a protocol trace")
    p.add_argument("--trace-limit", type=int, default=100,
                   help="trace lines to print (default 100)")
    p.add_argument("--stats", action="store_true", help="print protocol counters")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    source = sys.stdin.read() if args.source == "-" else Path(args.source).read_text()
    program = assemble(source)

    stdin = b""
    if args.stdin == "-":
        stdin = sys.stdin.buffer.read()
    elif args.stdin:
        stdin = Path(args.stdin).read_bytes()
    files = {Path(f).name: Path(f).read_bytes() for f in args.file}

    config = DQEMUConfig(
        cores_per_node=args.cores,
        forwarding_enabled=args.forwarding,
        splitting_enabled=args.splitting,
        scheduler=args.scheduler,
        coherence_protocol=args.coherence_protocol,
        migration_trigger=args.migration_trigger,
        master_shards=args.master_shards,
        health_suspect_after=args.health_suspect_after,
        health_down_after=args.health_down_after,
        rpc_timeout_ns=args.rpc_timeout_ns,
        evacuation_enabled=args.evacuation,
        checkpoint_interval_ns=args.checkpoint_interval_ns,
        heartbeat_interval_ns=args.heartbeat_interval_ns,
        pure_qemu=args.qemu,
        max_concurrent_jobs=args.max_concurrent_jobs,
        admission_queue_depth=args.admission_queue_depth,
        superblock_threshold=args.superblock_threshold,
        superblock_max_blocks=args.superblock_max_blocks,
        cpi_superblock=args.cpi_superblock,
        fusion_enabled=args.fusion,
    )
    if args.time_scale != 1.0:
        config = config.time_scaled(args.time_scale)

    cluster = Cluster(0 if args.qemu else args.slaves, config, trace=args.trace)
    if args.jobs > 1:
        jobs = [
            cluster.submit(program, name=f"job{i}", stdin=stdin, files=files,
                           max_virtual_ms=args.max_ms)
            for i in range(args.jobs)
        ]
        results = cluster.join(jobs)
        for job, res in zip(jobs, results):
            sys.stdout.write(res.stdout)
            if res.stderr:
                sys.stderr.write(res.stderr)
            print(f"[{job.name}: exit {res.exit_code}; "
                  f"{res.virtual_ns / 1e6:.3f} ms virtual; "
                  f"queue wait {res.queue_wait_ns / 1e6:.3f} ms]",
                  file=sys.stderr)
        return max(res.exit_code for res in results)

    result = cluster.run(program, stdin=stdin, files=files,
                         max_virtual_ms=args.max_ms)

    sys.stdout.write(result.stdout)
    if result.stderr:
        sys.stderr.write(result.stderr)
    print(f"[exit {result.exit_code}; {result.virtual_ns / 1e6:.3f} ms virtual]",
          file=sys.stderr)

    if args.stats:
        p = result.stats.protocol
        print(
            f"[page requests {p.page_requests} (r{p.read_requests}/w{p.write_requests}),"
            f" invalidations {p.invalidations}, forwarded {p.pages_forwarded},"
            f" splits {p.splits}, merges {p.merges},"
            f" syscalls {p.delegated_syscalls} delegated/{p.local_syscalls} local]",
            file=sys.stderr,
        )
        if (p.exclusive_grants or p.silent_upgrades or p.home_migrations
                or p.adaptive_reclassifications):
            print(
                f"[coherence {args.coherence_protocol}:"
                f" E grants {p.exclusive_grants},"
                f" silent E->M {p.silent_upgrades},"
                f" upgrade acks {p.upgrade_acks},"
                f" home migrations {p.home_migrations},"
                f" home hits {p.home_local_hits}/misses {p.home_remote_misses},"
                f" reclassifications {p.adaptive_reclassifications}]",
                file=sys.stderr,
            )
    if args.trace and result.trace is not None:
        print(result.trace.render(limit=args.trace_limit), file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
