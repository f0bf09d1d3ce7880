"""The benchmark's three workloads and the oracle that checks each job.

Each workload is a list of guest jobs run on one 2-slave cluster.  A job
carries its own output check; the checks compare against references that
do not come from the simulator (closed-form Python replicas of the guest
computations, or this file's own model of the guest's memory updates).
Why each workload exists is recorded in ``NOTES.md`` beside this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro import DQEMUConfig, Program, RunResult
from repro.mem.layout import PAGE_SIZE
from repro.workloads import blackscholes, memaccess, mutex_bench, pi_taylor, x264

N_SLAVES = 2
#: Virtual-time budget per job; a job that exceeds it fails its run.
MAX_VIRTUAL_MS = 10_000

PI = dict(n_threads=8, terms=400, reps=150)
RMW = dict(n_threads=8, n_nodes=N_SLAVES, pages_per_thread=32, passes=20, stride=64)
BLACKSCHOLES = dict(n_threads=4, n_options=16)
MUTEX = dict(n_threads=4, iters=40)
X264 = dict(n_frames=8, group_size=4, pages_per_frame=1)
#: Tenants per job-stream repetition: a balanced third of each kind, and
#: enough jobs that the 76th turnaround percentile has ten jobs beyond it.
STREAM_JOBS = 42
STREAM_SLOTS = 3


@dataclass(frozen=True)
class JobSpec:
    kind: str
    program: Program
    check: Callable[[RunResult], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[], DQEMUConfig]
    #: ``seed -> jobs``; builds the guest programs (part of set-up time).
    jobs: Callable[[int], list[JobSpec]]


def rmw_checksum(n_threads: int, pages_per_thread: int, passes: int,
                 stride: int) -> int:
    """Byte checksum of ``memaccess.build_private_rmw``'s regions.

    Models the guest directly: every worker adds one to each ``stride``-th
    byte of its own region once per pass, in 8-bit arithmetic, and main
    sums those bytes.
    """
    region = pages_per_thread * PAGE_SIZE
    memory = bytearray(n_threads * region)
    for _ in range(passes):
        for base in range(0, n_threads * region, region):
            for addr in range(base, base + region, stride):
                memory[addr] = (memory[addr] + 1) & 0xFF
    return sum(memory[::stride])


def _positive_ints(lines: list[str]) -> bool:
    return all(line.isdigit() and int(line) > 0 for line in lines)


def _exact(expected: str) -> Callable[[RunResult], bool]:
    return lambda r: r.stdout == expected


def _rmw_check(checksum: int) -> Callable[[RunResult], bool]:
    def check(r: RunResult) -> bool:
        lines = r.stdout.splitlines()
        # One positive elapsed-ns line per worker, then the checksum.
        return (
            len(lines) == RMW["n_threads"] + 1
            and _positive_ints(lines[:-1])
            and lines[-1] == str(checksum)
        )
    return check


def _mutex_check(r: RunResult) -> bool:
    # mutex_bench prints only per-thread virtual timings: one positive
    # integer per thread is all that can be checked.
    lines = r.stdout.splitlines()
    return len(lines) == MUTEX["n_threads"] and _positive_ints(lines)


def make_workloads() -> dict[str, Workload]:
    """Build the workload table; computes the reference outputs once."""
    pi_check = _exact(pi_taylor.reference_output(PI["terms"]))
    rmw_check = _rmw_check(rmw_checksum(
        RMW["n_threads"], RMW["pages_per_thread"], RMW["passes"], RMW["stride"]))
    bs_check = _exact(blackscholes.reference_output(BLACKSCHOLES["n_options"]))
    x264_check = _exact(x264.reference_output(**X264))

    def pi_jobs(_seed: int) -> list[JobSpec]:
        return [JobSpec("pi_taylor", pi_taylor.build(**PI), pi_check)]

    def rmw_jobs(_seed: int) -> list[JobSpec]:
        return [JobSpec("private_rmw", memaccess.build_private_rmw(**RMW), rmw_check)]

    def stream_jobs(seed: int) -> list[JobSpec]:
        kinds = [
            JobSpec("blackscholes", blackscholes.build(**BLACKSCHOLES), bs_check),
            JobSpec("mutex_bench", mutex_bench.build(**MUTEX), _mutex_check),
            JobSpec("x264", x264.build(**X264), x264_check),
        ]
        # The seed orders each consecutive triple, one job of each kind, so
        # every stretch of the stream carries the same mix and seeds differ
        # in co-scheduling rather than in where the heavy jobs bunch up.
        rng = random.Random(seed)
        stream = []
        for _ in range(STREAM_JOBS // len(kinds)):
            stream += rng.sample(kinds, len(kinds))
        return stream

    return {
        "pi-hot": Workload(
            "pi-hot",
            lambda: DQEMUConfig(superblock_threshold=8, fusion_enabled=True),
            pi_jobs,
        ),
        "rmw-private": Workload("rmw-private", DQEMUConfig, rmw_jobs),
        "job-stream": Workload(
            "job-stream",
            lambda: DQEMUConfig(max_concurrent_jobs=STREAM_SLOTS,
                                admission_queue_depth=STREAM_JOBS),
            stream_jobs,
        ),
    }
