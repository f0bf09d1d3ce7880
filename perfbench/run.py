"""Host-time benchmark of the DQEMU simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pi-hot --seed 1 --seconds 30 --trace 0

Runs one workload repeatedly in this process, one simulation at a time,
for ``--seconds`` seconds after a discarded warm-up repetition.  Every
repetition starts cold: it builds the guest programs and a fresh
``Cluster`` (timed as set-up), then submits every job and joins them
(timed as wall time).  Each job's output is checked against an
independent reference, and virtual time plus every exact count must repeat
identically across repetitions and across runs of the same source tree.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics: the
traced repetitions run with the wrappers of ``layers.py`` installed.  The
first traced repetition's coarse spans are written to
``perfbench/out/<workload>-seed<seed>.trace.json`` (Chrome Trace Event
format).  Progress and sample counts go to standard error; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Measured repetitions per run, whatever ``--seconds`` allows.
MIN_REPS = 3
#: Set-up is short, so each repetition sets up this many times and the
#: last cluster runs; every set-up is a sample.
SETUP_REPEATS = 3
#: Layers in report order; each is a module boundary of ``repro``.
LAYERS = ("sim", "cluster", "dbt", "translate", "mem", "net", "services", "kernel")
#: Allowed gap between the traced wall time and the sum of the layer self
#: times plus the untraced remainder (bookkeeping error, not noise).
COVERAGE_TOLERANCE = 1e-6


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def source_digest() -> str:
    """Hash of the simulator sources: exact counts are keyed by it."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it.

    With ten samples or fewer no percentile qualifies, and the maximum
    (the 100th) is reported.
    """
    if n <= 10:
        return 100
    return math.floor(100 * (n - 10) / n)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when a failed run left nothing to divide by."""
    return num / den if den else 0.0


def nearest_rank(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


# -- one repetition -------------------------------------------------------------


@dataclasses.dataclass
class Rep:
    setup_s: list[float]  # calibrated, one per set-up
    setup_raw_s: list[float]
    wall_s: float  # calibrated, or raw seconds for a traced repetition
    wall_raw_s: float
    attempted: int
    failed: int
    insns: int
    virtual_ms: float
    turnaround_ms: list[float]
    exact: dict
    layer: dict | None = None  # per-layer figures of a traced repetition


def run_rep(workload, seed: int, tracer=None) -> Rep:
    """One cold repetition: set up, submit every job, join them all.

    Untraced repetitions are timed by a :class:`Calibrator`; a traced one
    is timed raw, because its per-layer split is a share of its own wall
    time.
    """
    from calibrate import Calibrator
    from repro import Cluster, JobState
    from workloads import MAX_VIRTUAL_MS, N_SLAVES

    gc.collect()
    calibrator = Calibrator()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        (specs, cluster), raw, calibrated = calibrator.time_call(
            lambda: (workload.jobs(seed), Cluster(N_SLAVES, workload.config())))
        setups.append(calibrated)
        raw_setups.append(raw)
    if tracer is not None:
        tracer.watch(cluster)
        tracer.install()
    else:
        calibrator.start()
    jobs = []
    t1 = perf_counter()
    try:
        for spec in specs:
            jobs.append(cluster.submit(spec.program, name=spec.kind,
                                       max_virtual_ms=MAX_VIRTUAL_MS))
        cluster.join(jobs)
    except Exception:  # a failed job is counted below, not fatal
        traceback.print_exc(file=sys.stderr)
    t2 = perf_counter()
    if tracer is not None:
        tracer.remove()
        wall_raw = wall = t2 - t1
    else:
        wall_raw, wall = calibrator.stop()

    failed = len(specs) - len(jobs)  # refused at submit
    insns = 0
    turnaround = []
    exact = {}
    for spec, job in zip(specs, jobs):
        ok = (
            job.state is JobState.FINISHED
            and job.result.exit_code == 0
            and spec.check(job.result)
        )
        failed += not ok
        if job.state is JobState.FINISHED:
            insns += job.result.stats.insns_executed
            turnaround.append((job.finished_ns - job.submitted_ns) / 1e6)
    fleet = cluster._fleet
    if fleet is not None:
        exact = exact_counts(fleet, jobs)
    rep = Rep(
        setup_s=setups,
        setup_raw_s=raw_setups,
        wall_s=wall,
        wall_raw_s=wall_raw,
        attempted=len(specs),
        failed=failed,
        insns=insns,
        virtual_ms=max((j.finished_ns for j in jobs), default=0) / 1e6,
        turnaround_ms=turnaround,
        exact=exact,
    )
    if tracer is not None:
        rep.layer = layer_figures(tracer, rep, jobs)
    return rep


def exact_counts(fleet, jobs) -> dict:
    """Counts that must repeat exactly for the same code and inputs."""
    results = [j.result for j in jobs if j.result is not None]
    protocol: dict[str, int] = {}
    dbt: dict[str, float] = {}
    for r in results:
        for k, v in dataclasses.asdict(r.stats.protocol).items():
            protocol[k] = protocol.get(k, 0) + v
        for k, v in dataclasses.asdict(r.stats.dbt).items():
            if not isinstance(v, dict):
                dbt[k] = dbt.get(k, 0) + v
    sim = fleet.sim
    return {
        "virtual_ns": [j.finished_ns for j in jobs],
        "insns_executed": sum(r.stats.insns_executed for r in results),
        "insns_translated": sum(r.stats.insns_translated for r in results),
        # Every pushed event is popped by exactly one step.
        "sim.events": sim._seq - len(sim._heap),
        "net.frames": fleet.fabric.stats.messages_sent,
        "net.bytes": fleet.fabric.stats.bytes_sent,
        "dbt.quanta": sum(t.quanta for r in results for t in r.stats.threads.values()),
        "dbt": dbt,
        "protocol": protocol,
        "stdout": hashlib.sha256(
            "\0".join(r.stdout for r in results).encode()).hexdigest(),
    }


def layer_figures(tracer, rep: Rep, jobs) -> dict:
    """Per-layer figures of one traced repetition (host and virtual)."""
    wall_ns = rep.wall_raw_s * 1e9
    self_ns = dict(tracer.self_ns)
    covered = sum(self_ns.values())
    untraced_ns = wall_ns - tracer.root_ns
    results = [j.result for j in jobs if j.result is not None]
    threads = [t for r in results for t in r.stats.threads.values()]
    services = [s for r in results for s in r.stats.services.values()]
    dbt_lookups = sum(r.stats.dbt.lookups for r in results)
    dbt_misses = sum(r.stats.dbt.misses for r in results)
    dbt_cycles = sum(r.stats.dbt.execute_cycles + r.stats.dbt.translate_cycles
                     for r in results)
    insns = rep.insns
    events = tracer.calls["sim.step"]
    blocks = tracer.calls["translate.compile"] + tracer.calls["translate.compile_superblock"]
    s = {layer: self_ns.get(layer, 0) / 1e9 for layer in LAYERS}
    fig = {
        "sim.events": events,
        "sim.self_s": s["sim"],
        "sim.us_per_event": ratio(s["sim"] * 1e6, events),
        "cluster.self_s": s["cluster"],
        "dbt.quanta": tracer.calls["dbt.quantum"],
        "dbt.self_s": s["dbt"],
        "dbt.ns_per_insn": ratio(s["dbt"] * 1e9, insns),
        "dbt.lookups_per_kinsn": ratio(dbt_lookups * 1e3, insns),
        "dbt.cpi": ratio(dbt_cycles, insns),
        "translate.blocks": blocks,
        "translate.self_s": s["translate"],
        "translate.us_per_block": ratio(s["translate"] * 1e6, blocks),
        "translate.cache_hit_ratio": 1 - ratio(dbt_misses, dbt_lookups),
        "mem.accesses": tracer.mem_accesses,
        "mem.self_s": s["mem"],
        "mem.ns_per_access": ratio(s["mem"] * 1e9, tracer.mem_accesses),
        "mem.stall_ratio": ratio(tracer.mem_stalls, tracer.mem_accesses),
        "net.frames": tracer.calls["net.transmit"],
        "net.bytes": rep.exact.get("net.bytes", 0),
        "net.self_s": s["net"],
        "services.requests": tracer.calls["services.dispatch"],
        "services.self_s": s["services"],
        "services.busy_ms": sum(x.busy_ns for x in services) / 1e6,
        "services.queue_wait_ms": sum(x.queue_wait_ns for x in services) / 1e6,
        "kernel.syscalls": tracer.calls["kernel.execute"],
        "kernel.self_s": s["kernel"],
        "vt.execute_ms": sum(t.execute_ns for t in threads) / 1e6,
        "vt.translate_ms": sum(t.translate_ns for t in threads) / 1e6,
        "vt.pagefault_ms": sum(t.pagefault_ns for t in threads) / 1e6,
        "vt.syscall_ms": sum(t.syscall_ns for t in threads) / 1e6,
        "vt.blocked_ms": sum(t.blocked_ns for t in threads) / 1e6,
        "vt.runqueue_ms": sum(t.runnable_wait_ns for t in threads) / 1e6,
        "trace.untraced_share": untraced_ns / wall_ns,
    }
    for layer in LAYERS:
        fig[f"{layer}.share"] = s[layer] / rep.wall_raw_s
    # Coverage: every nanosecond of the traced wall time is either some
    # layer's self time or outside all spans; nested spans must have closed.
    fig["_coverage_ok"] = (
        tracer.open_spans == 0
        and all(v >= 0 for v in self_ns.values())
        and untraced_ns >= 0
        and abs(covered + untraced_ns - wall_ns) <= COVERAGE_TOLERANCE * wall_ns
    )
    fig["_exact"] = {
        k: fig[k] for k in (
            "sim.events", "dbt.quanta", "translate.blocks", "mem.accesses",
            "net.frames", "services.requests", "kernel.syscalls",
        )
    }
    fig["_exact"]["mem.stalls"] = tracer.mem_stalls
    return fig


# -- metrics --------------------------------------------------------------------

#: Units of the per-layer metrics (``--trace 1``).
LAYER_UNITS = {
    "sim.events": "count", "sim.self_s": "s", "sim.us_per_event": "us",
    "cluster.self_s": "s",
    "dbt.quanta": "count", "dbt.self_s": "s", "dbt.ns_per_insn": "ns",
    "dbt.lookups_per_kinsn": "1/kinsn", "dbt.cpi": "cycles/insn",
    "translate.blocks": "count", "translate.self_s": "s",
    "translate.us_per_block": "us", "translate.cache_hit_ratio": "ratio",
    "mem.accesses": "count", "mem.self_s": "s", "mem.ns_per_access": "ns",
    "mem.stall_ratio": "ratio",
    "net.frames": "count", "net.bytes": "bytes", "net.self_s": "s",
    "services.requests": "count", "services.self_s": "s",
    "services.busy_ms": "ms_virtual", "services.queue_wait_ms": "ms_virtual",
    "kernel.syscalls": "count", "kernel.self_s": "s",
    "vt.execute_ms": "ms_virtual", "vt.translate_ms": "ms_virtual",
    "vt.pagefault_ms": "ms_virtual", "vt.syscall_ms": "ms_virtual",
    "vt.blocked_ms": "ms_virtual", "vt.runqueue_ms": "ms_virtual",
    "trace.overhead": "ratio", "trace.untraced_share": "ratio",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
}


def end_to_end(reps: list[Rep], attempted: int, failed: int) -> tuple[dict, list[str]]:
    """End-to-end metrics and the sample-count notes printed beside them."""
    setups = [s for r in reps for s in r.setup_s]
    walls = [r.wall_s for r in reps]
    turnaround = reps[0].turnaround_ms
    pct = tail_percentile(len(turnaround))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "guest_mips": (statistics.median(ratio(r.insns / 1e6, r.wall_s) for r in reps),
                       "Minsn/s"),
        "virtual_ms": (reps[0].virtual_ms, "ms_virtual"),
        "job_turnaround_ms.p50": (nearest_rank(turnaround, 50), "ms_virtual"),
        "job_turnaround_ms.tail": (nearest_rank(turnaround, pct), "ms_virtual"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_ok": (1 - failed / attempted, "ratio"),
    }
    notes = [
        f"setup_s: median of {len(setups)} set-ups, calibrated "
        f"(raw median {statistics.median(s for r in reps for s in r.setup_raw_s):.6f})",
        f"wall_s, guest_mips: median of {len(walls)} repetitions, calibrated "
        f"(quartiles {fmt_quartiles(walls)}; raw wall "
        f"{fmt_quartiles([r.wall_raw_s for r in reps])})",
        f"job_turnaround_ms: {len(turnaround)} jobs; tail is p{pct}",
        f"ops_ok: {attempted - failed}/{attempted} jobs passed their output check",
    ]
    return metrics, notes


def fmt_quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "n/a"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}/{q2:.4f}/{q3:.4f}"


def per_layer(traced: list[Rep], untraced: list[Rep]) -> tuple[dict, list[str]]:
    figs = [r.layer for r in traced]
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if name == "trace.overhead":
            value = (statistics.median(r.wall_raw_s for r in traced)
                     / statistics.median(r.wall_raw_s for r in untraced))
        else:
            value = statistics.median(f[name] for f in figs)
        metrics[name] = (value, unit)
    notes = [
        f"per-layer: medians of {len(traced)} traced repetitions; "
        f"trace.overhead against {len(untraced)} untraced ones",
    ]
    return metrics, notes


# -- exactness across runs --------------------------------------------------------


def check_against_earlier_runs(workload: str, seed: int, exact: dict) -> list[str]:
    """Compare with what earlier runs of the same source tree recorded.

    The record lives in ``perfbench/out``; keys missing on either side
    (traced-only counts) are added, keys present on both must match.
    """
    path = OUT / f"exact-{source_digest()}-{workload}-seed{seed}.json"
    exact = json.loads(json.dumps(exact))  # normalise tuples, int keys
    stored = json.loads(path.read_text()) if path.exists() else {}
    problems = [
        f"{key}: this run {exact[key]!r} != earlier run {stored[key]!r}"
        for key in sorted(exact.keys() & stored.keys())
        if exact[key] != stored[key]
    ]
    if not problems:
        OUT.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**stored, **exact}, sort_keys=True))
    return problems


def mismatches(label: str, values: list) -> list[str]:
    first = values[0]
    return [f"{label}: repetition {i} differs from repetition 0"
            for i, v in enumerate(values) if v != first]


# -- entry point --------------------------------------------------------------------


def measure(workload, seed: int, seconds: float, trace: bool):
    """Warm up once, then repeat until ``seconds`` have been measured."""
    from layers import LayerTracer

    warmup = run_rep(workload, seed)
    untraced: list[Rep] = []
    traced: list[Rep] = []
    tracers = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(untraced) < MIN_REPS or (
            trace and len(traced) < MIN_REPS):
        untraced.append(run_rep(workload, seed))
        if trace:
            tracer = LayerTracer(keep_spans=not tracers)
            traced.append(run_rep(workload, seed, tracer))
            tracers.append(tracer)
        log(f"  {len(untraced)} untraced, {len(traced)} traced repetitions, "
            f"{perf_counter() - start:.1f} s")
    return warmup, untraced, traced, tracers[:1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: simulator sources not found at {SRC}/repro; run from a "
            "checkout of the repository")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import make_workloads

    table = make_workloads()
    if args.workload not in table:
        log(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}")
        return 2
    workload = table[args.workload]
    log(f"{args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    warmup, untraced, traced, kept = measure(workload, args.seed, args.seconds,
                                             bool(args.trace))
    every = [warmup, *untraced, *traced]

    problems = mismatches("virtual time and exact counts", [r.exact for r in every])
    problems += mismatches("job turnarounds", [r.turnaround_ms for r in every])
    exact = dict(every[0].exact)
    if traced:
        problems += mismatches("traced counts", [r.layer["_exact"] for r in traced])
        counts = traced[0].layer["_exact"]
        for key in ("sim.events", "net.frames", "dbt.quanta"):
            if counts[key] != exact.get(key):
                problems.append(f"{key}: traced count {counts[key]} != "
                                f"result count {exact.get(key)}")
        exact.update({f"traced.{k}": v for k, v in counts.items()})
        problems += [f"coverage: traced repetition {i} does not add up to wall_s"
                     for i, r in enumerate(traced) if not r.layer["_coverage_ok"]]
    problems += check_against_earlier_runs(args.workload, args.seed, exact)
    failed = sum(r.failed for r in every)
    attempted = sum(r.attempted for r in every)

    if args.trace:
        metrics, notes = per_layer(traced, untraced)
        path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        kept[0].write_chrome_trace(path, {"workload": args.workload, "seed": args.seed})
        notes.append(f"coarse spans of the first traced repetition: {path.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(untraced, attempted, failed)
    for line in notes + problems:
        log(line)
    for name, (value, unit) in metrics.items():
        log(f"  {name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
