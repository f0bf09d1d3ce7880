"""The experiment registry: every committed artifact and what produces it.

:data:`ARTIFACTS` maps each artifact stem under ``benchmarks/results/`` to
the experiment function that regenerates it and, where the artifact also has
a machine-readable form, the stem of its ``BENCH_*.json``.
:func:`write_report` is the one writer of both files; the
``repro-experiments`` CLI and the benchmark suite both go through it, so
``repro-experiments all --out benchmarks/results`` rebuilds the committed
tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from repro.analysis.ablations import (
    ablate_dsm_service,
    ablate_forwarding_window,
    ablate_quantum,
    ablate_splitting_trigger,
)
from repro.analysis.experiments import (
    run_dbt_hotpath,
    run_fig5,
    run_fig5_crash,
    run_fig5_heartbeat,
    run_fig5_partition,
    run_fig5_sharded,
    run_fig6,
    run_fig6_coherence,
    run_fig7,
    run_fig8,
    run_fig9_multitenant,
    run_services_mutex,
    run_services_seq_forwarding,
    run_table1,
)
from repro.analysis.reporting import Report

__all__ = ["ARTIFACTS", "Artifact", "GROUPS", "write_report"]


@dataclass(frozen=True)
class Artifact:
    run: Callable[[], Report]
    #: Stem of the ``BENCH_*.json`` written from the report's payload.
    bench: Optional[str] = None


ARTIFACTS: dict[str, Artifact] = {
    "fig5_scalability": Artifact(run_fig5),
    "services_fig5_sharded": Artifact(run_fig5_sharded),
    "services_fig5_partition": Artifact(run_fig5_partition),
    "services_fig5_crash": Artifact(run_fig5_crash, "BENCH_crash"),
    "services_fig5_heartbeat": Artifact(run_fig5_heartbeat, "BENCH_heartbeat"),
    "fig6_mutex": Artifact(run_fig6),
    "fig6_coherence": Artifact(run_fig6_coherence, "BENCH_coherence"),
    "table1_memory": Artifact(run_table1),
    "fig7_blackscholes": Artifact(partial(run_fig7, "blackscholes")),
    "fig7_swaptions": Artifact(partial(run_fig7, "swaptions")),
    "fig8_x264": Artifact(partial(run_fig8, "x264")),
    "fig8_fluidanimate": Artifact(partial(run_fig8, "fluidanimate")),
    "fig9_multitenant": Artifact(run_fig9_multitenant, "BENCH_multitenant"),
    "dbt_hotpath": Artifact(run_dbt_hotpath, "BENCH_dbt"),
    "services_mutex": Artifact(run_services_mutex),
    "services_seq_forwarding": Artifact(run_services_seq_forwarding),
    "ablation_forwarding_window": Artifact(ablate_forwarding_window),
    "ablation_splitting_trigger": Artifact(ablate_splitting_trigger),
    "ablation_quantum": Artifact(ablate_quantum),
    "ablation_dsm_service": Artifact(ablate_dsm_service),
}

#: CLI names for one or more artifacts (every stem is also a name, and
#: ``all`` names every artifact).
GROUPS: dict[str, tuple[str, ...]] = {
    "fig5": ("fig5_scalability",),
    "fig5_sharded": ("services_fig5_sharded",),
    "fig5_partition": ("services_fig5_partition",),
    "fig5_crash": ("services_fig5_crash",),
    "fig5_heartbeat": ("services_fig5_heartbeat",),
    "fig6": ("fig6_mutex",),
    "table1": ("table1_memory",),
    "fig7": ("fig7_blackscholes", "fig7_swaptions"),
    "fig8": ("fig8_x264", "fig8_fluidanimate"),
    "fig9": ("fig9_multitenant",),
    "services": ("services_mutex", "services_seq_forwarding"),
    "ablations": tuple(stem for stem in ARTIFACTS if stem.startswith("ablation_")),
}


def write_report(stem: str, report: Report, out_dir: Path) -> None:
    """Write ``<stem>.txt`` and, if the artifact has one, its BENCH JSON."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.txt").write_text(report.text + "\n")
    bench = ARTIFACTS[stem].bench
    if bench is not None:
        (out_dir / f"{bench}.json").write_text(
            json.dumps(report.payload, indent=2, sort_keys=True) + "\n"
        )
