"""Experiments, their registry, metrics and reporting for the paper's evaluation."""

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
from repro.analysis.metrics import mean_fault_latency_us, throughput_mbps
from repro.analysis.registry import ARTIFACTS, Artifact, write_report
from repro.analysis.reporting import Report, render_rows, render_table

__all__ = [
    "ARTIFACTS",
    "Artifact",
    "Report",
    "mean_fault_latency_us",
    "render_rows",
    "render_table",
    "run_dbt_hotpath",
    "run_fig5",
    "run_fig5_crash",
    "run_fig5_heartbeat",
    "run_fig5_partition",
    "run_fig5_sharded",
    "run_fig6",
    "run_fig6_coherence",
    "run_fig7",
    "run_fig8",
    "run_fig9_multitenant",
    "run_services_mutex",
    "run_services_seq_forwarding",
    "run_table1",
    "throughput_mbps",
    "write_report",
]
