"""Experiment reports and their plain-text rendering (paper-style rows)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

__all__ = [
    "Column",
    "Report",
    "SERVICE_COLUMN_GROUPS",
    "format_value",
    "render_rows",
    "render_service_breakdown",
    "render_table",
]

#: A table column: its header and either the row key it shows or a function
#: computing the cell from the row.
Column = tuple[str, Union[str, Callable[[dict], Any]]]


@dataclass
class Report:
    """What one experiment produces.

    ``text`` is the rendered paper-style table; ``rows`` are its measured
    rows as dicts keyed by column; ``params`` the inputs it ran with.
    ``payload`` is the machine-readable form of the result; the experiment
    registry commits it as a ``BENCH_*.json`` file where it names one.
    """

    text: str
    rows: list[dict]
    params: dict
    payload: Optional[dict] = None

    @classmethod
    def table(cls, title: str, rows: list[dict], params: dict,
              columns: Optional[Sequence[Column]] = None) -> "Report":
        """A one-table report; ``columns`` defaults to one per row key."""
        text = render_rows(columns or [(k, k) for k in rows[0]], rows, title)
        return cls(text, rows, params)

    def row(self, **match) -> dict:
        """The first row whose columns equal every ``match`` value."""
        for r in self.rows:
            if all(r[k] == v for k, v in match.items()):
                return r
        raise KeyError(match)

    def column(self, key: str) -> list:
        return [r[key] for r in self.rows]


def format_value(v: Any) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:,.1f}"
        if abs(v) >= 10:
            return f"{v:.2f}"
        return f"{v:.3f}"
    return str(v)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str | None = None) -> str:
    cells = [[format_value(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_rows(columns: Sequence[Column], rows: Sequence[dict],
                title: str | None = None) -> str:
    """Render dict rows through ``columns``; ``None`` cells render as ``-``."""
    return render_table(
        [header for header, _ in columns],
        [[key(r) if callable(key) else r[key] for _, key in columns] for r in rows],
        title=title,
    )


#: Optional column groups of the service breakdown: ``(headers, values)``
#: where ``values`` reads the group's cells off one ``ServiceStats``.  A group
#: renders only when some service has a nonzero value in it, so tables from
#: runs that never exercised a feature stay byte-identical.
SERVICE_COLUMN_GROUPS: tuple[tuple[tuple[str, ...], Callable[[Any], tuple]], ...] = (
    # Reliability: the RPC retransmit layer retried a call.
    (
        ("retransmits", "recovered", "mean recovery (us)"),
        lambda s: (
            s.retransmits, s.recoveries,
            s.recovery_wait_ns / s.recoveries / 1e3 if s.recoveries else 0.0,
        ),
    ),
    # Failure domain: a node crashed or drained mid-run.
    (
        ("evacuated", "restored", "lost threads", "rehomed pages", "lost M pages"),
        lambda s: (
            s.evacuations, s.restores, s.lost_threads, s.rehomed_pages, s.lost_pages,
        ),
    ),
    # Coherence protocol: a non-MSI ``coherence_protocol`` granted or moved pages.
    (
        ("E grants", "silent E->M", "migrations", "reclass"),
        lambda s: (
            s.exclusive_grants, s.silent_upgrades, s.home_migrations,
            s.reclassifications,
        ),
    ),
)


def render_service_breakdown(stats) -> str:
    """Per-service load attribution from a run's ``RunStats.services``.

    One row per runtime service (master + node side), sorted by busy time —
    a direct read on which protocol subsystem eats the master-link budget.
    ``queue-wait`` is time served frames sat in the handling process's
    mailbox before dispatch (head-of-line blocking).  Services dispatched on
    more than one master shard get per-shard sub-rows under the aggregate,
    exposing shard load imbalance.  The :data:`SERVICE_COLUMN_GROUPS` follow
    their base columns; their counters are per service, so shard sub-rows
    leave them blank.
    """
    services = sorted(
        stats.services.values(), key=lambda s: (-s.busy_ns, -s.requests, s.name)
    )
    groups = [
        (headers, values) for headers, values in SERVICE_COLUMN_GROUPS
        if any(any(values(s)) for s in services)
    ]
    headers = ["service", "shard", "requests", "busy (us)", "queue-wait (us)"]
    headers += [h for group_headers, _ in groups for h in group_headers]
    pad = [""] * (len(headers) - 5)
    rows = []
    for s in services:
        rows.append([
            s.name, "all", s.requests, s.busy_ns / 1e3, s.queue_wait_ns / 1e3,
            *(v for _, values in groups for v in values(s)),
        ])
        if len(s.shards) > 1:
            for k in sorted(s.shards):
                sh = s.shards[k]
                rows.append([
                    s.name, k, sh.requests, sh.busy_ns / 1e3,
                    sh.queue_wait_ns / 1e3, *pad,
                ])
    return render_table(headers, rows, title="Runtime service load")
