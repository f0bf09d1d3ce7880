"""``repro-experiments``: regenerate the paper's tables and figures.

Each name is an artifact stem from :data:`repro.analysis.registry.ARTIFACTS`
or a group of them (``fig7``, ``ablations``, ...); ``--out DIR`` writes
``DIR/<stem>.txt`` plus any ``BENCH_*.json``.  Examples::

    repro-experiments fig5
    repro-experiments table1 --out results/
    repro-experiments all --out benchmarks/results
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.analysis.registry import ARTIFACTS, GROUPS, write_report

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's evaluation tables/figures.",
    )
    p.add_argument(
        "which",
        choices=sorted({*GROUPS, *ARTIFACTS, "all"}),
        help="artifact or group of artifacts to run",
    )
    p.add_argument("--out", default=None, metavar="DIR",
                   help="also write each artifact to DIR/<stem>.txt "
                        "(and its BENCH_*.json)")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    stems = ARTIFACTS if args.which == "all" else GROUPS.get(args.which, (args.which,))
    for stem in stems:
        report = ARTIFACTS[stem].run()
        print(report.text)
        print()
        if args.out:
            write_report(stem, report, Path(args.out))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
