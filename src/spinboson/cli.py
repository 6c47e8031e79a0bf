"""Command-line entry point.

Subcommands
-----------
sweep <config> [--out DIR]    run a sweep, write CSV (and SVG when configured)
audit <config>                run every audit that applies; exit 0 only if all pass
figures [--out DIR]           emit the four built-in reference-figure datasets

Every run setting comes from the config file, and the figures' from
``io.FIGURE_CONFIGS``; ``--out`` only says where the files go (default: the
current directory).  A brute-force-only CSV is ``sweep`` on a config with
``"pipeline": "brute"``.

Exit codes: 0 success, 1 audit failure, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .experiments import (
    MEASURES,
    SQUARE_SUM_PARTITIONS,
    agreement_audit,
    flat_classical_tail_audit,
    reservoir_transfer_audit,
    run_sweep,
    square_sum_audit,
)
from .io import emit_csv, emit_figures, emit_svg_plot, parse_config


def _cmd_sweep(args) -> int:
    cfg = parse_config(Path(args.config).read_text())
    result = run_sweep(**cfg.sweep_args())
    print(emit_csv(result, Path(args.out) / "sweep.csv"))
    if cfg.svg:
        print(emit_svg_plot(result, Path(args.out) / "sweep.svg"))
    return 0


def _cmd_audit(args) -> int:
    cfg = parse_config(Path(args.config).read_text())
    # one sweep of both pipelines gives the agreement audit and, as brute-force
    # values do not depend on the batch, the square sums of the four pairs,
    # which compare with t = 0: a grid that starts later gets t = 0 put first
    partitions = tuple(dict.fromkeys(cfg.partitions + SQUARE_SUM_PARTITIONS))
    sweep = replace(cfg, pipeline="both", partitions=partitions).sweep_args()
    grid = sweep["scenario"].time_grid
    if grid[0] > 0.0:
        sweep["scenario"] = replace(sweep["scenario"], time_grid=np.concatenate(([0.0], grid)))
    result = run_sweep(**sweep)
    outcomes = [agreement_audit(result)] + [square_sum_audit(result, measure) for measure in MEASURES]

    if cfg.spectral.kind == "flat":
        tail = np.linspace(8.0, 12.0, 5)
        beta2 = abs(cfg.beta) ** 2
        alpha2 = abs(cfg.alpha) ** 2
        outcomes.append(flat_classical_tail_audit(beta2, tail))
        # the two_exc check holds only late, at gamma t >= 15
        times = [20.0] if cfg.family == "two_exc" else tail
        outcomes.append(reservoir_transfer_audit(cfg.family, alpha2, beta2, times))

    all_pass = True
    for a in outcomes:
        status = "PASS" if a.passed else "FAIL"
        print(f"{status} {a.name} margin={a.margin:.3e}")
        all_pass &= a.passed
    return 0 if all_pass else 1


def _cmd_figures(args) -> int:
    for path in emit_figures(args.out):
        print(path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinboson",
        description="Quantum/classical correlation dynamics of two spins in bosonic reservoirs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = (
        ("sweep", _cmd_sweep, "run a sweep and write CSV (+ optional SVG)"),
        ("audit", _cmd_audit, "run every audit that applies"),
        ("figures", _cmd_figures, "emit the built-in reference-figure datasets"),
    )
    for name, func, help_text in commands:
        p = sub.add_parser(name, help=help_text)
        if name != "figures":
            p.add_argument("config")
        if name != "audit":
            p.add_argument("--out", default=".", metavar="DIR", help="output directory (default: .)")
        p.set_defaults(func=func)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
