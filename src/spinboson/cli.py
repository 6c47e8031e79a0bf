"""Command-line entry point.

Subcommands
-----------
sweep <config> [--out DIR]    run a sweep, write CSV (and SVG when configured)
audit <config>                run every audit that applies; exit 0 only if all pass
figures [--out DIR]           emit the four built-in reference-figure datasets

Every run setting comes from the config file, and the figures' from
``io.FIGURE_CONFIGS``; ``--out`` only says where the files go (default: the
current directory).  A brute-force-only CSV is ``sweep`` on a config with
``"pipeline": "brute"``.  ``audit`` prints what ``experiments.run_audits`` returns.

Exit codes: 0 success, 1 audit failure, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import run_audits, run_sweep
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
    outcomes = run_audits(cfg.scenario(), cfg.partitions, cfg.side, cfg.grid, cfg.refine_iters)
    for a in outcomes:
        print(f"{'PASS' if a.passed else 'FAIL'} {a.name} margin={a.margin:.3e}")
    return 0 if all(a.passed for a in outcomes) else 1


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
