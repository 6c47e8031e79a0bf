"""Command-line entry point.

Subcommands
-----------
sweep <config>    run a sweep, write CSV (and SVG when configured)
audit <config>    run every audit that applies; exit 0 only if all pass
figures           emit the four built-in reference-figure datasets
oracle <config>   brute-force-only sweep, for cross-implementation checks

Exit codes: 0 success, 1 audit failure, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .correlations import SIDES
from .experiments import (
    MEASURES,
    SQUARE_SUM_PARTITIONS,
    agreement_audit,
    flat_classical_tail_audit,
    reservoir_transfer_audit,
    run_sweep,
    square_sum_audit,
)
from .io import PIPELINE_NAMES, RunConfig, emit_csv, emit_figures, emit_svg_plot, parse_config

# flag -> (config field it overrides, argparse keywords)
_FLAGS = {
    "--out": ("out_dir", dict(metavar="DIR", help="output directory (overrides config)")),
    "--grid": ("grid", dict(type=int, metavar="N", help="optimiser mesh: max(12, N/4)^2 axes, N for X states (overrides config)")),
    "--refine": ("refine_iters", dict(type=int, metavar="N", help="optimiser refinement: 2N Newton steps (overrides config)")),
    "--side": ("side", dict(choices=SIDES, help="measured side (overrides config)")),
    "--pipeline": ("pipeline", dict(choices=tuple(PIPELINE_NAMES), help="pipeline (overrides config)")),
}


def _overrides(args) -> dict:
    """Config fields set by the flags given, keyed by field name."""
    return {
        field: getattr(args, flag[2:])
        for flag, (field, _) in _FLAGS.items()
        if getattr(args, flag[2:], None) is not None
    }


def _load_config(path: str, args) -> RunConfig:
    cfg = parse_config(Path(path).read_text())
    # RunConfig checks every field, so replace() checks the overrides as parse_config checks the file
    return replace(cfg, **_overrides(args))


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args)
    result = run_sweep(**cfg.sweep_args())
    out_dir = Path(cfg.out_dir or ".")
    csv_path = emit_csv(result, out_dir / "sweep.csv")
    print(csv_path)
    if cfg.svg:
        svg_path = emit_svg_plot(result, out_dir / "sweep.svg")
        print(svg_path)
    return 0


def _cmd_oracle(args) -> int:
    cfg = _load_config(args.config, args)
    result = run_sweep(**cfg.sweep_args("brute_force"))
    out_dir = Path(cfg.out_dir or ".")
    csv_path = emit_csv(result, out_dir / "oracle.csv")
    print(csv_path)
    return 0


def _cmd_audit(args) -> int:
    cfg = _load_config(args.config, args)
    # one sweep of both pipelines gives the agreement audit and, as brute-force
    # values do not depend on the batch, the square sums of the four pairs
    partitions = tuple(dict.fromkeys(cfg.partitions + SQUARE_SUM_PARTITIONS))
    result = run_sweep(**{**cfg.sweep_args("both"), "partitions": partitions})
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
    # --out is emit_figures' out_dir; --grid and --refine override figure config fields
    for path in emit_figures(**{"out_dir": ".", **_overrides(args)}):
        print(path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinboson",
        description="Quantum/classical correlation dynamics of two spins in bosonic reservoirs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads: audit writes no files,
    # figures runs fixed scenarios, and audit and oracle fix their pipelines
    commands = (
        ("sweep", _cmd_sweep, "run a sweep and write CSV (+ optional SVG)", tuple(_FLAGS)),
        ("audit", _cmd_audit, "run every audit that applies", ("--grid", "--refine", "--side")),
        ("figures", _cmd_figures, "emit the built-in reference-figure datasets", ("--out", "--grid", "--refine")),
        ("oracle", _cmd_oracle, "brute-force-only sweep for cross-checks", ("--out", "--grid", "--refine", "--side")),
    )
    for name, func, help_text, flags in commands:
        p = sub.add_parser(name, help=help_text)
        if name != "figures":
            p.add_argument("config")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag][1])
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
