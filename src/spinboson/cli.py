"""Command-line entry point.

Subcommands
-----------
sweep <config>    run a sweep, write CSV (and SVG when configured)
audit <config>    run every enabled audit; exit 0 only if all pass
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

from .experiments import (
    SQUARE_SUM_PARTITIONS,
    flat_classical_tail_audit,
    reservoir_transfer_audit,
    run_sweep,
    square_sum_audit,
)
from .io import PIPELINE_NAMES, RunConfig, emit_csv, emit_figures, emit_svg_plot, parse_config

_PIPELINE_FLAGS = ("closed", "brute", "both")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
    parser.add_argument("--grid", type=int, metavar="N", help="optimiser mesh size (overrides config)")
    parser.add_argument("--refine", type=int, metavar="N", help="refinement rounds (overrides config)")
    parser.add_argument("--side", choices=("first", "second"), help="measured side (overrides config)")
    parser.add_argument("--pipeline", choices=_PIPELINE_FLAGS, help="pipeline (overrides config)")


def _load_config(path: str, args) -> RunConfig:
    text = Path(path).read_text()
    cfg = parse_config(text)
    updates = {}
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.grid is not None:
        updates["grid"] = args.grid
    if args.refine is not None:
        updates["refine_iters"] = args.refine
    if args.side is not None:
        updates["side"] = args.side
    if getattr(args, "pipeline", None) is not None:
        updates["pipeline"] = args.pipeline
    # replace() validates the overrides as parse_config validates the file
    return replace(cfg, **updates)


def _run_from_config(cfg: RunConfig, pipeline: str | None = None):
    return run_sweep(
        cfg.scenario(),
        cfg.partitions,
        pipeline or PIPELINE_NAMES[cfg.pipeline],
        side=cfg.side,
        grid=cfg.grid,
        refine_iters=cfg.refine_iters,
    )


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args)
    result = _run_from_config(cfg)
    out_dir = Path(cfg.out_dir or ".")
    csv_path = emit_csv(result, out_dir / "sweep.csv")
    print(csv_path)
    if cfg.svg:
        svg_path = emit_svg_plot(result, ("quantum", "classical"), out_dir / "sweep.svg")
        print(svg_path)
    return 0


def _cmd_oracle(args) -> int:
    cfg = _load_config(args.config, args)
    result = _run_from_config(cfg, pipeline="brute_force")
    out_dir = Path(cfg.out_dir or ".")
    csv_path = emit_csv(result, out_dir / "oracle.csv")
    print(csv_path)
    return 0


def _cmd_audit(args) -> int:
    cfg = _load_config(args.config, args)
    outcomes = []

    if "agreement" in cfg.audits:
        result = _run_from_config(cfg, pipeline="both")
        outcomes.extend(result.audits)

    if "square_sums" in cfg.audits:
        sq_cfg = replace(cfg, partitions=SQUARE_SUM_PARTITIONS)
        sq_result = _run_from_config(sq_cfg, pipeline="brute_force")
        for measure in ("quantum", "classical", "concurrence"):
            outcomes.append(square_sum_audit(sq_result, measure))

    if "asymptotics" in cfg.audits and cfg.spectral.kind == "flat":
        tail = np.linspace(8.0, 12.0, 5)
        beta2 = abs(cfg.beta) ** 2
        alpha2 = abs(cfg.alpha) ** 2
        outcomes.append(flat_classical_tail_audit(beta2, tail))
        if cfg.family == "two_exc":
            outcomes.append(reservoir_transfer_audit("two_exc", alpha2, beta2, [20.0]))
        else:
            outcomes.append(reservoir_transfer_audit("one_exc", alpha2, beta2, tail))

    all_pass = True
    for a in outcomes:
        status = "PASS" if a.passed else "FAIL"
        print(f"{status} {a.name} margin={a.margin:.3e}")
        all_pass &= a.passed
    return 0 if all_pass else 1


def _cmd_figures(args) -> int:
    out_dir = Path(args.out or ".")
    overrides = {}
    if args.grid is not None:
        overrides["grid"] = args.grid
    if args.refine is not None:
        overrides["refine_iters"] = args.refine
    for path in emit_figures(out_dir, **overrides):
        print(path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinboson",
        description="Quantum/classical correlation dynamics of two spins in bosonic reservoirs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a sweep and write CSV (+ optional SVG)")
    p_sweep.add_argument("config")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_audit = sub.add_parser("audit", help="run all enabled audits")
    p_audit.add_argument("config")
    _add_common(p_audit)
    p_audit.set_defaults(func=_cmd_audit)

    p_fig = sub.add_parser("figures", help="emit the built-in reference-figure datasets")
    _add_common(p_fig)
    p_fig.set_defaults(func=_cmd_figures)

    p_oracle = sub.add_parser("oracle", help="brute-force-only sweep for cross-checks")
    p_oracle.add_argument("config")
    _add_common(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)

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
