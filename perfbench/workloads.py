"""Workload inputs made from a seed, the timed operation, and the output checks.

readme_sweep  ``spinboson sweep`` on the README config (6 partitions x 101
              times, pipeline both, grid 64, refine 4, svg on).  The seed
              only shuffles the order of the partition list, which must not
              change a byte of the output.
closed_long   ``spinboson sweep``, closed pipeline, one_exc family,
              Lorentzian W/lambda = sqrt(200), lambda t in [0, 2] on 10,001
              steps, s1s2 + r1r2, svg on.  The seed draws |alpha|^2.
general_states
              101 Haar-random 16-dim pure states from the seed, reduced to
              all 6 partitions, then the optimiser, mutual information and
              concurrence on the 606 resulting (non-X) two-qubit states.

The spinboson functions are looked up on their modules at call time, so a
tracer that replaces a module attribute sees the call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

WORKLOADS = ("readme_sweep", "closed_long", "general_states")

PARTITIONS = ("s1s2", "r1r2", "s1r1", "s1r2", "s2r1", "s2r2")

README_CONFIG = {
    "family": "two_exc",
    "alpha_re": 0.70710678, "alpha_im": 0.0,
    "beta_re": 0.70710678, "beta_im": 0.0,
    "spectral": {"kind": "flat", "gamma": 1.0},
    "time_start": 0.0, "time_end": 5.0, "time_steps": 101,
    "partitions": list(PARTITIONS),
    "pipeline": "both",
    "grid": 64, "refine_iters": 4,
    "side": "second",
    "svg": True,
}

CLOSED_LONG_STEPS = 10_001
# Points of closed_long cross-checked against the brute-force optimiser.
CROSS_CHECK_POINTS = 50

GENERAL_STATES = 101
GRID, REFINE, SIDE = 64, 4, "second"
# c_err_max_bits is always measured on the states drawn from this seed, so
# that every run compares code versions on identical states (see README.md).
PANEL_SEED = 1

AGREEMENT_TOL = 1e-6
DISCORD_TOL = 1e-8
# Accuracy metrics below this read as this: it is 1/1000 of the gate and
# above the reference's own error, so last-digit noise is not a regression.
FLOOR_BITS = 1e-9

CSV_HEADER = "time,partition,pipeline,mutual_info,classical,quantum,concurrence,measured_side"

# The accuracy facts of an output that failed a basic check.
NO_FACTS = {"closed_brute_dev_max": 0.0, "c_err_max": 0.0, "accurate_ratio": 0.0}


def config_for(workload: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    if workload == "readme_sweep":
        cfg = dict(README_CONFIG)
        cfg["partitions"] = [PARTITIONS[i] for i in rng.permutation(len(PARTITIONS))]
        return cfg
    if workload == "closed_long":
        alpha2 = float(rng.uniform(0.1, 0.9))
        return {
            "family": "one_exc",
            "alpha_re": math.sqrt(alpha2), "beta_re": math.sqrt(1.0 - alpha2),
            "spectral": {"kind": "lorentz", "W": math.sqrt(200.0), "lambda": 1.0},
            "time_start": 0.0, "time_end": 2.0, "time_steps": CLOSED_LONG_STEPS,
            "partitions": ["s1s2", "r1r2"],
            "pipeline": "closed",
            "svg": True,
        }
    raise ValueError(f"no config for workload {workload!r}")


def random_states(seed: int) -> np.ndarray:
    from spinboson import linalg

    rng = np.random.default_rng(seed)
    return np.stack([linalg.random_pure_state(rng) for _ in range(GENERAL_STATES)])


def reduce_all(states: np.ndarray) -> np.ndarray:
    from spinboson import model

    return np.concatenate([model.reduced_batch(states, p) for p in PARTITIONS])


def setup(workload: str, seed: int, work: Path):
    """Make the inputs: a parsed config file, or the generated states."""
    if workload == "general_states":
        return random_states(seed)
    from spinboson import io

    path = work / "config.json"
    path.write_text(json.dumps(config_for(workload, seed), indent=2))
    io.parse_config(path.read_text())
    return path


def sweep_op(config_path: Path, out_dir: Path) -> None:
    from spinboson import cli

    code = cli.main(["sweep", str(config_path), "--out", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"spinboson sweep exited with {code}")


def general_op(states: np.ndarray) -> dict:
    from spinboson import correlations

    rhos = reduce_all(states)
    c, _, _ = correlations.classical_correlation_batch(rhos, SIDE, GRID, REFINE)
    info = correlations.mutual_information_batch(rhos)
    con = correlations.concurrence_batch(rhos)
    return {"classical": c, "mutual_info": info, "concurrence": con}


def digest_files(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def digest_arrays(out: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(out):
        h.update(np.ascontiguousarray(out[key]).tobytes())
    return h.hexdigest()


def floored(value: float) -> float:
    return max(float(value), FLOOR_BITS)


# ---------------------------------------------------------------------------
# Output checks.  Each returns (problems, facts); an empty list passes.
# ---------------------------------------------------------------------------


def read_csv(path: Path):
    """Rows of a sweep CSV as (header, [(time, partition, pipeline, values)])."""
    lines = path.read_text().split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    rows = []
    for line in lines[1:-1]:
        f = line.split(",")
        rows.append((float(f[0]), f[1], f[2], np.array([float(x) for x in f[3:7]])))
    return lines[0], rows


def _time_index(rows) -> dict:
    times = sorted({r[0] for r in rows})
    return {t: k for k, t in enumerate(times)}


def check_readme(csv_path: Path, svg_path: Path, refs: dict) -> tuple[list, dict]:
    """808 rows, finite values, closed_vs_brute within 1e-6, C against the reference.

    ``refs[partition]`` holds the reference C on the 101 grid times.
    """
    problems = []
    header, rows = read_csv(csv_path)
    if header != CSV_HEADER:
        problems.append(f"CSV header is {header!r}")
    if len(rows) != 808:
        problems.append(f"{len(rows)} CSV rows, expected 808")
    if not all(np.all(np.isfinite(r[3])) for r in rows):
        problems.append("non-finite value in CSV")
    if not svg_path.read_text().rstrip().endswith("</svg>"):
        problems.append("SVG is not closed")
    index = _time_index(rows)
    table = {(index[t], part, pipe): vals for t, part, pipe, vals in rows}
    dev = 0.0
    for (k, part, pipe), vals in table.items():
        if pipe == "closed_form":
            brute = table.get((k, part, "brute_force"))
            if brute is None:
                problems.append(f"no brute_force row for {part} at index {k}")
                continue
            dev = max(dev, float(np.abs(vals[1:] - brute[1:]).max()))
    if dev > AGREEMENT_TOL:
        problems.append(f"closed_vs_brute deviation {dev:.3e} > {AGREEMENT_TOL}")
    c_err, accurate, brute_rows = 0.0, 0, 0
    for (k, part, pipe), vals in table.items():
        err = abs(refs[part][k] - vals[1])
        c_err = max(c_err, err)
        if pipe == "brute_force":
            brute_rows += 1
            accurate += err <= AGREEMENT_TOL
    return problems, {
        "closed_brute_dev_max": dev,
        "c_err_max": c_err,
        "accurate_ratio": accurate / brute_rows if brute_rows else 0.0,
    }


def cross_check_indices() -> np.ndarray:
    return np.unique(np.linspace(0, CLOSED_LONG_STEPS - 1, CROSS_CHECK_POINTS).round().astype(int))


def check_closed_long(csv_path: Path, svg_path: Path, config: dict, reference) -> tuple[list, dict]:
    """20,002 finite rows; ~50 evenly spaced points against the brute optimiser."""
    from spinboson import correlations, io, model

    problems = []
    header, rows = read_csv(csv_path)
    if header != CSV_HEADER:
        problems.append(f"CSV header is {header!r}")
    if len(rows) != 2 * CLOSED_LONG_STEPS:
        problems.append(f"{len(rows)} CSV rows, expected {2 * CLOSED_LONG_STEPS}")
    if not all(np.all(np.isfinite(r[3])) for r in rows):
        problems.append("non-finite value in CSV")
    if any(r[2] != "closed_form" for r in rows):
        problems.append("CSV holds rows of another pipeline than closed_form")
    if not svg_path.read_text().rstrip().endswith("</svg>"):
        problems.append("SVG is not closed")
    if problems:
        return problems, dict(NO_FACTS)

    index = _time_index(rows)
    table = {(index[t], part): vals for t, part, _, vals in rows}
    picks = cross_check_indices()
    scenario = io.parse_config(json.dumps(config)).scenario()
    scenario = replace(scenario, time_grid=scenario.time_grid[picks])
    _, states = model.state_batch(scenario)
    dev, c_err = 0.0, 0.0
    for part in ("s1s2", "r1r2"):
        rhos = model.reduced_batch(states, part)
        c, _, _ = correlations.classical_correlation_batch(rhos, SIDE, GRID, REFINE)
        info = correlations.mutual_information_batch(rhos)
        brute = np.stack([c, info - c, correlations.concurrence_batch(rhos)], axis=1)
        closed = np.stack([table[(k, part)][1:] for k in picks])
        dev = max(dev, float(np.abs(closed - brute).max()))
        c_err = max(c_err, float(np.abs(reference(rhos) - closed[:, 0]).max()))
    if dev > AGREEMENT_TOL:
        problems.append(f"closed forms differ from the brute optimiser by {dev:.3e} > {AGREEMENT_TOL}")
    return problems, dict(NO_FACTS, closed_brute_dev_max=dev, c_err_max=c_err)


def check_general(out: dict) -> list:
    """0 <= C <= I, Q = I - C >= -1e-8, concurrence in [0, 1], all finite."""
    c, info, con = out["classical"], out["mutual_info"], out["concurrence"]
    n = len(PARTITIONS) * GENERAL_STATES
    problems = []
    if not (c.shape == info.shape == con.shape == (n,)):
        problems.append(f"output shapes {c.shape}, {info.shape}, {con.shape}; expected ({n},)")
        return problems
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(info)) and np.all(np.isfinite(con))):
        problems.append("non-finite output")
    if np.any(c < 0.0):
        problems.append(f"C < 0 on {int(np.sum(c < 0.0))} states")
    if np.any(info - c < -DISCORD_TOL):
        problems.append(f"Q < -{DISCORD_TOL} on {int(np.sum(info - c < -DISCORD_TOL))} states")
    if np.any((con < 0.0) | (con > 1.0)):
        problems.append("concurrence outside [0, 1]")
    return problems
