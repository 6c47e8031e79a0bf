"""End-to-end gates: the CLI on the README config and on late flat and Lorentzian
configs, the figures' and the README config's plots, and the optimiser on the
benchmark's seed-1 panel (perfbench/ is only read)."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from spinboson.cli import main
from spinboson.correlations import classical_correlation_batch
from spinboson.io import FIGURE_CONFIGS

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402
import workloads  # noqa: E402

README_DOC = json.loads(re.search(r"^```json\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S).group(1))
README_OUTCOMES = ["closed_vs_brute", "square_sum_quantum", "square_sum_classical", "square_sum_concurrence",
                   "flat_classical_tail", "reservoir_transfer_two_exc"]


def cli(command, doc, tmp_path, capsys):
    """Exit code of ``command`` on the config ``doc``, and its stdout lines split into words; files go to tmp_path."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main([command, str(path)] + (["--out", str(tmp_path)] if command != "audit" else []))
    return rc, [line.split() for line in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize("change", [{}, {"time_start": 0.5}], ids=["readme", "time_start_0.5"])
def test_readme_config(change, tmp_path, capsys):
    # the oracle's rows are the sweep's brute-force rows byte for byte, and the audit prints
    # its six outcomes, each a pass.  Started at 0.5, the square sums used to be compared
    # with their value there rather than at t = 0, and failed
    doc = {**README_DOC, **change}
    assert cli("sweep", doc, tmp_path, capsys)[0] == cli("oracle", doc, tmp_path, capsys)[0] == 0
    sweep, oracle = ((tmp_path / name).read_bytes().splitlines(keepends=True) for name in ("sweep.csv", "oracle.csv"))
    assert [row for row in sweep if b",brute_force," in row] == oracle[1:]
    rc, lines = cli("audit", doc, tmp_path, capsys)
    assert [line[:2] for line in lines] == [["PASS", name] for name in README_OUTCOMES] and rc == 0


@pytest.mark.parametrize("weights", [(0.70710678, 0.70710678), (0.0, 1.0)], ids=["bell", "product"])
@pytest.mark.parametrize("family", ["two_exc", "one_exc"])
def test_late_flat_sweep(family, weights, tmp_path, capsys):
    # late C and Q are differences of entropies that shrink like exp(-gamma t), and the
    # product state's closed forms are round-off around zero: no cell of either pipeline
    # may round below zero, on the spin and reservoir pairs or on the mixed pairs s1r2
    # and s2r1, whose weights near 1e-16 once cost Wootters' route its accuracy
    doc = {"family": family, "alpha_re": weights[0], "alpha_im": 0.0, "beta_re": weights[1], "beta_im": 0.0,
           "spectral": {"kind": "flat", "gamma": 1.0}, "time_start": 0.0, "time_end": 30.0, "time_steps": 301,
           "partitions": ["s1s2", "r1r2", "s1r2", "s2r1"], "pipeline": "both", "svg": False}
    assert cli("sweep", doc, tmp_path, capsys)[0] == 0
    # the columns mutual_info, classical, quantum and concurrence
    assert np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1, usecols=range(3, 7)).min() >= 0.0
    rc, lines = cli("audit", doc, tmp_path, capsys)
    assert rc == 0 and all(line[0] == "PASS" for line in lines)
    assert lines[0][1] == "closed_vs_brute" and float(lines[0][2].removeprefix("margin=")) <= 1e-12


@pytest.mark.parametrize("side", ["second", "first"])
@pytest.mark.parametrize("family", ["two_exc", "one_exc"])
def test_lorentzian_audit(family, side, tmp_path, capsys):
    # W/lambda = sqrt 200, where xi changes sign.  Measuring the first qubit, the one_exc
    # closed forms used to measure the second, so closed_vs_brute failed
    doc = {"family": family, "alpha_re": 0.31622776601683794, "alpha_im": 0.0, "beta_re": 0.9486832980505138,
           "beta_im": 0.0, "spectral": {"kind": "lorentz", "W": 14.142135623730951, "lambda": 1.0},
           "time_start": 0.0, "time_end": 2.0, "time_steps": 201, "pipeline": "both", "svg": False, "side": side,
           "partitions": ["s1s2", "r1r2", "s1r1", "s1r2", "s2r1", "s2r2"]}
    rc, lines = cli("audit", doc, tmp_path, capsys)
    assert [line[:2] for line in lines] == [["PASS", name] for name in README_OUTCOMES[:4]] and rc == 0
    assert float(lines[0][2].removeprefix("margin=")) <= 1e-12


def test_short_series_keep_every_point(tmp_path, capsys):
    # 81 and 101 grid times are below 4 per pixel column of a panel, so every
    # path of the figures and of the README config's plot draws every grid time
    assert main(["figures", "--out", str(tmp_path)]) == 0
    assert cli("sweep", README_DOC, tmp_path, capsys)[0] == 0
    plots = [(f"{name}.svg", cfg.time_steps, 16) for name, cfg in FIGURE_CONFIGS.items()]
    for name, steps, count in plots + [("sweep.svg", README_DOC["time_steps"], 8)]:
        paths = re.findall(r'<path d="M ([^"]*)"', (tmp_path / name).read_text())
        assert [len(d.split(" L ")) for d in paths] == [steps] * count, name


@pytest.fixture(scope="module")
def panel():
    """The benchmark's seed-1 panel and its reference C per measured side."""
    rhos = workloads.reduce_all(workloads.random_states(workloads.PANEL_SEED))
    swapped = rhos.reshape(-1, 2, 2, 2, 2).transpose(0, 2, 1, 4, 3).reshape(-1, 4, 4)
    # the reference does not depend on (grid, refine): one call per side, cached by
    # the benchmark under .perfbench/cache, keyed by the states and the reference's source
    return rhos, {"second": run.reference_c(rhos), "first": run.reference_c(swapped)}


@pytest.mark.parametrize("side", ["second", "first"])
@pytest.mark.parametrize("grid,refine", [(workloads.GRID, workloads.REFINE), (32, 3)])
def test_optimiser_panel(panel, grid, refine, side):
    # the benchmark's grid 64 and refine 4, and the figures' grid 32 and refine 3
    # (a 12 x 12 first mesh and 6 Newton steps), within 1e-12 bits of the reference
    rhos, want = panel
    err = np.abs(classical_correlation_batch(rhos, side, grid, refine)[0] - want[side])
    assert err.max() <= 1e-12, f"worst |C - reference| {err.max():.2e} bits at state {err.argmax()}"
