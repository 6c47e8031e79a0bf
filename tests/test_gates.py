"""End-to-end gates: the CLI on the README config and on late flat and Lorentzian
configs, the figures' and the README config's plots, the optimiser on the
benchmark's seed-1 panel and on a panel of the model's own states (perfbench/ is
only read), every demo run to completion, and no unused import in the package or
the demos."""

import ast
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinboson.cli import main
from spinboson.correlations import classical_correlation_batch
from spinboson.io import FIGURE_CONFIGS, parse_config
from spinboson.model import PARTITION_ORDER, amplitudes_flat, amplitudes_lorentz, pure_state, reduced_batch, state_batch

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
    # a brute-pipeline sweep writes the both-pipeline sweep's brute-force rows byte for byte,
    # `oracle` is a usage error that writes nothing, and the audit prints its six outcomes,
    # each a pass.  Started at 0.5, the square sums used to be compared with their value
    # there rather than at t = 0, and failed
    doc = {**README_DOC, **change}
    rows = []
    for pipeline in ("both", "brute"):
        assert cli("sweep", {**doc, "pipeline": pipeline}, tmp_path, capsys)[0] == 0
        rows.append((tmp_path / "sweep.csv").read_bytes().splitlines(keepends=True))
    assert [row for row in rows[0] if b",brute_force," in row] == rows[1][1:]
    files = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        main(["oracle", str(tmp_path / "run.json"), "--out", str(tmp_path)])
    assert exc.value.code == 2 and sorted(tmp_path.iterdir()) == files
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
    figures = tmp_path / "figures"
    umask = os.umask(0o022)
    try:
        assert main(["figures", "--out", str(figures)]) == 0
    finally:
        os.umask(umask)
    assert cli("sweep", README_DOC, tmp_path, capsys)[0] == 0
    # the figure run writes eight files, each with the mode the umask gives, and leaves no
    # temporary file; each CSV holds its header and 81 times x 6 rows (the four panel
    # partitions by brute force, s1s2 and r1r2 also closed form)
    written = [p for p in figures.rglob("*") if p.is_file() and p.suffix in (".csv", ".svg")]
    assert sorted(p.suffix for p in written) == [".csv"] * 4 + [".svg"] * 4
    assert {stat.S_IMODE(p.stat().st_mode) for p in written} == {0o644}
    assert not list(figures.rglob("*.tmp"))
    for csv in figures.glob("*.csv"):
        assert csv.read_bytes().count(b"\n") == 487, csv.name
    # each SVG is closed and draws 16 paths: 4 panels x Q and C x 2 weight sets
    plots = [(figures / f"{name}.svg", cfg.time_steps, 16) for name, cfg in FIGURE_CONFIGS.items()]
    for path, steps, count in plots + [(tmp_path / "sweep.svg", README_DOC["time_steps"], 8)]:
        text = path.read_text()
        paths = re.findall(r'<path d="M ([^"]*)"', text)
        assert [len(d.split(" L ")) for d in paths] == [steps] * count, path.name
        assert text.count("<path") == count, path.name
    for svg in figures.glob("*.svg"):
        assert svg.read_text().splitlines()[-1] == "</svg>", svg.name


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # numpy reports overflow and invalid values as RuntimeWarnings where math
    # raised, so they fail the demo; demo 05 writes demo_output/ under tmp_path
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_unused_imports():
    # every import in the package's modules and the demos must be used: a deletion
    # that leaves an import behind costs every process its import time.  __init__.py
    # re-exports, so it is skipped
    unused = []
    for path in sorted([*(ROOT / "src" / "spinboson").glob("*.py"), *(ROOT / "demos").glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unused += [f"{path.relative_to(ROOT)}:{node.lineno}: {alias.asname or alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert not unused, "\n".join(unused)


def with_reference(rhos):
    """``rhos`` and their reference C per measured side.  The reference does not depend on
    (grid, refine): one call per side, cached by the benchmark under .perfbench/cache, keyed
    by the states and the reference's source."""
    swapped = rhos.reshape(-1, 2, 2, 2, 2).transpose(0, 2, 1, 4, 3).reshape(-1, 4, 4)
    return rhos, {"second": run.reference_c(rhos), "first": run.reference_c(swapped)}


@pytest.fixture(scope="module")
def panel():
    """The benchmark's seed-1 panel and its reference C per measured side."""
    return with_reference(workloads.reduce_all(workloads.random_states(workloads.PANEL_SEED)))


@pytest.fixture(scope="module")
def model_panel():
    """The model's own non-X states and their reference C per measured side: 10 random
    initial spin states c00|00> + c01|01> + c10|10> + c11|11> (seed 11), on the flat and
    the Lorentzian (W/lambda = sqrt 200) spectra at 6 times in [0, 4], in all six
    partitions, 720 states.  The 41 times of the full panel cost the reference 35 s cold;
    these 6 cost 5 s and keep its worst cell at grid 64 and refine 4, 5.7e-5 bits."""
    rng = np.random.default_rng(11)
    weights = rng.normal(size=(10, 4)) + 1j * rng.normal(size=(10, 4))
    weights /= np.linalg.norm(weights, axis=1, keepdims=True)
    times = np.linspace(0.0, 4.0, 6)
    psi = np.concatenate([pure_state("two_exc", c00, c11, amps) + pure_state("one_exc", c01, c10, amps)
                          for amps in (amplitudes_flat(times), amplitudes_lorentz(times, np.sqrt(200.0)))
                          for c00, c01, c10, c11 in weights])
    return with_reference(np.concatenate([reduced_batch(psi, p) for p in PARTITION_ORDER]))


@pytest.mark.parametrize("side", ["second", "first"])
@pytest.mark.parametrize("grid,refine", [(workloads.GRID, workloads.REFINE), (32, 3)])
def test_optimiser_panel(panel, grid, refine, side):
    # the benchmark's grid 64 and refine 4, and the figures' grid 32 and refine 3
    # (a 12 x 12 first mesh and 6 Newton steps), within 1e-12 bits of the reference
    rhos, want = panel
    err = np.abs(classical_correlation_batch(rhos, side, grid, refine)[0] - want[side])
    assert err.max() <= 1e-12, f"worst |C - reference| {err.max():.2e} bits at state {err.argmax()}"


# (grid, refine, side): the worst shortfall, in bits, and the count of states short by
# more than 1e-12 that the optimiser leaves on the model panel today.  The Newton steps
# crawl along a curved ridge next to a nearly empty outcome; a mesh of fewer axes, such
# as an equal-area one, falls further short.  Held until the optimiser reaches 1e-12.
MODEL_PANEL_SHORTFALL = {
    (64, 4, "second"): (1.1e-6, 148), (64, 4, "first"): (5.7e-5, 166),
    (32, 3, "second"): (6.7e-5, 200), (32, 3, "first"): (4.5e-5, 244),
}


@pytest.mark.parametrize("grid,refine,side", list(MODEL_PANEL_SHORTFALL))
def test_optimiser_model_panel(model_panel, grid, refine, side):
    rhos, want = model_panel
    short = want[side] - classical_correlation_batch(rhos, side, grid, refine)[0]
    worst, count = MODEL_PANEL_SHORTFALL[grid, refine, side]
    assert short.max() <= worst, f"worst shortfall {short.max():.2e} bits at state {short.argmax()}"
    assert (short > 1e-12).sum() <= count


@pytest.mark.parametrize("side", ["second", "first"])
@pytest.mark.parametrize("grid", [64, 32])
def test_converged_value_ignores_step_budget(panel, grid, side):
    # every state of the Haar panel and of the README sweep either leaves the Newton
    # loop converged within 6 steps or keeps none of its later trials, so a larger
    # budget returns the same bits.  Stepping on after convergence once accepted
    # round-off gains, and C drifted by up to 5.6e-16 between refine 4, 6 and 8
    config = parse_config(json.dumps(README_DOC))
    states = state_batch(config.scenario())[1]
    readme = np.concatenate([reduced_batch(states, p) for p in config.partitions])
    for rhos in (panel[0], readme):
        first, *rest = (classical_correlation_batch(rhos, side, grid, refine)[0] for refine in (3, 4, 6, 8))
        for values in rest:
            np.testing.assert_array_equal(values, first)
