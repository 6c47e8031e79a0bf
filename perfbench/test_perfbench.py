"""Tests of the benchmark's own parts: the reference, the tracer and the checks.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import argparse
import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import reference
import run
import workloads
from tracer import Tracer, layer_totals

from spinboson.correlations import (
    classical_correlation_batch,
    classical_correlation_spins_two_exc,
    reservoir_correlations_two_exc,
)
from spinboson.linalg import random_pure_state
from spinboson.model import Amplitudes, pure_state, reduced


def test_reference_matches_two_exc_closed_forms():
    rhos, want = [], []
    for beta2 in (0.1, 0.3, 0.5, 0.9):
        for xi2 in np.linspace(0.0, 1.0, 11):
            chi2 = 1.0 - xi2
            psi = pure_state("two_exc", math.sqrt(1.0 - beta2), math.sqrt(beta2),
                             Amplitudes(math.sqrt(xi2), math.sqrt(chi2)))
            rhos.append(reduced(psi, "s1s2"))
            want.append(classical_correlation_spins_two_exc(beta2, xi2, chi2))
            rhos.append(reduced(psi, "r1r2"))
            want.append(reservoir_correlations_two_exc(beta2, xi2, chi2)[0])
    got = reference.classical_correlation(np.array(rhos))
    assert np.abs(got - np.array(want)).max() < 1e-9


def _general_rhos(count, seed):
    rng = np.random.default_rng(seed)
    states = np.stack([random_pure_state(rng) for _ in range(count)])
    return workloads.reduce_all(states)


def test_reference_never_below_the_library_optimiser():
    # C is a maximum over measurements, so a converged reference is never lower
    rhos = _general_rhos(3, seed=5)
    lib, _, _ = classical_correlation_batch(rhos, "second", 64, 4)
    assert np.all(reference.classical_correlation(rhos) >= lib - 1e-12)


def test_reference_agrees_with_multistart_nelder_mead():
    optimize = pytest.importorskip("scipy.optimize")
    rhos = _general_rhos(1, seed=7)
    a, b, t = reference.bloch_form(rhos)
    s_first = reference.h2(0.5 * (1.0 + np.linalg.norm(a, axis=-1)))
    got = reference.classical_correlation(rhos)
    for k in range(len(rhos)):
        def cost(x, k=k):
            n = np.array([math.sin(x[0]) * math.cos(x[1]), math.sin(x[0]) * math.sin(x[1]), math.cos(x[0])])
            return float(reference.conditional_entropy(a[k:k + 1], b[k:k + 1], t[k:k + 1], n[None, None])[0, 0])

        best = min(
            optimize.minimize(cost, x0, method="Nelder-Mead",
                              options={"xatol": 1e-11, "fatol": 1e-15, "maxiter": 4000}).fun
            for x0 in ((0.3, 0.2), (1.2, 2.0), (1.5, 4.0), (2.5, 5.5))
        )
        assert abs((s_first[k] - best) - got[k]) < 1e-9


def test_tracer_reports_missing_targets_and_restores_names():
    mod = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return [x]

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer()
        assert tracer.install("layer.outer", f"{mod.__name__}.outer")
        assert tracer.install("layer.inner", f"{mod.__name__}.inner", count=lambda args, out: len(out))
        assert not tracer.install("layer.gone", f"{mod.__name__}.removed_in_a_refactor")
        assert not tracer.install("layer.gone", "no_such_module_here.fn")
        for _ in range(2):
            with tracer.span("op"):
                assert mod.outer(1) == [1, 1]
        tracer.uninstall()
        assert mod.outer is outer and mod.inner is inner
    finally:
        del sys.modules[mod.__name__]

    assert tracer.missing == [f"{mod.__name__}.removed_in_a_refactor", "no_such_module_here.fn"]
    ops = layer_totals(tracer.arrays(), "op")
    assert len(ops) == 2
    for op in ops:
        assert op["layer.inner"]["calls"] == 2 and op["layer.inner"]["count"] == 2.0
        assert op["layer.outer"]["calls"] == 1
        assert op["layer.outer"]["self"] == pytest.approx(
            op["layer.outer"]["busy"] - op["layer.inner"]["busy"], abs=1e-12)
        assert "layer.gone" not in op


def test_layer_totals_count_nested_calls_of_one_layer_once():
    spans = {
        "names": np.array(["op", "L"]),
        "name": np.array([0, 1, 1, 1]),
        "parent": np.array([-1, 0, 1, 0]),
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 6.0]),
        "count": np.zeros(4),
    }
    (op,) = layer_totals(spans, "op")
    assert op["L"]["calls"] == 3
    assert op["L"]["busy"] == pytest.approx(4.0)
    assert op["op"]["self"] == pytest.approx(10.0 - 3.0 - 1.0)


def test_inputs_follow_the_seed():
    a, b = workloads.config_for("readme_sweep", 3), workloads.config_for("readme_sweep", 3)
    assert a == b and sorted(a["partitions"]) == sorted(workloads.PARTITIONS)
    rest = {k: v for k, v in a.items() if k != "partitions"}
    assert rest == {k: v for k, v in workloads.README_CONFIG.items() if k != "partitions"}
    assert workloads.config_for("closed_long", 1) != workloads.config_for("closed_long", 2)
    assert np.array_equal(workloads.random_states(4), workloads.random_states(4))


def test_general_check_flags_each_invariant():
    n = len(workloads.PARTITIONS) * workloads.GENERAL_STATES
    good = {"classical": np.full(n, 0.2), "mutual_info": np.full(n, 0.5), "concurrence": np.full(n, 0.3)}
    assert workloads.check_general(good) == []
    for key, value in (("classical", -0.1), ("classical", 0.6), ("concurrence", 1.5), ("mutual_info", np.nan)):
        bad = {k: v.copy() for k, v in good.items()}
        bad[key][17] = value
        assert workloads.check_general(bad)


def test_closed_long_output_with_a_nan_row_is_a_failed_result(tmp_path, monkeypatch):
    rows = ["0.0,s1s2,closed_form,0.5,0.2,0.3,0.4,second", "0.0,r1r2,closed_form,nan,0.2,0.3,0.4,second"]

    def fake_worker(args, work, budget):
        (work / "out").mkdir()
        (work / "out" / "sweep.csv").write_text("\n".join([workloads.CSV_HEADER, *rows, ""]))
        (work / "out" / "sweep.svg").write_text("<svg></svg>\n")
        return {"digests": ["d", "d"], "errors": [], "op_s": [1.0], "traced_op_s": [], "warmup_s": [1.0],
                "setup_s": 0.1, "peak_rss_mib": 100.0}

    monkeypatch.setattr(run, "STATE", tmp_path)
    monkeypatch.setattr(run, "CACHE", tmp_path / "cache")
    monkeypatch.setattr(run, "run_worker", fake_worker)
    monkeypatch.setattr(run, "probe_setup", lambda args, work: 0.5)
    args = argparse.Namespace(workload="closed_long", seed=1, seconds=1, trace=0)
    record = run.bench(args)
    summary = record["summary"]
    assert not summary["correct"] and summary["failed"] > 0
    assert "non-finite value in CSV" in record["problems"]
    # a failed output is not kept as the one later runs must reproduce
    assert not list((tmp_path / "cache").glob("digest-*"))


def test_importing_run_leaves_the_environment_alone():
    code = "import os; before = dict(os.environ); import run; " \
           "assert dict(os.environ) == before, 'changed'; print(run._worker_env()['OMP_NUM_THREADS'])"
    env = {k: v for k, v in os.environ.items() if k not in run._THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.HERE, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(run.BLAS_THREADS)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
