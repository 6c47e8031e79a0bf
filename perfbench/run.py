"""Benchmark of spinboson: one workload, one seed, one run.

    python3 perfbench/run.py --workload readme_sweep --seed 1 --seconds 26 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines before
it name every metric with its unit, the failed-operation share, the sample
counts and the machine facts.  With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones.  See README.md here.

Files: .perfbench/cache (reference values and output digests, keyed by
content), .perfbench/out (one JSON record and, when traced, the spans of
each run), .perfbench/work (scratch, removed after each run).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
STATE = ROOT / ".perfbench"
CACHE = STATE / "cache"
OUT = STATE / "out"

# The per-state kernels are small; one BLAS/OpenMP thread (at most nproc)
# keeps timings free of thread scheduling noise from other tenants.  Only
# the worker processes get this setting.
BLAS_THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_PROBES = 7
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "closed_brute_dev_max": "bits",
    "c_err_max_bits": "bits",
}

PER_LAYER_UNITS = {
    "correlations.optimiser.busy_s": "s",
    "correlations.optimiser.states": "count",
    "correlations.optimiser.us_per_state": "us",
    "correlations.optimiser.accurate_ratio": "ratio",
    "correlations.closed_forms.busy_s": "s",
    "correlations.closed_forms.calls": "count",
    "linalg.binary_entropy.calls": "count",
    "linalg.binary_entropy.busy_s": "s",
    "model.state_batch.busy_s": "s",
    "model.state_batch.states": "count",
    "model.reduced_batch.busy_s": "s",
    "model.reduced_batch.calls": "count",
    "experiments.run_sweep.self_s": "s",
    "correlations.mutual_information.busy_s": "s",
    "correlations.concurrence.busy_s": "s",
    "linalg.eigh.busy_s": "s",
    "linalg.eigh.calls": "count",
    "linalg.eigh.matrices": "count",
    "io.parse_config.busy_s": "s",
    "io.emit_csv.busy_s": "s",
    "io.emit_csv.bytes": "bytes",
    "io.emit_svg.busy_s": "s",
    "io.emit_svg.bytes": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.missing_spans": "count",
}


class BenchError(Exception):
    """The run cannot produce a result."""


def _read_first(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def machine_facts() -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read_first(index / "level")
        kind = _read_first(index / "type")
        caches[f"L{level} {kind}"] = _read_first(index / "size")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas_threads": BLAS_THREADS,
    }


def _cached_array(key: bytes, compute):
    CACHE.mkdir(parents=True, exist_ok=True)
    path = CACHE / f"ref-{hashlib.sha256(key).hexdigest()[:32]}.npy"
    if path.exists():
        return np.load(path)
    values = compute()
    tmp = path.with_suffix(f".{os.getpid()}.tmp.npy")
    np.save(tmp, values)
    os.replace(tmp, path)
    return values


def reference_c(rhos):
    """Reference C of a stack of states, cached by the states and the reference code."""
    rhos = np.ascontiguousarray(rhos, dtype=complex)
    key = rhos.tobytes() + Path(reference.__file__).read_bytes()
    return _cached_array(key, lambda: reference.classical_correlation(rhos))


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spinboson").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:24]


def same_as_earlier_runs(name: str, digest: str) -> str | None:
    """Compare an output digest with the one an earlier run of the same code wrote."""
    CACHE.mkdir(parents=True, exist_ok=True)
    path = CACHE / f"digest-{name}-{code_hash()}.txt"
    if path.exists():
        earlier = path.read_text().strip()
        if earlier != digest:
            return f"{name}: output bytes differ from an earlier run of the same code"
        return None
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(digest)
    os.replace(tmp, path)
    return None


def _worker_env() -> dict:
    return dict(os.environ, **{var: str(BLAS_THREADS) for var in _THREAD_VARS})


def _worker_cmd(mode: str, args, work: Path) -> list[str]:
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work)]
    if mode == "run":
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd


def probe_setup(args, work: Path) -> float:
    """Seconds from process start to spinboson imported and inputs ready."""
    start = time.perf_counter()
    with subprocess.Popen(_worker_cmd("setup", args, work), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=_worker_env()) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return elapsed


def run_worker(args, work: Path, budget: float) -> dict:
    try:
        proc = subprocess.run(_worker_cmd("run", args, work), capture_output=True, text=True,
                              env=_worker_env(), timeout=budget)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {budget:.0f} s") from None
    result_path = work / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer(result: dict, accurate_ratio: float) -> dict:
    ops = result.get("layers", [])

    def med(layer: str, key: str) -> float:
        return _median([op.get(layer, {}).get(key, 0.0) for op in ops])

    opt_busy = med("correlations.optimiser", "busy")
    opt_states = med("correlations.optimiser", "count")
    values = {
        "correlations.optimiser.busy_s": opt_busy,
        "correlations.optimiser.states": opt_states,
        "correlations.optimiser.us_per_state": 1e6 * opt_busy / opt_states if opt_states else 0.0,
        "correlations.optimiser.accurate_ratio": accurate_ratio,
        "correlations.closed_forms.busy_s": med("correlations.closed_forms", "busy"),
        "correlations.closed_forms.calls": med("correlations.closed_forms", "calls"),
        "linalg.binary_entropy.calls": med("linalg.binary_entropy", "calls"),
        "linalg.binary_entropy.busy_s": med("linalg.binary_entropy", "busy"),
        "model.state_batch.busy_s": med("model.state_batch", "busy"),
        "model.state_batch.states": med("model.state_batch", "count"),
        "model.reduced_batch.busy_s": med("model.reduced_batch", "busy"),
        "model.reduced_batch.calls": med("model.reduced_batch", "calls"),
        "experiments.run_sweep.self_s": med("experiments.run_sweep", "self"),
        "correlations.mutual_information.busy_s": med("correlations.mutual_information", "busy"),
        "correlations.concurrence.busy_s": med("correlations.concurrence", "busy"),
        "linalg.eigh.busy_s": med("linalg.eigh", "busy"),
        "linalg.eigh.calls": med("linalg.eigh", "calls"),
        "linalg.eigh.matrices": med("linalg.eigh", "count"),
        "io.parse_config.busy_s": med("io.parse_config", "busy"),
        "io.emit_csv.busy_s": med("io.emit_csv", "busy"),
        "io.emit_csv.bytes": med("io.emit_csv", "count"),
        "io.emit_svg.busy_s": med("io.emit_svg", "busy"),
        "io.emit_svg.bytes": med("io.emit_svg", "count"),
        "cli.main.self_s": med("cli.main", "self"),
        "trace.overhead_s": _median(result["traced_op_s"]) - _median(result["op_s"]),
        "trace.missing_spans": float(len(result.get("missing_spans", []))),
    }
    return values


def check_outputs(args, work: Path, result: dict) -> tuple[list, dict]:
    """Output checks of the last operation (and the panel), plus the accuracy facts."""
    if args.workload in ("readme_sweep", "closed_long"):
        csv_path, svg_path = work / "out" / "sweep.csv", work / "out" / "sweep.svg"
        config = workloads.config_for(args.workload, args.seed)
        if args.workload == "closed_long":
            return workloads.check_closed_long(csv_path, svg_path, config, reference_c)

        from spinboson import io, model

        _, states = model.state_batch(io.parse_config(json.dumps(config)).scenario())
        refs = reference_c(np.concatenate([model.reduced_batch(states, p) for p in workloads.PARTITIONS]))
        per = len(states)
        by_part = {p: refs[k * per:(k + 1) * per] for k, p in enumerate(workloads.PARTITIONS)}
        return workloads.check_readme(csv_path, svg_path, by_part)

    last = dict(np.load(work / "outputs.npz"))
    problems = workloads.check_general(last)
    facts = dict(workloads.NO_FACTS, panel_problems=[])
    if args.trace:
        err = reference_c(workloads.reduce_all(workloads.random_states(args.seed))) - last["classical"]
        facts["accurate_ratio"] = float(np.mean(np.abs(err) <= workloads.AGREEMENT_TOL))
    if result["panel_digest"] is None:
        facts["panel_problems"].append("the panel operation raised")
        return problems, facts
    panel = dict(np.load(work / "panel.npz"))
    facts["panel_problems"] += workloads.check_general(panel)
    if not facts["panel_problems"]:
        mismatch = same_as_earlier_runs("panel", result["panel_digest"])
        facts["panel_problems"] += [mismatch] if mismatch else []
    err = reference_c(workloads.reduce_all(workloads.random_states(workloads.PANEL_SEED))) - panel["classical"]
    facts["c_err_max"] = float(np.abs(err).max())
    facts["c_err_signed_max"] = float(err.max())
    facts["panel_states_above_gate"] = int(np.sum(err > workloads.AGREEMENT_TOL))
    return problems, facts


def bench(args) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        probes = [probe_setup(args, work) for _ in range(0 if args.trace else SETUP_PROBES)]
        result = run_worker(args, work, max(10.0, deadline - time.perf_counter() - 15.0))
        digests = result["digests"]
        good = [d for d in digests if d is not None]
        if not good:
            raise BenchError("every operation raised:\n" + "".join(result["errors"][-1:]))
        checked = good[-1]
        try:
            problems, facts = check_outputs(args, work, result)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            problems = [f"outputs could not be read: {exc!r}"]
            facts = dict(workloads.NO_FACTS)
        # only an output that passed its checks becomes the one later runs must match
        if not problems:
            name = args.workload if args.workload == "readme_sweep" else f"{args.workload}-{args.seed}"
            mismatch = same_as_earlier_runs(name, checked)
            problems += [mismatch] if mismatch else []
        attempted = len(digests)
        failed = digests.count(None) + sum(d is not None and d != checked for d in good)
        if problems:
            failed += good.count(checked)
        if "panel_problems" in facts:
            attempted += 1
            problems += facts["panel_problems"]
            failed += bool(facts["panel_problems"])
        if args.trace:
            spans = work / "spans.npz"
            if spans.exists():
                OUT.mkdir(parents=True, exist_ok=True)
                shutil.move(str(spans), OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = per_layer(result, facts["accurate_ratio"])
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": _median(result["op_s"]),
            "setup_s": _median(probes),
            "peak_rss_mib": result["peak_rss_mib"],
            "closed_brute_dev_max": workloads.floored(facts["closed_brute_dev_max"]),
            "c_err_max_bits": workloads.floored(facts["c_err_max"]),
        }
        units = END_TO_END_UNITS
    return {
        "summary": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        },
        "problems": problems,
        "errors": result["errors"],
        "facts": {k: v for k, v in facts.items() if k != "panel_problems"},
        "warmup_s": result["warmup_s"],
        "op_s": result["op_s"],
        "traced_op_s": result["traced_op_s"],
        "setup_probes_s": probes,
        "worker_setup_s": result["setup_s"],
        "missing_spans": result.get("missing_spans", []),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spinboson benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spinboson" / "__init__.py").is_file():
        print(f"error: no spinboson sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    machine = machine_facts()
    try:
        record = bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record.update(machine=machine, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    summary = record["summary"]
    samples = record["traced_op_s"] if args.trace else record["op_s"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations timed {len(samples)} (median reported)")
    print("machine " + json.dumps(machine))
    for name, metric in summary["metrics"].items():
        print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_ops':42s} {summary['failed'] / summary['attempted']:.6g} share "
          f"({summary['failed']} of {summary['attempted']})")
    for line in record["problems"]:
        print(f"  check failed: {line}")
    for target in record["missing_spans"]:
        print(f"  missing span target (0 calls): {target}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
