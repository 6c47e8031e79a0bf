"""The process that drives spinboson: set-up, then a closed loop of operations.

    worker.py setup --workload W --seed N --work DIR
        import spinboson, make the inputs, print "ready" and exit.
    worker.py run --workload W --seed N --seconds S --trace 0|1 --work DIR
        set up, run one untimed warm-up operation, then one operation after
        another (each starts when the previous one has ended) until S
        seconds have passed and at least MIN_OPS ran.  With --trace 1 the first half of the time runs plain
        and the second half with every layer wrapped in spans.  Writes
        result.json (and, for general_states, outputs.npz and panel.npz)
        into DIR.

run.py starts this with the BLAS/OpenMP thread count already pinned.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, layer_totals  # noqa: E402

MIN_OPS = 3
MIN_TRACED_OPS = 2

_CLOSED_FORMS = (
    "classical_correlation_spins_two_exc",
    "quantum_correlation_spins_one_exc",
    "reservoir_correlations_two_exc",
    "reservoir_correlations_one_exc",
    "concurrence_closed",
    "concurrence_closed_reservoirs",
)


def _first_len(args, _result):
    return len(args[0])


def _states_built(_args, result):
    return len(result[1])


def _file_bytes(_args, result):
    return os.path.getsize(result)


# layer -> (module-level names its callers look up, work count of one call)
LAYERS = {
    "cli.main": (["spinboson.cli.main"], None),
    "io.parse_config": (["spinboson.cli.parse_config", "spinboson.io.parse_config"], None),
    "experiments.run_sweep": (["spinboson.cli.run_sweep"], None),
    "model.state_batch": (["spinboson.experiments.state_batch"], _states_built),
    "model.reduced_batch": (["spinboson.experiments.reduced_batch", "spinboson.model.reduced_batch"], None),
    "correlations.optimiser": (
        ["spinboson.experiments.classical_correlation_batch", "spinboson.correlations.classical_correlation_batch"],
        _first_len,
    ),
    "correlations.closed_forms": ([f"spinboson.experiments.{f}" for f in _CLOSED_FORMS], None),
    "linalg.binary_entropy": (
        ["spinboson.correlations.binary_entropy", "spinboson.linalg.binary_entropy",
         "spinboson.experiments.binary_entropy"],
        None,
    ),
    "correlations.mutual_information": (
        ["spinboson.experiments.mutual_information_batch", "spinboson.correlations.mutual_information_batch"],
        None,
    ),
    "correlations.concurrence": (
        ["spinboson.experiments.concurrence_batch", "spinboson.correlations.concurrence_batch"], None,
    ),
    "linalg.eigh": (["spinboson.correlations.jacobi_eigh_batch"], _first_len),
    "io.emit_csv": (["spinboson.cli.emit_csv"], _file_bytes),
    "io.emit_svg": (["spinboson.cli.emit_svg_plot"], _file_bytes),
}

OP_SPAN = "op"


def install_layers(tracer: Tracer) -> None:
    for layer, (targets, count) in LAYERS.items():
        for target in targets:
            tracer.install(layer, target, count)


def make_op(workload: str, inputs, work: Path):
    """The timed operation and a function that digests its output."""
    if workload == "general_states":
        return (lambda: workloads.general_op(inputs)), workloads.digest_arrays
    out_dir = work / "out"
    paths = (out_dir / "sweep.csv", out_dir / "sweep.svg")
    return (lambda: workloads.sweep_op(inputs, out_dir)), (lambda _: workloads.digest_files(*paths))


def run(args) -> None:
    work = Path(args.work)
    t0 = time.perf_counter()
    inputs = workloads.setup(args.workload, args.seed, work)
    setup_s = time.perf_counter() - t0
    op, digest = make_op(args.workload, inputs, work)

    result = {"setup_s": setup_s, "warmup_s": [], "op_s": [], "traced_op_s": [], "digests": [],
              "errors": []}
    tracer = Tracer()
    last = None

    def one(timings: list, traced: bool) -> None:
        nonlocal last
        try:
            with tracer.span(OP_SPAN) if traced else nullcontext():
                start = time.perf_counter()
                out = op()
                timings.append(time.perf_counter() - start)
        except Exception:  # an operation that raises is a failed operation; keep going
            result["errors"].append(traceback.format_exc(limit=4))
            result["digests"].append(None)
            return
        result["digests"].append(digest(out))
        last = out

    def loop(until: float, min_ops: int, timings: list, traced: bool) -> None:
        attempts = 0
        while True:
            one(timings, traced)
            attempts += 1
            if time.perf_counter() >= until and attempts >= min_ops:
                return

    # The first operation in a process pays for first-touch page faults of
    # its work arrays, so it is checked like the others but not timed.  On
    # general_states it runs on the fixed panel that c_err_max_bits uses.
    if args.workload == "general_states":
        try:
            panel = workloads.general_op(workloads.random_states(workloads.PANEL_SEED))
            np.savez(work / "panel.npz", **panel)
            result["panel_digest"] = workloads.digest_arrays(panel)
        except Exception:
            result["errors"].append(traceback.format_exc(limit=4))
            result["panel_digest"] = None
    else:
        one(result["warmup_s"], traced=False)
    loop_start = time.perf_counter()
    if not args.trace:
        loop(loop_start + args.seconds, MIN_OPS, result["op_s"], traced=False)
    else:
        loop(loop_start + args.seconds / 2.0, MIN_TRACED_OPS, result["op_s"], traced=False)
        install_layers(tracer)
        try:
            loop(loop_start + args.seconds, MIN_TRACED_OPS, result["traced_op_s"], traced=True)
        finally:
            tracer.uninstall()
        spans = tracer.arrays()
        tracer.save(work / "spans.npz")
        result["layers"] = layer_totals(spans, OP_SPAN)
        result["missing_spans"] = tracer.missing

    if args.workload == "general_states" and last is not None:
        np.savez(work / "outputs.npz", **last)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (work / "result.json").write_text(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        workloads.setup(args.workload, args.seed, Path(args.work))
        print("ready", flush=True)
        return 0
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
