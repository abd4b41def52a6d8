"""rwmatch benchmark: one workload, one seed, a closed loop of public API calls.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-pairs --seed 1 --seconds 45 --trace 0

Each call into the program starts only after the previous one returned.
Whole rounds of calls run until the timed calls add up to ``--seconds``;
input generation and correctness checks happen between calls, off the
clock.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
fuller record lands in ``perfbench/results/``; a traced run also writes its
spans there.

rwmatch is imported from the checkout's own ``src/``; without it the
command exits with status 2 before measuring anything.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("dense-pairs", "small-sets")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "attention.layer_calls": "count/round",
    "attention.layer_self_ms": "ms/round",
    "attention.matrix_ms": "ms/round",
    "attention.gflops": "GFLOP/s",
    "transformer.forward_calls": "count/round",
    "transformer.forward_self_ms": "ms/round",
    "transformer.embed_ms": "ms/round",
    "matching.score_ms": "ms/round",
    "matching.sinkhorn_calls": "count/round",
    "matching.sinkhorn_ms": "ms/round",
    "matching.sinkhorn_iters": "count/round",
    "matching.sinkhorn_unconverged": "count/round",
    "matching.sinkhorn_max_residual": "mass",
    "matching.sinkhorn_cells_per_s": "cells/s",
    "matching.dual_softmax_calls": "count/round",
    "matching.dual_softmax_ms": "ms/round",
    "sampling.trials_literal": "count/round",
    "sampling.trials_collapsed": "count/round",
    "sampling.sample_ms": "ms/round",
    "sampling.self_ms": "ms/round",
    "sparsity.pipeline_loss_calls": "count/round",
    "sparsity.score_head_ms": "ms/round",
    "sparsity.spsa_self_ms": "ms/round",
    "sparsity.prune_ms": "ms/round",
    "sparsity.survivors": "count/round",
    "sparsity.loss_clamped": "count/round",
}


def _process_age() -> float:
    """Seconds since this process started, read from /proc; 0 where unavailable."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 600.0 else 0.0


_AGE_AT_T0 = _process_age()


def _pin_threads() -> None:
    """One BLAS thread, which never exceeds the usable cores.

    On a 2-core machine, two OpenBLAS threads stalled when a second process
    ran beside them (a run of d=64 dual-softmax pairs fell to a quarter of
    its usual speed), while one thread stayed within about 10 % of two
    threads' best.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _machine(np) -> dict:
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    return info


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "rwmatch" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'rwmatch'} not found; run from a checkout of rwmatch",
              file=sys.stderr)
        return 2
    _pin_threads()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import rwmatch

    if Path(rwmatch.__file__).resolve().parent != ROOT / "src" / "rwmatch":
        print(f"perfbench: imported rwmatch from {rwmatch.__file__}, not from src/", file=sys.stderr)
        return 2
    import checks
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](rwmatch, args.seed)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(rwmatch)
    workload.warm_up()

    correct = True
    attempted = failed = rounds = 0
    timed = 0.0
    op_times: list[float] = []
    by_call: dict[str, list[float]] = {}
    per_round: list[tuple[int, float]] = []
    setup_s = None
    with warnings.catch_warnings(record=tracer is not None) as caught:
        if tracer is not None:
            warnings.simplefilter("always")
        while rounds == 0 or timed < args.seconds:
            round_start, round_ok = timed, attempted - failed
            for call in workload.round(rounds):
                if setup_s is None:
                    setup_s = _AGE_AT_T0 + time.perf_counter() - _T0
                span = tracer.root(call.name) if tracer is not None else contextlib.nullcontext()
                start = time.perf_counter()
                try:
                    with span:
                        out = call.run()
                except Exception:  # a raising call is a failed operation; the run goes on
                    traceback.print_exc()
                    out = None
                elapsed = time.perf_counter() - start
                timed += elapsed
                attempted += call.ops
                op_times.extend([elapsed / call.ops] * call.ops)
                by_call.setdefault(call.name, []).append(elapsed / call.ops)
                if out is None:
                    failed += call.ops
                    continue
                try:
                    failed += call.check(out)
                except checks.CheckError as exc:
                    correct = False
                    print(f"perfbench: round {rounds} {call.name}: {exc}", file=sys.stderr)
            per_round.append((attempted - failed - round_ok, timed - round_start))
            rounds += 1
    clamped = sum(1 for w in caught or () if "matching loss clamped" in str(w.message))
    if tracer is not None:
        tracer.uninstall()
    try:
        workload.final_checks()
    except checks.CheckError as exc:
        correct = False
        print(f"perfbench: {exc}", file=sys.stderr)

    end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": (attempted - failed) / timed,
        "op_ms_p50": 1e3 * statistics.median(op_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
        layers = {}
    else:
        layers = spans.layer_metrics(tracer.spans, rounds, clamped)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "per_round": per_round,
        "timed_s": timed,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "call_ms_p50": {k: 1e3 * statistics.median(v) for k, v in by_call.items()},
        "machine": _machine(np),
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_jsonl(RESULTS / f"{stem}.spans.jsonl")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
