"""scorekit benchmark: one closed-loop client running a workload's op back to back.

Run from the repository root:

    python3 perfbench/run.py --workload heart_cv_sweep --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

A run makes one whole pass over the workload's pool of ops, then goes on
until ``--seconds`` of op time have passed.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer breakdown.  The last stdout
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it, starting ``# detail``, carries the
environment, the op latencies with their sample counts and the workload's
accuracy figure.  BLAS threads are capped at the number of usable
cores before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("heart_cv_sweep", "cohort_policy", "estimator_grid", "noise_mc")
IMPORT_REPEATS = 5  # fresh-interpreter imports timed per run
SETUP_REPEATS = 3  # workload set-ups timed per run
TAIL_BEYOND = 10  # the tail percentile leaves this many ops above it
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import scorekit.cli; print(time.perf_counter() - t)"
)

# (metric, span, field): per-op figures of the traced op phase
SPAN_METRICS = [
    (f"{span}.{field}", span, field)
    for span, fields in (
        ("glm.fit_lasso_path", ("calls", "self_s")),
        ("glm.cv_select", ("calls", "self_s")),
        ("glm.fit_logistic", ("calls", "self_s")),
        ("selection.forward_stepwise", ("calls", "self_s")),
        ("srr.build_scorecard", ("calls", "self_s")),
        ("metrics.auc", ("calls", "self_s")),
        ("metrics.best_threshold", ("calls", "self_s")),
        ("metrics.cv_sweep", ("self_s",)),
        ("policy.estimate_policy", ("calls", "self_s")),
        ("policy.rr_estimate", ("calls", "self_s")),
        ("policy.sensitivity_sweep", ("calls", "self_s")),
        ("policy.fit_response_surface", ("self_s",)),
        ("synth.generate", ("self_s",)),
        ("synth.write_cohort_csv", ("self_s",)),
        ("synth.load_cohort_csv", ("self_s",)),
        ("data.load_csv", ("self_s",)),
        ("data.encode", ("self_s",)),
        ("data.kfold", ("self_s",)),
        ("cli.run", ("calls", "self_s")),
        ("noise.verify_theorem_mc", ("self_s",)),
        ("noise.auc_under_noise", ("self_s",)),
    )
    for field in fields
]
# every span the traced run records
TRACED = sorted({span for _, span, _ in SPAN_METRICS}
                | {"policy.ResponseSurface.predict_both", "policy.ResponseSurface.release_prob"})
# (metric, counter): per-op counts of the traced op phase
COUNTER_METRICS = [
    ("glm.fit_lasso_path.grid_points", "glm.fit_lasso_path.grid_points"),
    ("glm.fit_lasso_path.design_cells", "glm.fit_lasso_path.design_cells"),
    ("metrics.auc.rows", "metrics.auc.rows"),
]
# (metric, numerator counter, denominator counter)
RATIO_METRICS = [
    ("metrics.auc.distinct_share", "metrics.auc.distinct", "metrics.auc.rows"),
    ("metrics.cv_sweep.failed_cell_share", "metrics.cv_sweep.failed_cells",
     "metrics.cv_sweep.cells"),
    ("policy.surface_rows_per_case", "policy.surface_rows", "policy.evaluated_rows"),
]
# (metric, span, field): one traced set-up
SETUP_METRICS = [
    ("setup.synth.generate.total_s", "synth.generate", "total_s"),
    ("setup.srr.build_scorecard.total_s", "srr.build_scorecard", "total_s"),
    ("setup.policy.fit_response_surface.total_s", "policy.fit_response_surface", "total_s"),
    ("setup.glm.fit_lasso_path.self_s", "glm.fit_lasso_path", "self_s"),
    ("setup.data.load_csv.total_s", "data.load_csv", "total_s"),
    ("setup.data.encode.total_s", "data.encode", "total_s"),
]
TRACE_METRICS = [
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.uncovered_share", "ratio"),
]
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict[str, str]:
    units = {m: ("count/op" if f == "calls" else "s/op") for m, _, f in SPAN_METRICS}
    units.update({m: "count/op" for m, _ in COUNTER_METRICS})
    units.update({m: "ratio" for m, _, _ in RATIO_METRICS})
    units.update({m: "s" for m, _, _ in SETUP_METRICS})
    units.update(dict(TRACE_METRICS))
    return units


def cap_blas_threads() -> None:
    """Limit BLAS pools to the usable cores; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, NPROC))
        except ValueError:
            wanted = NPROC
        os.environ[var] = str(max(1, min(wanted, NPROC)))


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "libscipy_openblas*.so")):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def import_seconds() -> float:
    """Time to import scorekit (and numpy) in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, ops beyond): the highest percentile with
    TAIL_BEYOND ops above it, or the maximum when the run has too few ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class Loop:
    """Runs ops back to back, timing each, then checks each output untimed."""

    def __init__(self, workload, state, keys, reference, corrupt_ops=0):
        self.workload, self.state, self.keys = workload, state, keys
        self.reference = reference
        self.corrupt_ops = corrupt_ops
        self.next_key = 0
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.accuracy: list[float] = []

    def run(self, seconds: float, tracer=None) -> tuple[int, float, float]:
        """One whole pass over the keys, then on until ``seconds`` of op time.

        Returns (ops, busy seconds, seconds covered by top-level spans)."""
        from workloads import check

        w, ops, busy, covered = self.workload, 0, 0.0, 0.0
        while busy < seconds or ops < len(self.keys):
            key = self.keys[self.next_key % len(self.keys)]
            index = self.next_key
            self.next_key += 1
            before = tracer.covered_s if tracer else 0.0
            if tracer:
                tracer.start_op()
            start = time.perf_counter()
            try:
                raw = w.op(self.state, key)
                error = None
            except Exception as exc:  # an op that raises is a failed op, not a failed run
                raw, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.active = False
                covered += tracer.covered_s - before
            ops += 1
            busy += elapsed
            self.latencies.append(elapsed)
            ref = self.reference.get(key)
            if error is None:
                outcome = w.collect(self.state, key, raw, ref, corrupt=index < self.corrupt_ops)
                error = check(outcome, ref)
                if index < len(self.keys) and outcome.accuracy is not None:
                    self.accuracy.append(outcome.accuracy)
            if error is not None:
                self.failures.append(f"op {index} key {key}: {error}")
        return ops, busy, covered


def run_workload(name: str, seed: int, seconds: float, trace: bool, corrupt_ops: int = 0):
    """Returns (result line, detail dict) for one run."""
    import numpy as np

    import workloads
    from tracer import Tracer

    w = workloads.WORKLOADS[name]
    reference = workloads.load_reference(w)
    workdir = os.path.join(WORKDIR, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
        setups = []
        tracer = Tracer()
        for rep in range(SETUP_REPEATS):
            traced = trace and rep == SETUP_REPEATS - 1
            if traced:
                tracer.install(TRACED)
                tracer.start_op()
            start = time.perf_counter()
            state = w.setup(seed, workdir)
            setups.append(time.perf_counter() - start)
            if traced:
                tracer.active = False
                setup_summary = tracer.summary()
                tracer.uninstall()
                tracer.reset()
        setup_s = statistics.median(imports) + statistics.median(setups)
        loop = Loop(w, state, w.keys(state, seed), reference, corrupt_ops)
        detail = {"workload": name, "seed": seed, "seconds": seconds, "env": environment(),
                  "import_runs_s": imports, "setup_runs_s": setups}
        if trace:
            metrics, extra = _trace_phase(loop, tracer, seconds, setup_summary)
            units = per_layer_units()
        else:
            metrics, extra = _timed_phase(loop, seconds, setup_s)
            units = END_TO_END_UNITS
        detail.update(extra)
        attempted, failed = len(loop.latencies), len(loop.failures)
        detail.update({
            "attempted": attempted,
            "failed_op_share": failed / attempted,
            "failures": loop.failures[:5],
            w.accuracy_name: {
                "value": float(np.mean(loop.accuracy)) if loop.accuracy else None,
                "unit": w.accuracy_unit,
                "ops": len(loop.accuracy),
            },
        })
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        return result, detail
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORKDIR) and not os.listdir(WORKDIR):
            os.rmdir(WORKDIR)


def _timed_phase(loop: Loop, seconds: float, setup_s: float):
    ops, busy, _ = loop.run(seconds)
    p_tail, percentile, beyond = tail(loop.latencies)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ops / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # op latencies go on the detail line: they are not steady enough between
    # runs to be held to a bound (see README.md)
    return metrics, {
        "op_p50_s": {"value": statistics.median(loop.latencies), "unit": "s", "ops": ops},
        "op_tail_s": {"value": p_tail, "unit": "s", "percentile": percentile,
                      "ops_beyond": beyond},
    }


def _trace_phase(loop: Loop, tracer, seconds: float, setup_summary: dict):
    """Untraced ops for half the time, then traced ops for the other half;
    each half makes at least one whole pass."""
    ops_u, busy_u, _ = loop.run(seconds / 2.0)
    tracer.install(TRACED)
    try:
        ops_t, busy_t, covered = loop.run(seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    metrics = {m: summary.get(span, empty)[f] / ops_t for m, span, f in SPAN_METRICS}
    counters = tracer.counters
    metrics.update({m: counters.get(c, 0.0) / ops_t for m, c in COUNTER_METRICS})
    metrics.update({
        m: (counters[num] / counters[den]) if counters.get(den) else 0.0
        for m, num, den in RATIO_METRICS
    })
    metrics.update({m: setup_summary.get(span, empty)[f] for m, span, f in SETUP_METRICS})
    untraced, traced = ops_u / busy_u, ops_t / busy_t
    metrics.update({
        "trace.ops_per_s_untraced": untraced,
        "trace.ops_per_s_traced": traced,
        "trace.overhead_share": 1.0 - traced / untraced,
        "trace.uncovered_share": (busy_t - covered) / busy_t,
    })
    shares = sorted(
        ((name, entry["self_s"] / busy_t) for name, entry in summary.items()),
        key=lambda item: -item[1],
    )
    return metrics, {"traced_ops": ops_t, "untraced_ops": ops_u,
                     "self_time_share": {n: round(s, 4) for n, s in shares[:8]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-ops", type=int, default=0,
                        help="corrupt the outputs of the first N ops (self-test only)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "scorekit", "__init__.py")):
        print(f"perfbench: no scorekit source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd, check=False).returncode)
        return status

    cap_blas_threads()
    sys.path.insert(0, SRC)
    import scorekit

    if not os.path.abspath(scorekit.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported scorekit from {scorekit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.corrupt_ops)
    print("# detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
