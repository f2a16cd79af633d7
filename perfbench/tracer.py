"""In-memory span tracer that wraps scorekit's public functions from outside.

The library binds several functions by name in other modules (``metrics``,
``srr`` and ``policy`` import ``cv_select``; ``noise`` imports ``auc``, ...),
so a wrapper is installed at every module attribute that holds the original
function, and methods such as ``ResponseSurface.predict_both`` are wrapped on
the class.  Only the named functions get spans, so the self time of a span
includes the private and public helpers it calls that are not named.

Each call records a span (name, start, end, parent).  Counters are computed
from the call's arguments and result after its span has closed; the time
that costs is recorded as a ``trace.counters`` child of the caller, so it is
not charged to the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# outermost calls of these evaluate one policy on one table of cases; each
# (table, policy) pair adds its rows to ``policy.evaluated_rows`` once per op
POLICY_EVALUATORS = frozenset(
    {"policy.estimate_policy", "policy.rr_estimate", "policy.sensitivity_sweep"}
)
COUNTER_SPAN = "trace.counters"


def _rows(x) -> int:
    """Rows of a 2-d array (a 1-d array is one row) or of a case table."""
    if isinstance(x, np.ndarray):
        return x.shape[0] if x.ndim == 2 else 1
    return len(x)


def _count_lasso_path(count, args, kwargs, result):
    X = kwargs.get("X", args[0] if args else None)
    n, p = np.shape(X)
    count("glm.fit_lasso_path.grid_points", len(result.lambda_grid))
    count("glm.fit_lasso_path.design_cells", n * p)


def _count_auc(count, args, kwargs, result):
    scores = np.asarray(kwargs.get("scores", args[0] if args else None), dtype=float)
    count("metrics.auc.rows", scores.size)
    count("metrics.auc.distinct", np.unique(scores).size)


def _count_cv_sweep(count, args, kwargs, result):
    count("metrics.cv_sweep.cells", len(result.cells))
    count("metrics.cv_sweep.failed_cells", sum(c.error is not None for c in result.cells))


def _count_surface_rows(count, args, kwargs, result):
    count("policy.surface_rows", _rows(kwargs.get("X", args[1] if len(args) > 1 else None)))


COUNTERS = {
    "glm.fit_lasso_path": _count_lasso_path,
    "metrics.auc": _count_auc,
    "metrics.cv_sweep": _count_cv_sweep,
    "policy.ResponseSurface.predict_both": _count_surface_rows,
    "policy.ResponseSurface.release_prob": _count_surface_rows,
}


class Tracer:
    """Records spans and counters while ``active``; costs one flag test when not."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counters: dict[str, float] = defaultdict(float)
        self.covered_s = 0.0  # wall time inside top-level spans
        self._stack: list[int] = []
        self._policy_depth = 0
        self._evaluated: set[tuple[int, str]] = set()  # (rows, policy) pairs of this op
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: float = 1.0) -> None:
        self.counters[name] += n

    def start_op(self) -> None:
        """Start recording one op."""
        self._evaluated.clear()
        self.active = True

    def _count_evaluation(self, args, kwargs) -> None:
        rows = _rows(args[0] if args else kwargs["cases"])
        pair = (rows, repr(args[1] if len(args) > 1 else kwargs["policy"]))
        if pair not in self._evaluated:
            self._evaluated.add(pair)
            self.count("policy.evaluated_rows", rows)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        evaluates_policy = name in POLICY_EVALUATORS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            outermost_policy = evaluates_policy and self._policy_depth == 0
            self._policy_depth += evaluates_policy
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._policy_depth -= evaluates_policy
                self.spans[index] = (name, start, end, parent)
                if parent < 0:
                    self.covered_s += end - start
            if counter is not None or outermost_policy:
                if outermost_policy:
                    self._count_evaluation(args, kwargs)
                if counter is not None:
                    counter(self.count, args, kwargs, result)
                done = time.perf_counter()
                self.spans.append((COUNTER_SPAN, end, done, parent))
                if parent < 0:
                    self.covered_s += done - end
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, names) -> None:
        """Wrap each named function (``"glm.cv_select"``) wherever scorekit binds
        it, and each named ``policy.ResponseSurface`` method on the class."""
        loaded = [m for n, m in sys.modules.items() if n == "scorekit" or n.startswith("scorekit.")]
        targets = {}
        for name in names:
            short, attr = name.split(".", 1)
            owner = sys.modules[f"scorekit.{short}"]
            if "." in attr:  # a method: wrap it on its class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
                continue
            fn = getattr(owner, attr)
            targets[id(fn)] = (fn, self._wrap(name, fn))
        for module in loaded:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._evaluated.clear()
        self.covered_s = 0.0

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(out)
