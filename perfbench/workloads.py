"""The four benchmark workloads.

Each workload has a fixed pool of op keys, each with a stored reference
output (``reference/<workload>.json``, written by ``make_reference.py``).  A
run makes one whole pass over the pool in an order drawn from the run seed,
then goes on in that order until its time is up, so one seed always gives the
same inputs and every run checks every key.  An op is timed on its own;
reading and checking its output happens after the clock stops.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from scorekit import cli, data, datasets, glm, noise, policy, srr, synth

HERE = os.path.dirname(os.path.abspath(__file__))
TOLERANCE = 1e-6  # solver tolerance outputs must reproduce to


@dataclass
class Outcome:
    """What one op produced, in the form the reference check compares."""

    rc: int
    rows: list[int]
    values: list[float]
    error_cells: int = 0
    accuracy: float | None = None


def check(outcome: Outcome, ref: dict | None) -> str | None:
    """Reason the op failed its output check, or None when it passed."""
    if ref is None:
        return "no stored reference for this op"
    if outcome.rc != 0:
        return f"exit code {outcome.rc}"
    if outcome.error_cells:
        return f"{outcome.error_cells} error cells"
    if outcome.rows != ref["rows"]:
        return f"row counts {outcome.rows}, expected {ref['rows']}"
    if len(outcome.values) != len(ref["values"]):
        return f"{len(outcome.values)} values, expected {len(ref['values'])}"
    for i, (got, want) in enumerate(zip(outcome.values, ref["values"])):
        if not abs(got - want) <= TOLERANCE:
            return f"value {i} is {got!r}, reference {want!r}"
    return None


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


def _read_csv(path: str) -> list[dict[str, str]]:
    """Data rows of a CLI CSV (comment lines skipped); [] if it is missing."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(line for line in fh if not line.startswith("#")))
    except FileNotFoundError:
        return []


def _num(text: str) -> float:
    return float(text) if text else math.nan


def _truncate_last_line(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])


def _pop(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _fit_policies(table, names, groups, seed, inner_folds, n_lambda, k, M):
    """The CLI's three-fold policy set-up, through the public library.

    Three stratified folds on ``seed``: a scorecard and a full-feature risk
    model fitted on the released cases of the construct fold (inner folds on
    ``seed + 1``), and the response surface on the surface fold (inner folds
    on ``seed + 2``).  Returns (card, (intercept, coefficients), surface,
    evaluation table).
    """
    folds = data.kfold(len(table), 3, seed=seed, labels=table.outcomes.astype(int))
    construct, surface_cases, evaluate = (table.take(folds.test_indices(r)) for r in range(3))
    released = np.flatnonzero(construct.actions == srr.RELEASE)
    rule_ds = data.Dataset(feature_names=names, rows=construct.X[released],
                           labels=construct.outcomes[released].astype(int), column_groups=groups)
    lam_folds = data.kfold(rule_ds.n, inner_folds, seed=seed + 1, labels=rule_ds.labels)
    card = srr.build_scorecard(rule_ds, k=k, M=M, folds_for_lambda=lam_folds, n_lambda=n_lambda)
    risk = glm.cv_select(rule_ds.rows, rule_ds.labels.astype(float), lam_folds, n_lambda=n_lambda)
    surf_folds = data.kfold(len(surface_cases), inner_folds, seed=seed + 2,
                            labels=surface_cases.outcomes.astype(int))
    surface = policy.fit_response_surface(surface_cases, surf_folds, n_lambda=n_lambda)
    return card, risk.coefficients_at(), surface, evaluate


class Workload:
    """A pool of op keys, the set-up the ops share, and how to read an op's output."""

    name = ""
    accuracy_name = ""  # averaged over the first pass of a run
    accuracy_unit = ""
    pool: tuple[int, ...] = ()  # op keys, each with a stored reference

    def config(self) -> dict:
        """Sizes the stored reference was made with."""
        raise NotImplementedError

    def setup(self, seed: int, workdir: str):
        raise NotImplementedError

    def keys(self, state, seed: int) -> list[str]:
        """One pass over the pool, in the run's order."""
        return [str(int(k)) for k in np.random.default_rng(seed).permutation(self.pool)]

    def op(self, state, key: str):
        raise NotImplementedError

    def collect(self, state, key: str, raw, ref: dict | None, corrupt: bool) -> Outcome:
        raise NotImplementedError


class HeartCvSweep(Workload):
    """``scorekit evaluate`` on the bundled heart table; the op key is --seed."""

    name = "heart_cv_sweep"
    accuracy_name, accuracy_unit = "scorecard_auc", "AUC"
    # --seed values. Seeds 0-5 take 2.5-4.5 s an op on 2 cores; seed 8 takes
    # 12-18 s because coordinate descent needs far more sweeps on its folds.
    # It is in the pool so the slow-convergence case is measured too.
    pool = (0, 1, 2, 3, 4, 5, 8)
    ARGS = ("--k-values", "1-3", "--M-values", "1,3", "--folds", "2",
            "--inner-folds", "3", "--n-lambda", "10")

    def config(self):
        return {"args": list(self.ARGS)}

    def setup(self, seed, workdir):
        with open(os.path.join(HERE, "heart_encoding.json"), encoding="utf-8") as fh:
            spec = data.EncodingSpec.from_json(fh.read())
        encoded = data.encode(datasets.load_heart(encoded=False), spec)
        if encoded.feature_names != datasets.load_heart().feature_names:
            raise RuntimeError("heart_encoding.json no longer matches the bundled heart encoding")
        return {
            "input": os.path.join(os.path.dirname(datasets.__file__), "heart_synthetic.csv"),
            "out": workdir,
        }

    def op(self, state, key):
        return _cli(["evaluate", "--input", state["input"], "--label", "disease",
                     "--encoding", os.path.join(HERE, "heart_encoding.json"),
                     *self.ARGS, "--seed", key, "--output-dir", state["out"]])

    def collect(self, state, key, rc, ref, corrupt):
        path = os.path.join(state["out"], "sweep.csv")
        if corrupt:
            _truncate_last_line(path)
        rows = _read_csv(path)
        _pop(path)
        values = [_num(r[c]) for r in rows for c in ("auc", "accuracy")]
        cards = [_num(r["auc"]) for r in rows if r["method"] == "scorecard"]
        return Outcome(
            rc=rc,
            rows=[len(rows)],
            values=values,
            error_cells=sum(bool(r["error"]) for r in rows),
            accuracy=float(np.mean(cards)) if cards else None,
        )


class CohortPolicy(Workload):
    """``synth-gen`` -> ``policy-eval`` -> ``sensitivity-sweep``; the key is --seed."""

    name = "cohort_policy"
    accuracy_name, accuracy_unit = "policy_value_abs_err", "rate"
    pool = (0, 1, 2)  # --seed values; one pass is about 18 s on 2 cores
    N = 20000
    POLICY_ARGS = ("--k", "2", "--M", "10", "--inner-folds", "3", "--n-lambda", "10",
                   "--thresholds", "4.5:12.5:4")
    RISK_ARGS = ("--risk-thresholds", "0.2,0.4,0.6")

    def config(self):
        return {"n": self.N, "policy_args": list(self.POLICY_ARGS),
                "risk_args": list(self.RISK_ARGS)}

    def setup(self, seed, workdir):
        return {"out": workdir}

    def _paths(self, state):
        return [os.path.join(state["out"], f)
                for f in ("cohort.csv", "policy_eval.csv", "sensitivity.csv")]

    def op(self, state, key):
        out = state["out"]
        cohort = os.path.join(out, "cohort.csv")
        common = ("--seed", key, "--output-dir", out)
        for argv in (
            ["synth-gen", "--n", str(self.N), *common],
            ["policy-eval", "--input", cohort, *self.POLICY_ARGS, *self.RISK_ARGS, *common],
            ["sensitivity-sweep", "--input", cohort, *self.POLICY_ARGS, *common],
        ):
            rc = _cli(argv)
            if rc != 0:
                return rc
        return 0

    def collect(self, state, key, rc, ref, corrupt):
        cohort_path, eval_path, sens_path = self._paths(state)
        if corrupt:
            _truncate_last_line(sens_path)
        try:
            with open(cohort_path, encoding="utf-8") as fh:
                cohort_rows = sum(1 for _ in fh) - 1
        except FileNotFoundError:
            cohort_rows = 0
        evals, bands = _read_csv(eval_path), _read_csv(sens_path)
        for path in (cohort_path, eval_path, sens_path):
            _pop(path)
        values = [_num(r[c]) for r in evals for c in ("action_rate", "value")]
        values += [_num(r[c]) for r in bands for c in ("action_rate", "baseline", "min", "max")]
        estimates = [_num(r["value"]) for r in evals if r["policy"] != "observed"]
        accuracy = None
        if ref is not None and len(estimates) == len(ref["oracle"]):
            accuracy = float(np.mean(np.abs(np.subtract(estimates, ref["oracle"]))))
        return Outcome(rc=rc, rows=[cohort_rows, len(evals), len(bands)], values=values,
                       accuracy=accuracy)

    def oracle(self, state, key) -> list[float]:
        """Oracle values of the candidate policies policy-eval wrote, in row order.

        Rebuilds the rules and surface as the CLI does and checks that they
        reproduce the CLI's estimates before trusting them.  Used only to
        write the reference.
        """
        cohort = synth.load_cohort_csv(self._paths(state)[0])
        opts = dict(zip(self.POLICY_ARGS[0::2], self.POLICY_ARGS[1::2]))
        card, (b0, coefs), surface, eval_sub = _fit_policies(
            cohort.case_table(), cohort.feature_names, cohort.column_groups, int(key),
            int(opts["--inner-folds"]), int(opts["--n-lambda"]), int(opts["--k"]), int(opts["--M"]))
        start, stop, step = (float(v) for v in opts["--thresholds"].split(":"))
        policies = [policy.ScorecardPolicy(card=card, feature_names=cohort.feature_names,
                                           threshold=float(t))
                    for t in np.arange(start, stop + 0.5 * step, step)]
        policies += [policy.RiskModelPolicy(intercept=b0, coefficients=coefs, threshold=float(t))
                     for t in self.RISK_ARGS[1].split(",")]
        estimates = [_num(r["value"]) for r in _read_csv(self._paths(state)[1])
                     if r["policy"] != "observed"]
        rebuilt = [policy.estimate_policy(eval_sub, p, surface).value for p in policies]
        if not np.allclose(rebuilt, estimates, rtol=0.0, atol=1e-12):
            raise RuntimeError("rebuilt policies do not reproduce the CLI estimates")
        return [synth.oracle_value(eval_sub, p).value for p in policies]


class EstimatorGrid(Workload):
    """One candidate policy per op, on a cohort whose surface is fitted in setup."""

    name = "estimator_grid"
    accuracy_name, accuracy_unit = "policy_value_abs_err", "rate"
    N, COHORT_SEED = 24000, 0
    INNER_FOLDS, N_LAMBDA, K, M = 3, 10, 2, 10
    RISK_THRESHOLDS = tuple(round(0.05 + 0.02 * i, 2) for i in range(46))

    def config(self):
        return {"n": self.N, "cohort_seed": self.COHORT_SEED, "inner_folds": self.INNER_FOLDS,
                "n_lambda": self.N_LAMBDA, "k": self.K, "M": self.M,
                "risk_thresholds": list(self.RISK_THRESHOLDS)}

    def setup(self, seed, workdir):
        """The cohort, its two rules, its fitted surface and its candidate
        policies (every scorecard cutoff, then the risk thresholds)."""
        cohort = synth.generate(synth.GeneratorConfig(n=self.N, seed=self.COHORT_SEED))
        card, (b0, coefs), surface, evaluate = _fit_policies(
            cohort.case_table(), cohort.feature_names, cohort.column_groups, self.COHORT_SEED,
            self.INNER_FOLDS, self.N_LAMBDA, self.K, self.M)
        scores = policy.ScorecardPolicy(card=card, feature_names=cohort.feature_names,
                                        threshold=0.0).scores(evaluate.X)
        policies = [policy.ScorecardPolicy(card=card, feature_names=cohort.feature_names,
                                           threshold=float(t))
                    for t in np.arange(np.min(scores), np.max(scores) + 1.0) + 0.5]
        policies += [policy.RiskModelPolicy(intercept=b0, coefficients=coefs, threshold=t)
                     for t in self.RISK_THRESHOLDS]
        log2 = float(np.log(2.0))
        regimes = policy.regime_grid(log2, tuple(round(0.1 * i, 1) for i in range(1, 10)),
                                     (-log2, 0.0, log2))
        return {"eval": evaluate, "surface": surface, "policies": policies, "regimes": regimes}

    def keys(self, state, seed):
        order = np.random.default_rng(seed).permutation(len(state["policies"]))
        return [str(int(j)) for j in order]

    def op(self, state, key):
        pol = state["policies"][int(key)]
        est = policy.estimate_policy(state["eval"], pol, state["surface"])
        band = policy.sensitivity_sweep(state["eval"], pol, state["surface"], state["regimes"])
        return est, band, synth.oracle_value(state["eval"], pol)

    def collect(self, state, key, raw, ref, corrupt):
        est, band, oracle = raw
        values = [est.action_rate, est.value, band.baseline, band.low, band.high, oracle.value]
        if corrupt:
            values[1] += 1e-3
        return Outcome(rc=0, rows=[len(band.values)], values=values,
                       accuracy=abs(est.value - oracle.value))


class NoiseMc(Workload):
    """Monte-Carlo check of the AUC-under-noise formula; the key is the MC seed."""

    name = "noise_mc"
    accuracy_name, accuracy_unit = "mc_abs_err", "AUC"
    # MC seeds, 13 per grid point.  A pass is about 28 s on 2 cores, longer
    # than a run of the other workloads: these ops swing most with the
    # machine's speed, and a longer run averages more of that out.
    pool = tuple(range(208))
    N = 50000
    GRID = tuple((a, g) for a in (0.6, 0.7, 0.8, 0.9) for g in (0.25, 0.5, 1.0, 2.0))

    def config(self):
        return {"n": self.N, "grid": [list(p) for p in self.GRID]}

    def setup(self, seed, workdir):
        return None

    def op(self, state, key):
        auc_y, gamma = self.GRID[int(key) % len(self.GRID)]
        mc = noise.verify_theorem_mc(auc_y, gamma, self.N, seed=int(key))
        return mc, noise.auc_under_noise(auc_y, gamma)

    def collect(self, state, key, raw, ref, corrupt):
        (empirical, analytic, diff), curve = raw
        values = [empirical, analytic, diff, curve]
        if corrupt:
            values[0] += 1e-3
        return Outcome(rc=0, rows=[1], values=values, accuracy=diff)


WORKLOADS = {w.name: w for w in (HeartCvSweep(), CohortPolicy(), EstimatorGrid(), NoiseMc())}


def reference_path(name: str) -> str:
    return os.path.join(HERE, "reference", f"{name}.json")


def load_reference(workload: Workload) -> dict:
    """Stored reference entries; refuses a reference made with other sizes."""
    with open(reference_path(workload.name), encoding="utf-8") as fh:
        stored = json.load(fh)
    if stored["config"] != workload.config():
        raise RuntimeError(f"{workload.name}: reference was made with other sizes; "
                           "rerun make_reference.py")
    return stored["entries"]
