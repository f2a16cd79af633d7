"""Every input check that a public call can reach, one table row each.

Each row is a call that must raise, the error class it raises and a piece
of its message.  The rows cover checks that no other test reaches; a line
trace of the suite (``tools/untested_lines.py``) finds the ones left.
"""

import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from scorekit import data, glm, metrics, noise, policy, selection, srr, synth
from scorekit.errors import DataError, NumericError

X4 = np.array([[0.0], [1.0], [2.0], [3.0]])
Y4 = np.array([0.0, 1.0, 0.0, 1.0])
CATEGORICAL = data.Dataset(feature_names=("c",), rows=[[0.0], [1.0]], labels=[0, 1],
                           categorical_levels={"c": ("a", "b")})
NUMERIC = data.Dataset(feature_names=("x",), rows=[[0.0], [3.0]], labels=[0, 1])
CONSTANT = data.Dataset(feature_names=("x",), rows=[[1.0], [1.0]], labels=[0, 1])
PATH = glm.LassoPath(lambda_grid=[2.0, 1.0], intercepts=[0.0, 0.0],
                     coefficients=[[0.0], [0.0]], converged=[True, True])
PATH_2 = replace(PATH, coefficients=[[0.0, 0.0], [1.0, 2.0]])  # two features
CASES = policy.CaseTable(X=X4, released=np.array([True, False, True, False]), outcomes=Y4)
NO_THRESHOLD = srr.Scorecard(entries=(("x0", 1),), weight_bound=3, feature_budget=1)
CARD_2 = srr.Scorecard(entries=(("x0", 1), ("x1", 2)), weight_bound=3, feature_budget=2,
                      threshold=1.0)
CARD_2_POLICY = policy.ScorecardPolicy(CARD_2, ("x0", "x1"))
RISK_2 = policy.RiskModelPolicy(0.0, [1.0, 2.0], 0.5)
# one feature: a 0-d input would broadcast across the one coefficient
FIT_1 = glm.GlmFit(0.0, [1.0], True, 1, -1.0)
RISK_1 = policy.RiskModelPolicy(0.0, [1.0], 0.5)
CARD_1_POLICY = policy.ScorecardPolicy(NO_THRESHOLD, ("x0",), threshold=1.0)
ZERO_D = {"float64": np.float64(0.5), "None": None, "int": 3}
# a surface on X4's one feature, and cases that carry potential outcomes
SURFACE = policy.ResponseSurface(
    replace(PATH, coefficients=[[0.0, 0.0, 0.0]] * 2, selected_index=1),
    replace(PATH, selected_index=1), 1)
CASES_PO = replace(CASES, po_release=Y4, po_withhold=Y4)
REGIMES = [policy.SensitivityParams(0.5, 0.0, 0.0, 0.0)]
# policies whose decisions are not one flag per case of CASES_PO
MASKS = {"one flag": np.array([True]), "one flag too few": np.ones(3, bool)}
CELL_AUC_1_5 = metrics.SweepCell(metrics.SCORECARD, k=1, M=1, fold=0, auc=1.5, accuracy=0.5)
FOLDS_OF_4 = data.kfold(4, 2, seed=0)


def encode(ds, **columns):
    return data.encode(ds, data.EncodingSpec(columns))


def bins(**fields):
    return data.Bins(**{"cuts": (1.0,), "reference": "lt_1", **fields})


def generate_with_hidden_u(*params):
    hidden = policy.SensitivityParams(*params)
    return synth.generate(synth.GeneratorConfig(n=200, seed=0, hidden_u=hidden))


REFUSALS = {
    # data
    "Dataset rows 1-d": (lambda: data.Dataset(("x",), [0.0, 1.0], [0, 1]),
                         DataError, "rows must be a 2-d matrix"),
    "Dataset no rows": (lambda: data.Dataset(("x",), np.zeros((0, 1)), []),
                        DataError, "dataset needs at least one row and one feature"),
    "Dataset labels length": (lambda: data.Dataset(("x",), X4, [0, 1]),
                              DataError, "labels length does not match row count"),
    "Dataset actions length": (lambda: data.Dataset(("x",), X4, Y4, actions=["a"]),
                               DataError, "actions length does not match row count"),
    "Dataset three actions": (lambda: data.Dataset(("x",), X4, Y4, actions=["a", "b", "c", "a"]),
                              DataError, "actions must take at most two distinct values"),
    "Bins no cut": (lambda: bins(cuts=()), DataError, "binning needs at least one cut point"),
    "Bins label count": (lambda: bins(labels=("lt_1",)),
                         DataError, "need exactly one label per bin (len(cuts) + 1)"),
    "Bins repeated label": (lambda: bins(labels=("lt_1", "lt_1")),
                            DataError, "bin labels must be unique"),
    "Bins unknown reference": (lambda: bins(reference="z"),
                               DataError, "reference bin label must be one of the bin labels"),
    "EncodingSpec unknown type": (lambda: data.EncodingSpec.from_json('{"c": {"type": "spline"}}'),
                                  DataError, "unknown encoding directive type 'spline'"),
    "encode categorical passthrough": (lambda: encode(CATEGORICAL), DataError,
                                       "column 'c' is categorical and needs a one-hot directive"),
    "encode undeclared level": (lambda: encode(CATEGORICAL, c=data.OneHot(("a",), "a")), DataError,
                                "column 'c' has value(s) outside declared categories: ['b']"),
    "encode undeclared number": (lambda: encode(NUMERIC, x=data.OneHot((0,), 0)), DataError,
                                 "column 'x' has value(s) outside declared categories: [3.0]"),
    "encode text category": (lambda: encode(NUMERIC, x=data.OneHot(("a", "b"), "a")), DataError,
                             "column 'x' is numeric, so its categories must be numbers: ['a',"),
    "encode no column": (lambda: encode(CONSTANT, x=data.OneHot((1,), 1)), DataError,
                         "encoding spec leaves no column"),
    "encode bins a categorical": (lambda: encode(CATEGORICAL, c=bins()),
                                  DataError, "cannot bin categorical column 'c'"),
    "encode above the bins": (lambda: encode(NUMERIC, x=bins(upper=2.0)), DataError,
                              "column 'x' has values above the binning range"),
    "FoldAssignment one fold": (lambda: data.FoldAssignment(1, [0, 0]),
                                DataError, "fold count must be at least 2"),
    "FoldAssignment empty fold": (lambda: data.FoldAssignment(2, [0, 0]),
                                  DataError, "every fold must be non-empty"),
    "FoldAssignment uneven": (lambda: data.FoldAssignment(2, [0, 0, 0, 1]),
                              DataError, "fold sizes may differ by at most 1"),
    "kfold labels length": (lambda: data.kfold(4, 2, seed=0, labels=[0, 1]),
                            DataError, "labels length does not match n"),
    # glm
    "GlmFit converged NaN": (lambda: glm.GlmFit(np.nan, [0.0], True, 1, -1.0),
                             NumericError, "converged fit contains non-finite values"),
    "fit X 1-d": (lambda: glm.fit_logistic(Y4, Y4),
                  DataError, "X must be a 2-d matrix with at least one row"),
    "fit y length": (lambda: glm.fit_logistic(X4, Y4[:3]), DataError, "y length does not match X"),
    "fit on_divergence": (lambda: glm.fit_logistic(X4, Y4, on_divergence="ignore"),
                          ValueError, "on_divergence must be 'error' or 'clamp'"),
    "LassoPath grid rising": (lambda: replace(PATH, lambda_grid=[1.0, 2.0]),
                              NumericError, "lambda grid must be strictly decreasing"),
    "LassoPath unselected": (lambda: PATH.coefficients_at(),
                             NumericError, "no penalty selected; run cv_select first"),
    "lasso one row": (lambda: glm.fit_lasso_path(X4[:1], Y4[:1]),
                      DataError, "need at least two rows"),
    # one width rule for every linear score: a one-column matrix must not
    # broadcast across the coefficients
    "LassoPath one column": (lambda: PATH_2.predict_prob(np.ones((3, 1)), 1),
                             DataError, "feature vector has length 1, model expects 2"),
    "LassoPath width": (lambda: PATH_2.linear_score(np.ones((3, 3)), 1),
                        DataError, "feature vector has length 3, model expects 2"),
    "cv_select fold coverage": (lambda: glm.cv_select(X4, Y4, data.kfold(2, 2, seed=0)),
                                DataError, "fold assignment does not cover X's rows"),
    **{f"{name} 0-d {kind}": (lambda score=score, x=x: score(x), DataError,
                              "feature vector has length none (a 0-d input), model expects 1")
       for name, score in (("predict_prob", lambda x: glm.predict_prob(FIT_1, x)),
                           ("linear_score", lambda x: glm.linear_score(FIT_1, x)),
                           ("RiskModelPolicy", RISK_1.released),
                           ("ScorecardPolicy", CARD_1_POLICY.released))
       for kind, x in ZERO_D.items()},
    # metrics
    "auc shapes": (lambda: metrics.auc([1.0, 2.0], [1]),
                   DataError, "scores and labels must be 1-d and the same length"),
    "SweepResult AUC": (lambda: metrics.SweepResult((CELL_AUC_1_5,), (1,), (1,)),
                        NumericError, "AUC outside [0, 1]"),
    "SweepResult grid": (lambda: metrics.SweepResult((), (1,), (1,)), NumericError,
                         "sweep grid does not cover the requested (k, M) set exactly"),
    "cv_sweep fold coverage": (lambda: metrics.cv_sweep(NUMERIC, [1], [1], FOLDS_OF_4),
                               DataError, "fold assignment does not cover the dataset"),
    # noise
    "norm_ppf at 1": (lambda: noise.norm_ppf(1.0), NumericError,
                      "normal quantile needs an argument strictly inside (0, 1)"),
    "ScoreModel negative noise": (lambda: noise.ScoreModel(1.0, 0.0, 1.0, -1.0),
                                  NumericError, "noise standard deviation cannot be negative"),
    "estimate_gamma lengths": (lambda: noise.estimate_gamma(Y4, Y4[:3], 1.0, Y4), DataError,
                               "score and label vectors must all have the same length"),
    "estimate_gamma scale": (lambda: noise.estimate_gamma(Y4, Y4, 0.0, Y4),
                             DataError, "scale_factor must be positive"),
    "estimate_gamma one class": (lambda: noise.estimate_gamma(Y4, Y4, 1.0, np.zeros(4)),
                                 DataError, "both classes must be present"),
    # policy
    "CaseTable no cases": (lambda: policy.CaseTable(np.zeros((0, 1)), np.zeros(0, bool), []),
                           DataError, "no cases"),
    "CaseTable NaN covariate": (lambda: policy.CaseTable([[np.nan]], [True], [0]),
                                DataError, "covariates contain non-finite values"),
    "CaseTable one potential": (lambda: policy.CaseTable([[0.0]], [True], [0], po_release=[0]),
                                DataError, "either both potential outcomes are present or neither"),
    "cases_from_dataset no actions": (lambda: policy.cases_from_dataset(NUMERIC),
                                      DataError, "dataset has no action column"),
    "ScorecardPolicy no threshold": (lambda: policy.ScorecardPolicy(NO_THRESHOLD, ("x0",)),
                                     DataError, "no threshold: set one on the card or the policy"),
    "FixedActionsPolicy length": (lambda: policy.FixedActionsPolicy(np.ones(2, bool)).released(X4),
                                  DataError, "fixed action vector does not match the case count"),
    "ResponseSurface features": (lambda: policy.ResponseSurface(PATH, PATH, 2).release_prob(X4),
                                 DataError, "covariate rows have 1 features, surface expects 2"),
    "RiskModelPolicy one column": (lambda: RISK_2.released(np.ones((3, 1))),
                                   DataError, "feature vector has length 1, model expects 2"),
    "ScorecardPolicy one column": (lambda: CARD_2_POLICY.released(np.ones((3, 1))),
                                   DataError, "feature vector has length 1, model expects 2"),
    "surface fold coverage": (lambda: policy.fit_response_surface(CASES, data.kfold(2, 2, seed=0)),
                              DataError, "fold assignment does not cover the cases"),
    "PolicyEstimate rate": (lambda: policy.PolicyEstimate(1.5, 0.1, "oracle"),
                            NumericError, "policy estimate rates must lie in [0, 1]"),
    "SensitivityParams p_u": (lambda: policy.SensitivityParams(0.0, 0.0, 0.0, 0.0),
                              DataError, "p_u must lie strictly inside (0, 1)"),
    "SensitivityParams shift": (lambda: policy.SensitivityParams(0.5, np.inf, 0.0, 0.0),
                                DataError, "sensitivity shifts must be finite"),
    **{f"posterior_u gamma {kind}": (lambda gamma=gamma: policy.posterior_u(gamma, 0.5, 0.3, True),
                                     DataError, "gamma must be finite")
       for kind, gamma in (("inf", np.inf), ("-inf", -np.inf), ("nan", np.nan),
                           ("array inf", np.array([0.0, np.inf])))},
    **{f"{name} {kind}": (lambda run=run, mask=mask: run(SimpleNamespace(released=lambda X: mask)),
                          DataError, f"policy.released(X) has shape {mask.shape}, expected (4,)")
       for name, run in (
           ("estimate_policy", lambda p: policy.estimate_policy(CASES_PO, p, SURFACE)),
           ("sensitivity_sweep", lambda p: policy.sensitivity_sweep(CASES_PO, p, SURFACE, REGIMES)),
           ("oracle_value", lambda p: synth.oracle_value(CASES_PO, p)))
       for kind, mask in MASKS.items()},
    # selection, srr, synth
    "SelectionTrace repeat": (lambda: selection.SelectionTrace((1, 1), (), (), ()),
                              DataError, "selected column indices must be unique"),
    "Scorecard weight bound": (lambda: srr.Scorecard((("a", 5),), 3, 1),
                               DataError, "scorecard weight exceeds the declared bound"),
    "Scorecard scores one column": (lambda: CARD_2.scores(np.ones((3, 1)), ("x0", "x1")),
                                    DataError, "feature vector has length 1, model expects 2"),
    "Scorecard repeat": (lambda: srr.Scorecard((("a", 1), ("a", 2)), 3, 2),
                         DataError, "duplicate feature in scorecard entries"),
    "generate uncalibrated": (lambda: generate_with_hidden_u(0.9, -1000.0, 0.0, 0.0),
                              NumericError, "could not calibrate intercept to marginal"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_input_check_raises_its_error(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_typed_read_names_a_file_gone_after_its_header(tmp_path, monkeypatch):
    # the header is read first; a file that is gone when its cells are read
    monkeypatch.setattr(data, "read_table", lambda path: (["x"], iter(())))
    path = tmp_path / "gone.csv"
    with pytest.raises(DataError, match=f"cannot read {re.escape(str(path))}"):
        data.read_typed_table(path, [("x", float)])
