"""Command-line driver.

Subcommands wire the library into end-to-end workflows and emit plot-ready
CSV.  Policy evaluation follows a three-fold discipline: one fold constructs
the rules, one fits the response surface, and one is scored, so no policy is
ever evaluated on data its scorecard or surface saw.  All commands are
deterministic given --seed.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import data, glm, metrics, noise, policy, srr, synth
from .errors import DataError, NumericError

_REGIMES = {
    "log2": dict(alpha=float(np.log(2.0)), deltas=(-float(np.log(2.0)), 0.0, float(np.log(2.0)))),
    "log3": dict(alpha=float(np.log(3.0)), deltas=(-float(np.log(3.0)), 0.0, float(np.log(3.0)))),
}
_P_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))


def _parse_int_list(text: str) -> tuple[int, ...]:
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part and not part.startswith("-"):
            a, b = (int(v) for v in part.split("-", 1))
            if a > b:
                raise ValueError(f"range start exceeds its stop in {text!r}")
            values.extend(range(a, b + 1))
        else:
            values.append(int(part))
    return tuple(values)


def _at_least(low: int, parse=int):
    """An argparse type checking that every value of ``parse(text)``, an int
    or a tuple of ints, is at least ``low``, so that a bad size is a usage
    error before any input is read.  An int comes back parsed, a list as
    typed, which is how the config comment records it."""

    def check(text: str):
        try:
            value = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if min(np.atleast_1d(value)) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
        return value if parse is int else text

    return check


def _finite(text: str) -> float:
    """An argparse type: a finite float, so that nan or inf is a usage error
    naming its flag."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_float_grid(text: str) -> tuple[float, ...]:
    is_range = ":" in text
    parts = text.split(":" if is_range else ",")
    if is_range and len(parts) != 3:
        raise ValueError(f"range must be start:stop:step, got {text!r}")
    values = [float(v) for v in parts]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"grid values must be finite, got {text!r}")
    if not is_range:
        return tuple(values)
    start, stop, step = values
    if step <= 0:
        raise ValueError("range step must be positive")
    if start > stop:
        raise ValueError(f"range start exceeds its stop in {text!r}")
    return tuple(np.arange(start, stop + 0.5 * step, step).round(12))


def _out_path(args, name: str) -> str:
    os.makedirs(args.output_dir, exist_ok=True)
    return os.path.join(args.output_dir, name)


def _config_comment(args) -> str:
    skip = {"func"}
    fields = ", ".join(
        f"{k}={v!r}" for k, v in sorted(vars(args).items()) if k not in skip
    )
    return f"scorekit {args.subcommand}: {fields}"


def _write_csv(args, name: str, header, rows, *comments) -> None:
    """Write one output CSV, the config comment line first, then ``comments``;
    print its ``wrote`` line."""
    out = _out_path(args, name)
    data.write_table(out, header, rows, comments=[_config_comment(args), *comments])
    print(f"wrote {out}")


def _load_encoded(args, encoding=None, **columns) -> data.Dataset:
    """--input as a Dataset, with ``columns`` passed on to ``load_csv``.

    The spec file ``encoding`` one-hot encodes string columns; without one,
    any string column is a DataError naming each of them.  The policy
    commands take no --encoding, so their covariates must all be numeric.
    """
    ds = data.load_csv(
        args.input, label_column=args.label, positive_label=args.positive_label, **columns
    )
    if encoding:
        try:
            with open(encoding, "r", encoding="utf-8-sig") as fh:
                spec = data.EncodingSpec.from_json(fh.read())
        except UnicodeDecodeError as exc:
            raise DataError(f"{encoding} is not a readable UTF-8 file: {exc}") from None
        except DataError as exc:
            raise DataError(f"{encoding}: {exc}") from None
        ds = data.encode(ds, spec)
    elif ds.categorical_levels:
        raise DataError(
            f"columns {sorted(ds.categorical_levels)} are categorical; "
            "provide --encoding with one-hot directives for them "
            "(the policy commands take numeric covariates only)"
        )
    return ds


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _load_with_folds(args) -> tuple[data.Dataset, data.FoldAssignment]:
    """The labeled input of train and evaluate, and its --folds split."""
    ds = _load_encoded(args, args.encoding)
    return ds, data.kfold(ds.n, args.folds, seed=args.seed, labels=ds.labels)


def _cmd_train(args) -> int:
    ds, folds = _load_with_folds(args)
    card = srr.build_scorecard(
        ds,
        k=args.k,
        M=args.M,
        folds_for_lambda=folds,
        threshold=args.threshold,
        grouped=not args.per_indicator,
        n_lambda=args.n_lambda,
    )
    table_path = _out_path(args, "scorecard.txt")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write(card.render() + "\n")
    json_path = _out_path(args, "scorecard.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(card.to_json() + "\n")
    print(f"wrote {table_path}")
    print(f"wrote {json_path}")
    print(card.render())
    return 0


def _cmd_evaluate(args) -> int:
    ds, folds = _load_with_folds(args)
    sweep = metrics.cv_sweep(
        ds,
        k_values=_parse_int_list(args.k_values),
        M_values=_parse_int_list(args.M_values),
        folds=folds,
        grouped=not args.per_indicator,
        n_lambda=args.n_lambda,
        inner_folds=args.inner_folds,
        seed=args.seed,
    )
    _write_csv(args, "sweep.csv", metrics.SWEEP_HEADER, sweep.rows())

    def report(label, method, k=None, M=None) -> None:
        """Print ``method``'s mean AUC (at ``k`` and ``M`` when given) and how
        many folds it covers when some failed, or its first error when all did."""
        used = len(sweep.aucs(method, k, M))
        if not used:
            error = next(c.error for c in sweep.cells
                         if c.method == method and (k is None or (c.k, c.M) == (k, M)))
            print(f"{label} failed: {error}")
            return
        covered = "" if used == folds.fold_count else f" ({used} of {folds.fold_count} folds)"
        print(f"{label} mean AUC {sweep.mean_auc(method, k, M):.4f}{covered}")

    for k in sweep.k_values:
        for M in sweep.M_values:
            report(f"k={k} M={M}", metrics.SCORECARD, k, M)
    sweep.mean_auc(metrics.SCORECARD)  # raises, so exits 4, when every scorecard cell failed
    report("benchmark lasso_full", metrics.LASSO_FULL)
    report("benchmark logistic_full", metrics.LOGISTIC_FULL)
    return 0


def _cmd_synth_gen(args) -> int:
    hidden = None
    if args.hidden_u:
        try:
            p, a, dr, dw = (float(v) for v in args.hidden_u.split(","))
        except ValueError:
            raise ValueError(
                f"--hidden-u takes four numbers p,alpha,delta_rel,delta_wh, got {args.hidden_u!r}"
            ) from None
        hidden = policy.SensitivityParams(p_u=p, alpha=a, delta_release=dr, delta_withhold=dw)
    cohort = synth.generate(synth.GeneratorConfig(n=args.n, seed=args.seed, hidden_u=hidden))
    out = _out_path(args, "cohort.csv")
    synth.write_cohort_csv(cohort, out)
    table = cohort.case_table()
    released = table.released
    print(f"wrote {out}")
    print(
        f"n={cohort.n} release_rate={released.mean():.3f} "
        f"adverse|released={table.outcomes[released].mean():.3f}"
    )
    return 0


def _load_cohort_or_cases(args) -> policy.CaseTable:
    """--input as the observed cases of the policy commands: a cohort CSV,
    or a plain CSV with --label and --action columns."""
    header = data.read_table(args.input)[0]
    if tuple(header[-3:]) == synth.COHORT_COLUMNS[-3:]:
        return synth.load_cohort_csv(args.input).case_table()
    if not args.label or not args.action:
        raise DataError("non-cohort input needs --label and --action columns")
    ds = _load_encoded(args, action_column=args.action, group_column=args.group)
    return policy.cases_from_dataset(ds, release_value=args.release_value)


def _check_inner_folds(inner_folds: int, labels, where: str) -> None:
    """A DataError unless each outcome class of ``labels`` has at least
    ``inner_folds`` members: the stratified inner folds deal each class
    round-robin, so then every inner fold holds both classes."""
    counts = np.bincount(np.asarray(labels, dtype=int), minlength=2)
    if counts.min() < inner_folds:
        fix = (f"use --inner-folds {counts.min()} or fewer" if counts.min() >= 2
               else "no --inner-folds value can work")
        raise DataError(
            f"{where} hold {counts[1]} positive and {counts[0]} negative outcomes, too few "
            f"for --inner-folds {inner_folds}, which needs {inner_folds} of each; {fix}"
        )


def _policy_setup(args):
    """The shared set-up of the policy commands.

    Loads the input and splits it into three folds: the scorecard is fitted
    on the released cases of the construct fold, the response surface on the
    surface fold, and policies are scored on the evaluation fold.  Returns
    ([(threshold, scorecard policy) per threshold], (released construct
    cases, their lambda folds), surface, evaluation table, fold provenance);
    the released construct cases are what ``policy-eval`` fits its
    full-feature risk model on.  Without --thresholds, the thresholds are
    every half-integer between the extreme evaluation scores.  A given
    --thresholds grid is parsed before anything is fitted.
    """
    thresholds = _parse_float_grid(args.thresholds) if args.thresholds else None
    table = _load_cohort_or_cases(args)
    folds = data.kfold(len(table), 3, seed=args.seed, labels=table.outcomes.astype(int))
    roles = [(r + args.rotate) % 3 for r in range(3)]
    construct, surf_sub, eval_sub = (table.take(folds.test_indices(r)) for r in roles)
    provenance = (
        f"fold_roles: construct=fold{roles[0]} surface=fold{roles[1]} "
        f"evaluate=fold{roles[2]} (disjoint)"
    )
    if np.count_nonzero(construct.released) < 20:
        raise DataError("too few released cases in the construction fold")
    rule_ds = construct.released_dataset()
    _check_inner_folds(args.inner_folds, rule_ds.labels, "the construction fold's released cases")
    _check_inner_folds(args.inner_folds, surf_sub.outcomes, "the surface fold's cases")
    lam_folds = data.kfold(rule_ds.n, args.inner_folds, seed=args.seed + 1, labels=rule_ds.labels)
    card = srr.build_scorecard(
        rule_ds, k=args.k, M=args.M, folds_for_lambda=lam_folds, n_lambda=args.n_lambda
    )
    surf_folds = data.kfold(
        len(surf_sub), args.inner_folds, seed=args.seed + 2, labels=surf_sub.outcomes.astype(int)
    )
    surface = policy.fit_response_surface(surf_sub, surf_folds, n_lambda=args.n_lambda)
    if thresholds is None:
        scores = card.scores(eval_sub.X, eval_sub.feature_names)
        thresholds = tuple(np.arange(np.min(scores), np.max(scores) + 1.0) + 0.5)
    scorecards = [
        (thr, policy.ScorecardPolicy(
            card=card, feature_names=eval_sub.feature_names, threshold=float(thr)))
        for thr in thresholds
    ]
    return scorecards, (rule_ds, lam_folds), surface, eval_sub, provenance


def _cmd_policy_eval(args) -> int:
    risk_thresholds = _parse_float_grid(args.risk_thresholds)
    scorecards, (rule_ds, lam_folds), surface, eval_sub, provenance = _policy_setup(args)
    risk_b0, risk_coefs = glm.cv_select(
        rule_ds.rows, rule_ds.labels.astype(float), lam_folds, n_lambda=args.n_lambda
    ).coefficients_at()
    candidates = [("observed", "", policy.FixedActionsPolicy(fixed=eval_sub.released))]
    candidates += [("scorecard", thr, pol) for thr, pol in scorecards]
    candidates += [
        ("risk_model", thr,
         policy.RiskModelPolicy(intercept=risk_b0, coefficients=risk_coefs, threshold=float(thr)))
        for thr in risk_thresholds
    ]

    def rows():
        for name, thr, pol in candidates:
            est = policy.estimate_policy(eval_sub, pol, surface)
            yield [name, thr, repr(est.action_rate), repr(est.value), est.method, ""]

    _write_csv(
        args, "policy_eval.csv",
        ["policy", "threshold", "action_rate", "value", "method", "regime"], rows(), provenance,
    )
    print(provenance)
    return 0


def _cmd_sensitivity_sweep(args) -> int:
    scorecards, _, surface, eval_sub, provenance = _policy_setup(args)
    spec = _REGIMES[args.regime]
    regimes = policy.regime_grid(spec["alpha"], _P_GRID, spec["deltas"])

    def rows():
        for thr, pol in scorecards:
            band = policy.sensitivity_sweep(eval_sub, pol, surface, regimes)
            yield [
                "scorecard", thr, repr(band.action_rate), repr(band.baseline),
                repr(band.low), repr(band.high), len(regimes), args.regime,
            ]

    _write_csv(
        args, "sensitivity.csv",
        ["policy", "threshold", "action_rate", "baseline", "min", "max", "n_regimes", "regime"],
        rows(), provenance,
    )
    print(provenance)
    return 0


def _cmd_theory_curve(args) -> int:
    rows = noise.theory_curve(
        _parse_float_grid(args.auc_values), _parse_float_grid(args.gamma_values)
    )
    _write_csv(args, "theory_curve.csv", ["auc_y", "gamma", "auc_hat"],
               ([a, g, repr(v)] for a, g, v in rows))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scorekit",
        description="Integer-weight scorecards and offline policy evaluation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    positive, fold_count, positives = _at_least(1), _at_least(2), _at_least(1, _parse_int_list)

    def command(name, func, help, *option_sets):
        """A subcommand running ``func``, with each option set and the
        common --seed and --output-dir options."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        common = p.add_argument_group("common options")
        common.add_argument("--seed", type=int, default=0, help="seed for all randomized steps")
        common.add_argument("--output-dir", default=".", help="directory for output files")
        for add in option_sets:
            add(p)
        return p

    def add_tabular(p):
        p.add_argument("--input", required=True, help="input CSV path")
        p.add_argument("--label", required=True, help="binary label column")
        p.add_argument("--encoding", help="encoding spec JSON path")
        p.add_argument("--positive-label", help="raw label value mapped to 1")
        p.add_argument("--per-indicator", action="store_true",
                       help="select indicator columns individually, not as source-column groups")

    def add_policy_io(p):
        p.add_argument("--input", required=True, help="cohort CSV or observed-decision CSV")
        p.add_argument("--label", help="outcome column (non-cohort input)")
        p.add_argument("--action", help="action column (non-cohort input)")
        p.add_argument("--group", help="column to leave out of the covariates (non-cohort input)")
        p.add_argument("--release-value", help="action value meaning release")
        p.add_argument("--positive-label", help="raw label value mapped to 1")
        p.add_argument("--k", type=positive, default=2)
        p.add_argument("--M", type=positive, default=10)
        p.add_argument("--thresholds", help="scorecard thresholds, start:stop:step or list")
        p.add_argument("--inner-folds", type=fold_count, default=5)
        p.add_argument("--n-lambda", type=positive, default=50)
        p.add_argument("--rotate", type=int, default=0, help="rotate the three fold roles")

    p = command("train", _cmd_train, "build a scorecard from labeled data", add_tabular)
    p.add_argument("--k", type=positive, required=True, help="feature budget")
    p.add_argument("--M", type=positive, required=True, help="integer weight bound")
    p.add_argument("--threshold", type=_finite, help="decision threshold stored on the card")
    p.add_argument("--folds", type=fold_count, default=10, help="folds for penalty selection")
    p.add_argument("--n-lambda", type=positive, default=100, help="penalty grid size")

    p = command("evaluate", _cmd_evaluate, "cross-validated k x M sweep with benchmarks",
                add_tabular)
    p.add_argument("--k-values", type=positives, default="1-10", help="e.g. 1-10 or 1,2,5")
    p.add_argument("--M-values", type=positives, default="1,2,3")
    p.add_argument("--folds", type=fold_count, default=10, help="outer CV folds")
    p.add_argument("--inner-folds", type=fold_count, default=5, help="folds for penalty selection")
    p.add_argument("--n-lambda", type=positive, default=30)

    p = command("synth-gen", _cmd_synth_gen, "generate a synthetic decision cohort")
    p.add_argument("--n", type=positive, required=True)
    p.add_argument("--hidden-u", help="enable a hidden covariate: p,alpha,delta_rel,delta_wh")

    p = command("policy-eval", _cmd_policy_eval, "estimate policies over a threshold sweep",
                add_policy_io)
    p.add_argument("--risk-thresholds", default="0.05:0.95:0.05",
                   help="risk-model release thresholds")

    p = command("sensitivity-sweep", _cmd_sensitivity_sweep, "hidden-covariate sensitivity bands",
                add_policy_io)
    p.add_argument("--regime", choices=sorted(_REGIMES), default="log2",
                   help="log2: odds shifts of 2; log3: odds shifts of 3")

    p = command("theory-curve", _cmd_theory_curve, "analytic AUC-under-noise grid")
    p.add_argument("--auc-values", default="0.55:0.95:0.05")
    p.add_argument("--gamma-values", default="0:2:0.1")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
