"""A seeded generator of degenerate training tables for the CLI contract tests.

Each table is CSV text with feature columns and a 0/1 label column ``y``.
It carries one or more of the hazards the fits must survive: a duplicated
column, the complement of a 0/1 column, a constant column, fewer rows than
columns, labels that a column separates perfectly, 1-2% positives, a column
on the 1e6 scale and duplicated rows.  :func:`with_actions` adds the
action column the policy commands need.
"""

import numpy as np

HAZARDS = (
    "duplicated_column",
    "complement_column",
    "constant_column",
    "n_below_p",
    "separable",
    "rare_positives",
    "huge_column",
    "duplicated_rows",
)


def degenerate_table(hazards, seed):
    """CSV text of a table carrying each of ``hazards``, drawn from ``seed``.

    The base table has 0/1 and normal columns and logistic labels: 200 rows
    of 4 columns, 12 rows of 30 with ``n_below_p``, 400 rows with
    ``rare_positives`` (6 positives) unless fewer rows are asked for.
    """
    unknown = set(hazards) - set(HAZARDS)
    if unknown:
        raise ValueError(f"unknown hazards {sorted(unknown)}")
    rng = np.random.default_rng(seed)
    if "n_below_p" in hazards:
        n, p = 12, 30
    else:
        n, p = (400 if "rare_positives" in hazards else 200), 4
    X = np.column_stack([
        rng.integers(0, 2, n).astype(float) if j % 2 == 0 else rng.normal(size=n) for j in range(p)
    ])
    eta = X[:, :4] @ np.array([1.2, 0.6, -0.9, 0.4]) - 0.3
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    if "separable" in hazards:
        y = X[:, 0].astype(int)
    if "rare_positives" in hazards:
        y = np.zeros(n, dtype=int)
        y[np.argsort(eta + rng.normal(size=n))[-max(1, round(0.015 * n)):]] = 1
    names = [f"x{j}" for j in range(p)]
    extra = {
        "duplicated_column": ("x0_copy", X[:, 0]),
        "complement_column": ("x0_complement", 1.0 - X[:, 0]),
        "constant_column": ("constant", np.full(n, 1.0)),
        "huge_column": ("huge", 1e6 * rng.normal(size=n)),
    }
    for hazard, (name, column) in extra.items():
        if hazard in hazards:
            names.append(name)
            X = np.column_stack([X, column])
    if "duplicated_rows" in hazards:
        twice = rng.choice(n, size=n // 2, replace=False)
        X, y = np.vstack([X, X[twice]]), np.concatenate([y, y[twice]])
    lines = [",".join(names + ["y"])]
    lines += [",".join([*(repr(float(v)) for v in row), str(label)]) for row, label in zip(X, y)]
    return "\n".join(lines) + "\n"


def with_actions(text, seed):
    """``text`` with an ``action`` column appended, each cell ``release`` or
    ``withhold`` drawn from ``seed``: a table the policy commands read."""
    header, *rows = text.splitlines()
    actions = np.random.default_rng(seed).choice(["release", "withhold"], size=len(rows))
    return "\n".join([f"{header},action", *map(",".join, zip(rows, actions))]) + "\n"


def degenerate_tables(seed, combined=6):
    """(name, CSV text) of each hazard alone, then ``combined`` tables that
    each join two to four hazards drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    for k, hazard in enumerate(HAZARDS):
        yield hazard, degenerate_table((hazard,), seed * 100 + k)
    for k in range(combined):
        hazards = tuple(sorted(rng.choice(HAZARDS, size=int(rng.integers(2, 5)), replace=False)))
        yield "+".join(hazards), degenerate_table(hazards, seed * 100 + len(HAZARDS) + k)
