import os
import subprocess
import sys

import pytest

import scorekit

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos")

# each demo and a line of its output that only a full run prints
HEADLINES = {
    "01_build_a_scorecard.py": "the finished card:",
    "02_offline_policy_evaluation.py": "threshold sweep on fold 2",
    # the documented walk through solve_gamma, posterior_u, solve_beta,
    # rr_counterfactual and sensitivity_sweep
    "03_sensitivity_analysis.py": "regime odds-3",
    "04_auc_under_noise.py": "predicted AUC drop",
    "05_complexity_sweep.py": "full-feature benchmarks",
}


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(scorekit.__file__))
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, demo)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert HEADLINES[demo] in proc.stdout
