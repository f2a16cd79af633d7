import os
import subprocess
import sys

import scorekit

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos")


def test_sensitivity_demo_runs():
    # the documented walk through solve_gamma, posterior_u, solve_beta,
    # rr_counterfactual and sensitivity_sweep
    src = os.path.dirname(os.path.dirname(scorekit.__file__))
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, "03_sensitivity_analysis.py")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "regime odds-3" in proc.stdout
