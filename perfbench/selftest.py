"""Self-test of the benchmark harness.

Run from the repository root (takes about six minutes):

    python3 perfbench/selftest.py

For every workload it makes a one-second run whose first op has its output
corrupted, and checks that every end-to-end metric is printed with its unit
and that the corrupted op is counted as failed; then a one-second traced run,
checking every per-layer metric and that no op fails.  It also checks that
BENCHMARK.json names the metrics the harness prints, and that the harness
refuses to run where there is no scorekit source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def bench(*args: str, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def result_of(done: subprocess.CompletedProcess) -> tuple[dict, dict]:
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("# detail "):
        raise AssertionError(f"run failed ({done.returncode}):\n{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    return result, json.loads(lines[-2][len("# detail "):])


def expect_metrics(result: dict, units: dict[str, str], where: str) -> None:
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == units, f"{where}: printed {printed}, expected {units}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name} = {m['value']!r}"


def check_benchmark_json() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def check_workload(name: str) -> None:
    result, detail = result_of(bench("--workload", name, "--seed", "7", "--seconds", "1",
                                     "--trace", "0", "--corrupt-ops", "1"))
    expect_metrics(result, run.END_TO_END_UNITS, name)
    assert result["failed"] >= 1 and not result["correct"], f"{name}: corruption not caught"
    assert detail["failed_op_share"] > 0.0, detail
    for latency in ("op_p50_s", "op_tail_s"):
        assert detail[latency]["unit"] == "s" and detail[latency]["value"] > 0.0, detail
    result, detail = result_of(bench("--workload", name, "--seed", "7", "--seconds", "1",
                                     "--trace", "1"))
    expect_metrics(result, run.per_layer_units(), f"{name} traced")
    assert result["failed"] == 0 and result["correct"], f"{name}: {detail['failures']}"
    print(f"ok {name}: corrupted op counted; {len(result['metrics'])} per-layer metrics")


def check_refuses_without_source() -> None:
    bare = os.path.join(run.WORKDIR, f"selftest-bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "noise_mc", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
        assert done.returncode != 0 and not done.stdout.strip(), done
    finally:
        shutil.rmtree(bare)
        if not os.listdir(run.WORKDIR):
            os.rmdir(run.WORKDIR)


def main() -> int:
    check_benchmark_json()
    check_refuses_without_source()
    for name in run.WORKLOAD_NAMES:
        check_workload(name)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
