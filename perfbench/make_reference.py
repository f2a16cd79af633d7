"""Write the stored reference outputs the benchmark checks every op against.

Run from the repository root, on a commit whose outputs are trusted:

    python3 perfbench/make_reference.py --workload noise_mc

It runs every op key of the workload's pool once and records the numbers,
row counts and (cohort_policy) oracle values under ``perfbench/reference/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    run.cap_blas_threads()
    sys.path.insert(0, run.SRC)
    import workloads

    w = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(run.WORKDIR, f"reference-{w.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    state = w.setup(0, workdir)
    entries = {}
    for key in sorted(w.keys(state, 0), key=int):
        raw = w.op(state, key)
        oracle = w.oracle(state, key) if hasattr(w, "oracle") else None
        outcome = w.collect(state, key, raw, None, corrupt=False)
        if outcome.rc != 0 or outcome.error_cells or not all(map(math.isfinite, outcome.values)):
            raise RuntimeError(f"{w.name} op {key} did not succeed: {outcome}")
        entries[key] = {"rows": outcome.rows, "values": outcome.values}
        if oracle is not None:
            entries[key]["oracle"] = oracle
    os.makedirs(os.path.dirname(workloads.reference_path(w.name)), exist_ok=True)
    with open(workloads.reference_path(w.name), "w", encoding="utf-8") as fh:
        json.dump({"config": w.config(), "entries": entries}, fh, separators=(",", ":"))
        fh.write("\n")
    os.rmdir(workdir)
    print(f"wrote {len(entries)} entries to {workloads.reference_path(w.name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
