"""Self-test of the benchmark: seeds are harmless and BENCHMARK.json matches.

    python3 bench/selftest.py

Runs the traced benchmark once per seed in ``SEEDS`` on every workload, one process at a
time, and fails (exit 1) unless

* every run is correct, so each seed reproduces every pinned answer and
  every span the workload is meant to exercise recorded a call;
* the seeds agree on which queries failed and on the counts that must not
  depend on the seed (the seed only picks random cycles and query order);
* the metric names and units printed match BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SEEDS = (1, 2)
SECONDS = 1

# Counts that random cycles cannot move.  The lift, solve and ring-multiply
# counts of the products workload follow the cycles' supports, so they are
# left out.
SEED_INDEPENDENT = [
    "zglinalg.compose.calls",
    "intlinalg.smith.calls",
    "intlinalg.smith.max_cells",
    "intlinalg.smith_tx.calls",
    "intlinalg.smith_tx.max_cells",
    "intlinalg.lattice_add.calls",
    "intlinalg.lattice_contains.calls",
    "intlinalg.lll.calls",
    "resolutions.down_matrix.cells",
    "resolutions.syzygy.rank_sum",
    "resolutions.max_entry_bits",
    "resolutions.join.max_rank",
    "tate.classify.calls",
]


def run(workload: str, seed: int, trace: int):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} printed no result "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def statuses(detail) -> dict:
    return {name: sorted(q["status"]) for name, q in detail["queries"].items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        results = [run(workload, seed, 1) for seed in SEEDS]
        for seed, (detail, result) in zip(SEEDS, results):
            if not result["correct"]:
                errors.append(f"{workload} seed {seed}: {detail['problems']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want["1"]:
                errors.append(f"{workload}: per-layer metrics differ from "
                              "BENCHMARK.json")
        (d1, r1), (d2, r2) = results
        if statuses(d1) != statuses(d2):
            errors.append(f"{workload}: seeds disagree on failed queries")
        for name in SEED_INDEPENDENT:
            a, b = (r["metrics"][name]["value"] for r in (r1, r2))
            if a != b:
                errors.append(f"{workload}: {name} is {a} with seed "
                              f"{SEEDS[0]} but {b} with seed {SEEDS[1]}")
        print(f"{workload}: checked seeds {SEEDS}", flush=True)
    _, result = run(spec["workloads"][0]["name"], SEEDS[0], 0)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want["0"]:
        errors.append("end-to-end metrics differ from BENCHMARK.json")
    for e in errors:
        print("FAIL", e)
    print("ok" if not errors else f"{len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
