"""Determinism checks for the benchmark itself.

    python3 bench/check_determinism.py                # every workload
    python3 bench/check_determinism.py --workload closed-form --seed 7

For each workload:
1. the same seed generates byte-identical inputs twice, and the next seed
   generates different ones;
2. two traced runs with the same seed, each in a fresh process, report
   the same input digest, the same attempted/failed/correct, and identical
   deterministic counters: layer calls and failures, work counts, verdict
   counts and every `fail.<reason>`.
It also checks that BENCHMARK.json declares exactly the metrics, units
and workloads that run.py prints.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, PER_LAYER, ROOT
from workloads import WORKLOADS, generate

# Per-layer metrics measured in time, which may differ between runs.
TIMED = ("self_share", "self_s", "trace.overhead")


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=str(ROOT), check=True, capture_output=True, text=True).stdout
    report, result = out.rstrip("\n").rsplit("\n", 1)
    return json.loads(report), json.loads(result)


def counters(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if not any(t in k for t in TIMED)}


def check_workload(workload: str, seed: int, units: dict) -> list[str]:
    problems = []
    if generate(workload, seed) != generate(workload, seed):
        problems.append("same seed, different inputs")
    if generate(workload, seed) == generate(workload, seed + 1):
        problems.append("different seeds, same inputs")
    (rep1, res1), (rep2, res2) = traced_run(workload, seed), traced_run(workload, seed)
    if rep1["inputs_sha256"] != rep2["inputs_sha256"]:
        problems.append("input digest differs between processes")
    for key in ("correct", "attempted", "failed"):
        if res1[key] != res2[key]:
            problems.append(f"{key}: {res1[key]} vs {res2[key]}")
    problems += [f"{k}: unit {v['unit']}, declared {units.get(k)}"
                 for k, v in res1["metrics"].items() if v["unit"] != units.get(k)]
    c1, c2 = counters(res1), counters(res2)
    problems += [f"{k}: {c1[k]} vs {c2.get(k)}" for k in c1 if c1[k] != c2.get(k)]
    return problems


def check_declared(spec: dict) -> list[str]:
    problems = []
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [m["name"] for m in spec[key]]
        if declared != list(names):
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(declared) ^ set(names))}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    return problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failed = False
    for problem in check_declared(spec):
        print(f"FAIL {problem}")
        failed = True
    for workload in args.workload or list(WORKLOADS):
        problems = check_workload(workload, args.seed, units)
        for problem in problems:
            print(f"FAIL {workload}: {problem}")
        if not problems:
            print(f"ok   {workload}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
