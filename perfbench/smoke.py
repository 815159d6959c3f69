"""Smoke check of every workload at a tiny size, untraced and traced.

    python3 perfbench/smoke.py

It checks that each run is correct and reports exactly the metrics that
BENCHMARK.json declares, with their units.  It sets no timing bounds.
Exits 0 when every check passes.
"""
from __future__ import annotations

import sys

import run


def main() -> int:
    import_s = run.prepare()
    import workloads

    problems = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.run(name, seed=1, seconds=0, trace=trace,
                             import_s=import_s, sizes=workloads.TINY)
            declared = {m["name"]: m["unit"] for m in run.declared_metrics(trace)}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{name} trace={int(trace)}"
            if got != declared:
                problems.append(f"{label}: metrics differ from BENCHMARK.json")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            if not all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()):
                problems.append(f"{label}: non-numeric metric value")
            print(f"smoke {label}: {result['attempted']} operations, "
                  f"{result['failed']} failed, {len(got)} metrics")
    for problem in problems:
        print("smoke: FAILED " + problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
