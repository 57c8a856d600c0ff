"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py [--runs 10] [--workloads edge-law,mgf]
                                [--baseline perfbench/baseline.json]

Runs perfbench/run.py once per seed (1..runs) on each workload, one run at
a time, and prints for every end-to-end metric the median and the spread:
the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json.  With --baseline it also makes one
traced run per workload and writes the medians, the traced per-layer
values and the provenance to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    prov = json.loads(lines[0].split(" ", 1)[1])
    return prov, json.loads(lines[-1])


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--baseline", help="write medians and a traced run here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            prov, result = run_once(workload, seed, spec["run_seconds"], 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} checks failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n} {v[-1]:.4g}" for n, v in values.items()), flush=True)
        entry = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            entry[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {workload} {name}: median {med:.4g}, spread {spread:.3f} "
                  f"(bound {bounds[name]}, {spread / bounds[name]:.2f} of it)")
        baseline["workloads"][workload] = {"end_to_end": entry}
        if args.baseline:
            prov, traced = run_once(workload, 20231, spec["run_seconds"], 1)
            baseline["workloads"][workload]["per_layer_seed_20231"] = {
                name: m["value"] for name, m in traced["metrics"].items()}
            baseline["provenance"] = {k: v for k, v in prov.items()
                                      if k not in ("workload", "seed")}
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
