"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root.  Checks that:
* every end-to-end and per-layer metric of BENCHMARK.json prints, with its
  unit, on every workload, and that the layers a workload bypasses read 0;
* the work counts repeat exactly across two traced runs with one seed, and
  the layer self times sum to the traced wall time;
* a deliberately perturbed output cell makes a check fail (error_rate > 0);
* without the program's sources the benchmark exits nonzero and prints no
  result.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile

import checks
import run
from workloads import SCALES, pass_commands

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 11

# Metrics that must read 0 on a workload that bypasses the layer.
BYPASSED = {
    "edge-law": ("exact.mgf.calls", "sampling.mcmc.moves"),
    "mgf": ("specfun.calls", "exact.edge.calls", "sampling.mcmc.moves"),
    "sampling": ("specfun.calls", "exact.edge.calls", "exact.mgf.calls"),
}

# (file stem, row index, column, change) that must make a check fail.
PERTURB = {
    "edge-law": ("fig1", 0, "finite_n_value", lambda v: v * (1 + 1e-9)),
    "mgf": ("fig3", 28, "finite_n_value", lambda v: v * (1 + 1e-8)),
    "sampling": ("gumbel", 0, "ks_distance", lambda v: v + 0.2),
}

failures: list[str] = []


def report(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, cwd: str = ".") -> tuple[int, list[str]]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
            "--scale", "tiny"]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_result(lines: list[str], spec: list[dict], what: str) -> dict:
    result = json.loads(lines[-1])
    report(set(result) == {"correct", "attempted", "failed", "metrics"}
           and result["correct"] and result["failed"] == 0
           and result["attempted"] >= 1, f"{what}: result line, all checks pass")
    units = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    report(got == units, f"{what}: every metric with its unit")
    printed = all(any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                      for line in lines) for name, unit in units.items())
    report(printed, f"{what}: every metric printed by name with its unit")
    return {k: v["value"] for k, v in result["metrics"].items()}


def perturbation(workload: str, refs: dict) -> None:
    root = os.getcwd()
    os.makedirs(os.path.join(root, run.OUT_DIR), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(root, run.OUT_DIR))
    try:
        cmds = pass_commands(workload, "tiny", SEED, 0, tmp)
        result, stderr = run.spawn(root, cmds, tmp, traced=False)
        report(result is not None, f"{workload}: one pass runs")
        if result is None:
            print(stderr)
            return
        clean = checks.check_pass(cmds, refs)
        report(all(ok for _, ok, _ in clean), f"{workload}: unperturbed outputs pass")
        stem, row, column, change = PERTURB[workload]
        path = os.path.join(tmp, stem + ".csv")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        j = rows[0].index(column)
        rows[row + 1][j] = "%.17g" % change(float(rows[row + 1][j]))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        failed = [name for name, ok, _ in checks.check_pass(cmds, refs) if not ok]
        report(bool(failed), f"{workload}: perturbed {stem}.csv {column} fails {failed}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def stripped_checkout() -> None:
    root = os.getcwd()
    os.makedirs(os.path.join(root, run.OUT_DIR), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="stripped-", dir=os.path.join(root, run.OUT_DIR))
    try:
        shutil.copy("BENCHMARK.json", tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("mgf", 0, cwd=tmp)
        report(code != 0 and not any(line.startswith("{") for line in lines),
               f"without src/: exit code {code} and no result line")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    refs = checks.load_refs()
    count_names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    self_names = [m["name"] for m in spec["per_layer"]
                  if m["name"].endswith(".self_s")]
    for workload in SCALES["tiny"]:
        code, lines = bench(workload, 0)
        report(code == 0, f"{workload} --trace 0 exits 0")
        if code == 0:
            check_result(lines, spec["end_to_end"], f"{workload} --trace 0")
        traced = []
        for _ in range(2):
            code, lines = bench(workload, 1)
            report(code == 0, f"{workload} --trace 1 exits 0")
            if code == 0:
                traced.append(check_result(lines, spec["per_layer"],
                                           f"{workload} --trace 1"))
        if len(traced) == 2:
            a, b = traced
            diff = [n for n in count_names if a[n] != b[n]]
            report(not diff, f"{workload}: counts repeat across traced runs {diff}")
            zero = [n for n in BYPASSED[workload] if a[n] != 0]
            report(not zero, f"{workload}: bypassed layers read 0 {zero}")
            total = sum(a[n] for n in self_names)
            slack = max(abs(a["trace.overhead_s"]), 0.01 * a["trace.wall_s"])
            report(abs(total - a["trace.wall_s"]) <= slack,
                   f"{workload}: layer self times {total:.4f} s sum to the "
                   f"traced wall {a['trace.wall_s']:.4f} s within {slack:.4f} s")
        perturbation(workload, refs)
    stripped_checkout()
    print(f"{len(failures)} failures" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
