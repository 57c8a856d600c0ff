"""Layered benchmark for the ocp2d CLI.

    python3 perfbench/run.py --workload edge-law|mgf|sampling
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from ./src.  For
--seconds the benchmark runs passes of the workload's CLI commands (see
workloads.py), each pass in a fresh interpreter that imports ocp2d.cli
and calls ocp2d.cli.run(argv) per command.  BLAS/OpenMP pools are pinned
to one thread and OCP_THREADS is unset, so the CLI uses its default
thread count.  After each pass, outside the timed region, checks.py
compares the CSV files it wrote with independent oracles.

--trace 0 prints the end-to-end metrics, medians over passes:
  wall_s       time of the pass's commands after import
  setup_s      time to import ocp2d.cli in a fresh interpreter
  peak_rss_mb  peak resident memory of the pass process
wall_s and setup_s are in seconds at reference speed (child.py): the raw
times swing by up to 2x with the load on a shared machine, so each timed
region is scaled by how fast fixed kernels ran on either side of it.  The
pass lines show the raw times too.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the median traced pass (spans.py), in raw seconds, with
trace.overhead_s the traced minus the untraced median wall_s.

The last line of stdout is one JSON object: correct, attempted and failed
count the oracle checks (error_rate = failed / attempted), and metrics
holds the values with their units from BENCHMARK.json.  Spans of the
reported traced pass go to .perfbench_out/<workload>.spans.csv.gz.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
from workloads import DEFAULT_SEED, SCALES, pass_commands

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
PASS_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0   # no new pass starts once a pass would overrun this
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("OCP_THREADS", None)
    for name in PINNED:
        env[name] = "1"
    return env


def provenance(root: str, workload: str, seed: int, scale: str) -> dict:
    import numpy
    import scipy

    def git(*argv: str) -> str | None:
        try:
            r = subprocess.run(["git", *argv], cwd=root, capture_output=True,
                               text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    digest = hashlib.sha256()
    src = os.path.join(root, "src", "ocp2d")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", "src") if sha else None
    return {
        "workload": workload, "seed": seed, "scale": scale,
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    }


def import_times(stderr: str) -> dict[str, float]:
    """Self import time of numpy and scipy modules from -X importtime,
    counting only imports made before ocp2d.cli finished importing."""
    total = {"numpy": 0.0, "scipy": 0.0}
    for line in stderr.splitlines():
        if line.startswith("perfbench: imported"):
            break
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = float(fields[0])
        except ValueError:
            continue  # the header line
        top = fields[2].strip().split(".")[0]
        if top in total:
            total[top] += self_us * 1e-6
    return total


def spawn(root: str, cmds, pass_dir: str, traced: bool) -> tuple[dict | None, str]:
    """Run the commands in a fresh interpreter; (result, stderr) with
    result None when the pass process failed."""
    job = {
        "src": os.path.join(root, "src"),
        "commands": [[c.name, c.argv] for c in cmds],
        "trace": traced,
        "result": os.path.join(pass_dir, "result.json"),
        "spans": os.path.join(pass_dir, "spans.csv.gz"),
    }
    job_path = os.path.join(pass_dir, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    argv = [sys.executable, *(["-X", "importtime"] if traced else []),
            os.path.join(HERE, "child.py"), job_path]
    try:
        proc = subprocess.run(argv, cwd=root, env=child_env(), capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {PASS_TIMEOUT_S:.0f} s"
    if proc.returncode != 0 or not os.path.exists(job["result"]):
        return None, proc.stderr
    with open(job["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["spans_path"] = job["spans"]
    return result, proc.stderr


def run_pass(root: str, workload: str, scale: str, seed: int, index: int,
             rundir: str, traced: bool, refs: dict) -> dict:
    """Run pass `index` in a fresh interpreter and check its outputs."""
    pass_dir = os.path.join(rundir, f"pass{index}")
    os.makedirs(pass_dir)
    cmds = pass_commands(workload, scale, seed, index, pass_dir)
    result, stderr = spawn(root, cmds, pass_dir, traced)
    if result is None:
        last = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"index": index, "traced": traced, "ok": False,
                "checks": [("pass:completed", False, last[0])]}
    results = [(f"{name}:exit", rc == 0, f"exit code {rc}")
               for name, rc, _ in result["exits"]]
    results += checks.check_pass(cmds, refs)
    for cmd in cmds:  # the outputs are checked; keep the run directory small
        if os.path.exists(cmd.out):
            os.remove(cmd.out)
    result.update(index=index, traced=traced, ok=True, checks=results)
    if traced:
        result["imports"] = import_times(stderr)
    return result


def median_pass(passes: list[dict]) -> dict:
    ordered = sorted(passes, key=lambda p: p["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES["full"]))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="workload sizes; tiny is for the self-test")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ocp2d", "cli.py")):
        print("error: run from the repository root; src/ocp2d/cli.py not found",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in names}

    info = provenance(root, args.workload, args.seed, args.scale)
    print("provenance " + json.dumps(info, sort_keys=True), flush=True)
    refs = checks.load_refs()
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, OUT_DIR))
    passes: list[dict] = []
    try:
        start = time.perf_counter()
        min_passes = 2 if args.trace else 3
        while True:
            t0 = time.perf_counter()
            traced = bool(args.trace) and len(passes) % 2 == 1
            p = run_pass(root, args.workload, args.scale, args.seed, len(passes),
                         rundir, traced, refs)
            passes.append(p)
            failed = [c for c in p["checks"] if not c[1]]
            print(f"pass {p['index']}{' traced' if traced else ''}: "
                  + (f"wall {p['wall_ref_s']:.3f} s (raw {p['wall_s']:.3f}), "
                     f"setup {p['setup_ref_s']:.3f} s (raw {p['setup_s']:.3f}), "
                     f"slowness {min(p['slowness']):.2f}-{max(p['slowness']):.2f}, "
                     if p["ok"] else "did not complete, ")
                  + f"{len(p['checks']) - len(failed)}/{len(p['checks'])} checks ok",
                  flush=True)
            for name, _, detail in failed:
                print(f"  FAILED {name}: {detail}", flush=True)
            elapsed = time.perf_counter() - start
            last = time.perf_counter() - t0
            if len(passes) >= min_passes and elapsed >= args.seconds:
                break
            if elapsed + last > RUN_BUDGET_S:
                break

        all_checks = [c for p in passes for c in p["checks"]]
        attempted = len(all_checks)
        failed_n = sum(1 for c in all_checks if not c[1])
        done = [p for p in passes if p["ok"]]
        plain = [p for p in done if not p["traced"]]
        traced_passes = [p for p in done if p["traced"]]
        if not plain or (args.trace and not traced_passes):
            print("error: no pass completed", file=sys.stderr)
            return 1

        if args.trace:
            chosen = median_pass(traced_passes)
            values = dict(chosen["layers"])
            values["trace.wall_s"] = chosen["wall_s"]
            values["trace.overhead_s"] = (
                statistics.median(p["wall_ref_s"] for p in traced_passes)
                - statistics.median(p["wall_ref_s"] for p in plain))
            for lib in ("numpy", "scipy"):
                values[f"setup.{lib}_s"] = statistics.median(
                    p["imports"][lib] for p in traced_passes)
            kept = os.path.join(root, OUT_DIR, f"{args.workload}.spans.csv.gz")
            shutil.move(chosen["spans_path"], kept)
            print(f"layer self times sum to {chosen['self_sum_s']:.4f} s "
                  f"of a traced pass wall {chosen['wall_s']:.4f} s; "
                  f"spans in {os.path.relpath(kept, root)}")
        else:
            values = {
                "wall_s": statistics.median(p["wall_ref_s"] for p in plain),
                "setup_s": statistics.median(p["setup_ref_s"] for p in plain),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            }
        missing = sorted(set(units) - set(values))
        if missing:
            print(f"error: metrics not measured: {missing}", file=sys.stderr)
            return 1
        for name in units:
            print(f"{name} = {values[name]:.6g} {units[name]}")
        print(f"error_rate = {failed_n}/{attempted} = {failed_n / attempted:.4g} "
              f"over {len(passes)} passes")
        result = {
            "correct": failed_n == 0,
            "attempted": attempted,
            "failed": failed_n,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units},
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
