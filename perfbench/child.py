"""One pass of a workload in a fresh interpreter.

    python3 perfbench/child.py JOB.json

JOB.json names the source tree, the commands (name, argv) and whether to
trace.  The child imports ocp2d.cli from that tree, runs the commands in
sequence through ocp2d.cli.run, and writes a JSON result next to the job:
import and command times, exit codes, peak RSS and, when traced, the
per-layer metrics and a gzip'd span file.

The speed of a shared machine swings by up to 2x, within seconds and for
minutes at a time.  So two fixed kernels, one of pure Python and one of
small numpy calls, are timed before the import (the Python one only),
after it and after every command.  Each timed region is also reported in
seconds at reference speed: its time times the reference kernel time over
the mean kernel time on its two sides (the geometric mean of both kernels
for commands, the Python kernel alone for the import).
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import traceback

REPS = 5
# Kernel times on the quiet machine that recorded baseline.json (Intel Xeon,
# 2 vCPU, Python 3.11, numpy 2.4); they only fix the unit of the *_ref_s times.
PY_REF_S = 0.0063
NP_REF_S = 0.0019


def _python_kernel() -> None:
    acc = 0.0
    for i in range(1, 40001):
        acc += math.log(i) * 0.5 + (i % 7) * 1e-3


def _numpy_kernel() -> None:
    import numpy as np

    x = np.linspace(0.1, 1.0, 32)
    y = x[::-1].copy()
    acc = 0.0
    for _ in range(600):
        acc += float(np.log(np.hypot(x - 0.3, y - 0.2)).sum())


def kernel_time(kernel) -> float:
    """Median of REPS timings of a kernel: the machine's current speed."""
    times = []
    for _ in range(REPS):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    times.sort()
    return times[len(times) // 2]


def slowness() -> float:
    """Current kernel time over reference kernel time (both kernels)."""
    return math.sqrt(kernel_time(_python_kernel) / PY_REF_S
                     * kernel_time(_numpy_kernel) / NP_REF_S)


def peak_rss_mb() -> float:
    """High-water resident memory of this process image.  ru_maxrss is no
    use here: on Linux it keeps the parent's peak across fork and exec."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = job["src"]
    sys.path.insert(0, src)
    before = kernel_time(_python_kernel)
    t0 = time.perf_counter()
    import ocp2d.cli as cli
    setup_s = time.perf_counter() - t0
    # Marks the end of import in `python -X importtime` output.
    print("perfbench: imported", file=sys.stderr, flush=True)
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"ocp2d imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    after = kernel_time(_python_kernel)
    setup_ref_s = setup_s * PY_REF_S / ((before + after) / 2.0)

    recorder = None
    if job["trace"]:
        from spans import Recorder
        recorder = Recorder()
        recorder.install()

    slow = [slowness()]
    exits = []
    for name, argv in job["commands"]:
        span = recorder.begin("cli.run") if recorder else None
        t = time.perf_counter()
        try:
            rc = cli.run(argv)
        except Exception:  # a crash is a failed command, not a dead benchmark
            traceback.print_exc()
            rc = -1
        if span is not None:
            recorder.end(span)
            span.info = {"cmd": name}
        exits.append([name, rc, time.perf_counter() - t])
        slow.append(slowness())

    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "wall_s": sum(t for _, _, t in exits),
        "wall_ref_s": sum(t / ((a + b) / 2.0)
                          for (_, _, t), a, b in zip(exits, slow, slow[1:])),
        "slowness": slow,
        "exits": exits,
        "peak_rss_mb": peak_rss_mb(),
    }
    if recorder is not None:
        recorder.uninstall()
        from spans import layer_metrics
        from workloads import COMMANDS
        layers = layer_metrics(recorder.spans, COMMANDS)
        result["self_sum_s"] = layers.pop("trace.self_sum_s")
        result["layers"] = layers
        recorder.write(job["spans"], min(s.start for s in recorder.spans))
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
