"""Workload definitions: the CLI commands one pass runs, made from a seed.

A pass is the sequence of ``ocp2d`` commands a user would type to get one
workload's tables and checks.  Every pass gets its own inputs, drawn from
(workload, seed, pass index): the sampler seeds change, and the grids of
the exact-route ``verify`` commands are jittered inside fixed ranges at
fixed point counts, so the work per pass stays the same while the values
differ.  The ``fig`` commands have built-in grids and run at fixed n, so
their outputs can be checked against committed references.

Why these workloads (BENCHMARK.json says it in one line each):
* edge-law spends its time in scalar incomplete-gamma calls (specfun under
  exact.edge): the left rows take the series branch, the right rows the
  continued fraction plus edge_pdf_log's second pass, and the small-n
  ladder exposes per-call overhead.  It never calls the MGF or samplers.
* mgf spends it in mgf_log's per-factor quadrature: fig 3 has many tilts
  at small n, verify mgf few tilts at larger n, which splits per-point from
  per-factor cost.  It is the only workload that calls equilibrium.
* sampling spends it in the Metropolis loop and the vectorised gamma
  draws, and writes 10^4-row CSVs.  It never calls specfun or exact.

Sizes come in two scales: ``full`` is what the benchmark measures and
``tiny`` is what the self-test runs.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 20231

SCALES = {
    "full": {
        "edge-law": {"fig_n": 250, "big_n": 2000, "ladder": (50, 100),
                     "left_points": 25, "right_points": 17},
        "mgf": {"fig3_n": 12, "sizes": (40, 80, 160), "points": 2},
        "sampling": {"mcmc_n": 32, "beta": 4.0, "sweeps": 1200,
                     "burnin": 200, "thinning": 1,
                     "gumbel_n": 2000, "draws": 10_000,
                     "kostlan_n": 100, "count": 10_000},
    },
    "tiny": {
        "edge-law": {"fig_n": 100, "big_n": 250, "ladder": (50, 100),
                     "left_points": 5, "right_points": 5},
        "mgf": {"fig3_n": 4, "sizes": (10, 20, 40), "points": 2},
        "sampling": {"mcmc_n": 32, "beta": 4.0, "sweeps": 600,
                     "burnin": 100, "thinning": 2,
                     "gumbel_n": 200, "draws": 2000,
                     "kostlan_n": 30, "count": 2000},
    },
}

# Jitter ranges (lo range, hi range) for the verify grids.  They stay inside
# the regions where the criteria 03/04 gates and the n-ladder hold.
LEFT_RANGE = ((0.30, 0.35), (0.85, 0.90))
RIGHT_RANGE = ((1.20, 1.25), (1.95, 2.00))
MGF_RANGE = ((0.10, 0.20), (1.40, 1.50))

# Command names as they appear in the cli.cmd.<name>_s metrics.
COMMANDS = ("fig1", "fig2", "verify_left_tail", "verify_right_tail", "fig3",
            "verify_mgf", "sample_mcmc", "verify_gumbel", "sample_kostlan")


@dataclass(frozen=True)
class Command:
    name: str          # one of COMMANDS
    argv: list[str]    # arguments to ocp2d.cli.run
    out: str           # CSV path the command writes
    params: dict       # what the checks need to know about the inputs


def _grid(rng: random.Random, ranges, points: int) -> tuple[float, float, int]:
    (lo_a, lo_b), (hi_a, hi_b) = ranges
    lo = round(rng.uniform(lo_a, lo_b), 4)
    hi = round(rng.uniform(hi_a, hi_b), 4)
    return lo, hi, points


def _grid_text(grid: tuple[float, float, int]) -> str:
    return f"{grid[0]:.4f}:{grid[1]:.4f}:{grid[2]}"


def pass_commands(workload: str, scale: str, seed: int, index: int,
                  outdir: str) -> list[Command]:
    """The commands of pass ``index`` of ``workload``, writing into outdir."""
    size = SCALES[scale][workload]
    rng = random.Random(f"{workload}:{seed}:{index}")

    def out(stem: str) -> str:
        return os.path.join(outdir, stem + ".csv")

    cmds: list[Command] = []
    if workload == "edge-law":
        n = size["fig_n"]
        for fig in (1, 2):
            cmds.append(Command(f"fig{fig}", ["fig", str(fig), "--n", str(n),
                                              "--out", out(f"fig{fig}")],
                                out(f"fig{fig}"), {"n": n}))
        left = _grid(rng, LEFT_RANGE, size["left_points"])
        right = _grid(rng, RIGHT_RANGE, size["right_points"])
        # Large n first, then the small-n ladder on the same grids.
        for m in (size["big_n"], *size["ladder"]):
            for side, grid in (("left", left), ("right", right)):
                stem = f"{side}_{m}"
                cmds.append(Command(
                    f"verify_{side}_tail",
                    ["verify", f"{side}-tail", "--n", str(m),
                     "--grid", _grid_text(grid), "--out", out(stem)],
                    out(stem), {"n": m, "side": side, "grid": grid}))
    elif workload == "mgf":
        n = size["fig3_n"]
        cmds.append(Command("fig3", ["fig", "3", "--n", str(n),
                                     "--out", out("fig3")],
                            out("fig3"), {"n": n}))
        grid = _grid(rng, MGF_RANGE, size["points"])
        sizes = ",".join(str(m) for m in size["sizes"])
        cmds.append(Command(
            "verify_mgf",
            ["verify", "mgf", "--n", sizes, "--p", "2",
             "--grid", _grid_text(grid), "--out", out("verify_mgf")],
            out("verify_mgf"), {"sizes": size["sizes"], "grid": grid}))
    elif workload == "sampling":
        seeds = [rng.randrange(1, 2**31) for _ in range(3)]
        mc = {k: size[k] for k in ("sweeps", "burnin", "thinning", "beta")}
        cmds.append(Command(
            "sample_mcmc",
            ["sample", "mcmc", "--n", str(size["mcmc_n"]),
             "--beta", str(mc["beta"]), "--p", "2",
             "--sweeps", str(mc["sweeps"]), "--burnin", str(mc["burnin"]),
             "--thinning", str(mc["thinning"]), "--seed", str(seeds[0]),
             "--out", out("mcmc")],
            out("mcmc"), {"n": size["mcmc_n"], **mc}))
        cmds.append(Command(
            "verify_gumbel",
            ["verify", "gumbel", "--n", str(size["gumbel_n"]),
             "--draws", str(size["draws"]), "--seed", str(seeds[1]),
             "--out", out("gumbel")],
            out("gumbel"), {"n": size["gumbel_n"], "draws": size["draws"]}))
        cmds.append(Command(
            "sample_kostlan",
            ["sample", "kostlan", "--n", str(size["kostlan_n"]), "--p", "2",
             "--count", str(size["count"]), "--seed", str(seeds[2]),
             "--out", out("kostlan")],
            out("kostlan"), {"n": size["kostlan_n"], "count": size["count"]}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cmds
