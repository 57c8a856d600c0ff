"""Oracle checks on the CSV files a pass wrote.

Nothing here imports ocp2d.  Deterministic outputs are compared with the
committed mpmath references (refs.json), closed forms and the tolerances of
tests/test_acceptance.py.  Sampler outputs get statistical tests whose
false-alarm rate is ALPHA per test under the stated model, whatever the
seed; sampler CSV bytes are never compared.

Each check is one (name, ok, detail) triple; error_rate is the share of
checks that fail.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy.special import gammainc
from scipy.stats import chi2

from stats import ess

HERE = os.path.dirname(os.path.abspath(__file__))

ALPHA = 1e-5            # false-alarm rate of each statistical check
Z = 4.417               # two-sided normal quantile for ALPHA
# Finite-n allowance for the beta = 4 variance against the leading-order
# cumulant; at beta = 2 the exact finite-n factor is 1 + 1/n (3% at n = 32),
# and long beta = 4 chains at n = 32 sit within 1.5% of the leading order.
VARIANCE_MODEL_ALLOWANCE = 0.05
# Accuracy of the exact-law Kolmogorov distance in refs.json (grid step).
GUMBEL_REF_ALLOWANCE = 1e-3


def load_refs() -> dict:
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path} is empty")
    return rows[0], rows[1:]


def _column(header: list[str], rows: list[list[str]], name: str) -> np.ndarray:
    j = header.index(name)
    return np.array([float(r[j]) for r in rows])


def dkw_epsilon(draws: int) -> float:
    """Band that the empirical CDF of `draws` iid values leaves with
    probability at most ALPHA (Dvoretzky-Kiefer-Wolfowitz, Massart)."""
    return math.sqrt(math.log(2.0 / ALPHA) / (2.0 * draws))


def _rel_ok(got: float, want: float, rel: float) -> bool:
    return bool(abs(got - want) <= rel * max(abs(want), 1e-300))


def _residual_identity(header, rows) -> bool:
    fin = _column(header, rows, "finite_n_value")
    pred = _column(header, rows, "prediction")
    res = _column(header, rows, "residual")
    return bool(np.all(fin - pred == res))


def _match(xs: np.ndarray, x: float) -> int:
    hits = np.flatnonzero(xs == x)
    if hits.size != 1:
        raise ValueError(f"abscissa {x!r} not found exactly once")
    return int(hits[0])


# --- edge law -----------------------------------------------------------------


def _check_fig1(cmd, refs) -> list:
    header, rows = read_csv(cmd.out)
    out = [("fig1:rows", len(rows) == 130, f"{len(rows)} rows")]
    side = [r[0] for r in rows]
    x = _column(header, rows, "x")
    fin = _column(header, rows, "finite_n_value")
    res = _column(header, rows, "residual")
    left = np.array([s == "left" for s in side])
    out.append(("fig1:residual_identity", _residual_identity(header, rows), ""))
    ref = refs["edge"][str(cmd.params["n"])]
    for key, mask, rel in (("fig1_left", left, 1e-11), ("fig1_right", ~left, 1e-10)):
        worst = 0.0
        ok = True
        for xr, want in ref[key]:
            got = fin[mask][_match(x[mask], xr)]
            worst = max(worst, abs(got - want) / abs(want))
            ok = ok and _rel_ok(got, want, rel)
        out.append((f"{key}:mpmath", ok, f"worst rel err {worst:.2e} (tol {rel:g})"))
    gate_l = left & (x >= 0.3) & (x <= 0.9)
    gate_r = ~left & (x >= 1.2) & (x <= 2.0)
    out.append(("fig1:left_gate", bool(np.all(np.abs(res[gate_l]) <= 1e-3)),
                f"max |res| {np.abs(res[gate_l]).max():.2e} (tol 1e-3)"))
    out.append(("fig1:right_gate", bool(np.all(np.abs(res[gate_r]) <= 0.05)),
                f"max |res| {np.abs(res[gate_r]).max():.2e} (tol 0.05)"))
    return out


def _check_fig2(cmd, refs) -> list:
    header, rows = read_csv(cmd.out)
    out = [("fig2:rows", len(rows) == 90, f"{len(rows)} rows")]
    x = _column(header, rows, "x")
    gap = _column(header, rows, "scaled_gap")
    ok, worst = True, 0.0
    for xr, want in refs["edge"][str(cmd.params["n"])]["fig2"]:
        got = gap[_match(x, xr)]
        worst = max(worst, abs(got - want) / abs(want))
        ok = ok and _rel_ok(got, want, 1e-9)
    out.append(("fig2:mpmath", ok, f"worst rel err {worst:.2e} (tol 1e-9)"))
    return out


def _check_tail(cmd, refs) -> list:
    header, rows = read_csv(cmd.out)
    p = cmd.params
    name = f"{cmd.name}_{p['n']}"
    out = [(f"{name}:rows", len(rows) == p["grid"][2], f"{len(rows)} rows"),
           (f"{name}:residual_identity", _residual_identity(header, rows), "")]
    if p["n"] >= 250:  # the criteria 03/04 gates are stated from n = 250 on
        tol = 1e-3 if p["side"] == "left" else 0.05
        res = np.abs(_column(header, rows, "residual"))
        out.append((f"{name}:gate", bool(np.all(res <= tol)),
                    f"max |res| {res.max():.2e} (tol {tol:g})"))
    return out


def _check_ladder(cmds) -> list:
    """Criteria 03/04: at every grid point |residual| falls as n grows."""
    out = []
    for side in ("left", "right"):
        ladder = sorted((c for c in cmds if c.params.get("side") == side),
                        key=lambda c: c.params["n"])
        res = []
        for c in ladder:
            header, rows = read_csv(c.out)
            res.append(np.abs(_column(header, rows, "residual")))
        ok = all(a.shape == b.shape and bool(np.all(a > b))
                 for a, b in zip(res, res[1:]))
        sizes = [c.params["n"] for c in ladder]
        out.append((f"{side}_ladder:decreasing", ok, f"n = {sizes}"))
    return out


# --- tilted MGF ---------------------------------------------------------------


def _check_fig3(cmd, refs) -> list:
    header, rows = read_csv(cmd.out)
    out = [("fig3:rows", len(rows) == 65, f"{len(rows)} rows"),
           ("fig3:residual_identity", _residual_identity(header, rows), "")]
    s = _column(header, rows, "s")
    fin = _column(header, rows, "finite_n_value")
    ok, worst = True, 0.0
    for sr, want in refs["mgf"][str(cmd.params["n"])]:
        got = fin[_match(s, sr)]
        worst = max(worst, abs(got - want) / abs(want))
        ok = ok and _rel_ok(got, want, 1e-9)
    out.append(("fig3:mpmath", ok, f"worst rel err {worst:.2e} (tol 1e-9)"))
    out.append(("fig3:untilted_zero", bool(fin[_match(s, 0.0)] == 0.0), ""))
    return out


def _check_verify_mgf(cmd, refs) -> list:
    """p = 2 closed form: the 1/n coefficient is ln(1+2s)/4 (criterion 02)."""
    header, rows = read_csv(cmd.out)
    s = _column(header, rows, "s")
    want = 0.25 * np.log1p(2.0 * s)
    ext = _column(header, rows, "extracted_coefficient")
    pred = _column(header, rows, "predicted_coefficient")
    res = _column(header, rows, "residual")
    flag = _column(header, rows, "untested_beta_flag")
    return [
        ("verify_mgf:rows", len(rows) == cmd.params["grid"][2], f"{len(rows)} rows"),
        ("verify_mgf:extracted_closed_form",
         bool(np.all(np.abs(ext - want) <= 1e-10)),
         f"max abs err {np.abs(ext - want).max():.2e} (tol 1e-10)"),
        ("verify_mgf:predicted_closed_form",
         bool(np.all(np.abs(pred - want) <= 1e-10)),
         f"max abs err {np.abs(pred - want).max():.2e} (tol 1e-10)"),
        ("verify_mgf:residual_identity", bool(np.all(ext - pred == res)), ""),
        ("verify_mgf:beta_flag", bool(np.all(flag == 0)), ""),
    ]


# --- samplers -----------------------------------------------------------------


def _check_mcmc(cmd, refs) -> list:
    """beta variance of the p = 2 moment vs the leading cumulant
    p / (2 beta n^2).  For near-Gaussian draws the sample variance over the
    target is chi-square with ESS - 1 degrees of freedom over ESS - 1; the
    band holds that ratio with probability 1 - ALPHA, widened by the
    finite-n allowance."""
    header, rows = read_csv(cmd.out)
    p = cmd.params
    values = _column(header, rows, "value")
    want_rows = (p["sweeps"] - p["burnin"]) // p["thinning"]
    out = [("mcmc:rows", len(rows) == want_rows, f"{len(rows)} rows"),
           ("mcmc:finite_positive",
            bool(np.all(np.isfinite(values)) and np.all(values > 0)), "")]
    target = 2.0 / (2.0 * p["beta"] * p["n"] ** 2)
    ratio = float(values.var(ddof=1)) / target
    dof = max(ess(values) - 1.0, 1.0)
    lo = chi2.ppf(ALPHA / 2, dof) / dof * (1.0 - VARIANCE_MODEL_ALLOWANCE)
    hi = chi2.ppf(1 - ALPHA / 2, dof) / dof * (1.0 + VARIANCE_MODEL_ALLOWANCE)
    out.append(("mcmc:variance", bool(lo <= ratio <= hi),
                f"var / target {ratio:.3f} (band {lo:.3f}..{hi:.3f}, "
                f"ESS {dof + 1:.0f})"))
    return out


def _check_gumbel(cmd, refs) -> list:
    """The sample KS distance to the Gumbel limit lies within the DKW band
    of the exact law's distance to it."""
    header, rows = read_csv(cmd.out)
    p = cmd.params
    out = [("gumbel:rows", len(rows) == 1, f"{len(rows)} rows")]
    if len(rows) != 1:
        return out
    row = dict(zip(header, rows[0]))
    out.append(("gumbel:echo", int(row["n"]) == p["n"]
                and int(row["draws"]) == p["draws"]
                and int(row["low_n"]) == int(p["n"] < 1000), ""))
    want = refs["gumbel"][str(p["n"])]
    ks = float(row["ks_distance"])
    tol = dkw_epsilon(p["draws"]) + GUMBEL_REF_ALLOWANCE
    out.append(("gumbel:ks_exact_law", abs(ks - want) <= tol,
                f"KS {ks:.4f} vs exact-law {want:.4f} (tol {tol:.4f})"))
    return out


def _check_kostlan(cmd, refs) -> list:
    """At p = 2 the statistic is exactly Gamma(n(n+1)/2) / n^2."""
    header, rows = read_csv(cmd.out)
    p = cmd.params
    n, count = p["n"], p["count"]
    values = _column(header, rows, "value")
    out = [("kostlan:rows", len(rows) == count, f"{len(rows)} rows")]
    if len(rows) != count:
        return out
    shape = n * (n + 1) / 2.0
    mean, sd = shape / n**2, math.sqrt(shape) / n**2
    z = (values.mean() - mean) / (sd / math.sqrt(count))
    out.append(("kostlan:mean", abs(z) <= Z, f"z {z:+.2f} (tol {Z})"))
    v = np.sort(values)
    cdf = gammainc(shape, v * n**2)
    grid = np.arange(1, count + 1) / count
    ks = float(np.maximum(np.abs(grid - cdf), np.abs(grid - 1.0 / count - cdf)).max())
    eps = dkw_epsilon(count)
    out.append(("kostlan:ks_exact_law", ks <= eps, f"KS {ks:.4f} (tol {eps:.4f})"))
    return out


_CHECKS = {
    "fig1": _check_fig1,
    "fig2": _check_fig2,
    "verify_left_tail": _check_tail,
    "verify_right_tail": _check_tail,
    "fig3": _check_fig3,
    "verify_mgf": _check_verify_mgf,
    "sample_mcmc": _check_mcmc,
    "verify_gumbel": _check_gumbel,
    "sample_kostlan": _check_kostlan,
}


def check_pass(cmds, refs) -> list[tuple[str, bool, str]]:
    """All checks of one pass.  A file that cannot be read or parsed fails
    the command's checks instead of stopping the benchmark."""
    results = []
    for cmd in cmds:
        try:
            results += _CHECKS[cmd.name](cmd, refs)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            results.append((f"{cmd.name}:readable", False, f"{type(exc).__name__}: {exc}"))
    if any(c.params.get("side") for c in cmds):
        try:
            results += _check_ladder(cmds)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            results.append(("ladder:readable", False, f"{type(exc).__name__}: {exc}"))
    return [(name, bool(ok), detail) for name, ok, detail in results]
