"""Compute the committed reference values in refs.json.

Run once from the repository root:  python3 perfbench/oracle.py

Nothing here imports ocp2d: every value comes from an independent route.

* fig 1 / fig 2 rows: mpmath at 40 digits for the product of regularized
  incomplete gamma factors (edge CDF), its x-derivative (edge pdf) and the
  closed-form left rate.
* fig 3 rows: mpmath quadrature of each of the n tilted gamma factors.
* verify gumbel: the Kolmogorov distance between the exact edge law and the
  Gumbel limit under the classical centring and scale, from
  scipy.special.gammainc on a fine grid.

The grids reproduce the ones built into ``ocp2d fig`` (numpy.linspace over
the same endpoints), so rows can be matched by exact abscissa.
"""

from __future__ import annotations

import json
import math
import os

import mpmath
import numpy as np
from scipy.special import gammainc

from workloads import SCALES

mpmath.mp.dps = 40

HERE = os.path.dirname(os.path.abspath(__file__))

FIG1_LEFT = np.linspace(0.30, 0.99, 70)
FIG1_RIGHT = np.linspace(1.05, 2.5, 60)
FIG2 = np.linspace(0.1, 0.99, 90)
FIG3 = np.linspace(-3.0, 5.0, 65)
PICK_70, PICK_60, PICK_90, PICK_65 = (0, 35, 69), (0, 30, 59), (0, 45, 89), (0, 28, 64)


def mp_edge_cdf_log(n: int, x: float):
    y = mpmath.mpf(n) * mpmath.mpf(x) ** 2
    return mpmath.fsum(mpmath.log(mpmath.gammainc(k, 0, y, regularized=True))
                       for k in range(1, n + 1))


def mp_edge_pdf_log(n: int, x: float):
    x = mpmath.mpf(x)
    y = n * x * x
    hazard = mpmath.fsum(y ** (k - 1) * mpmath.exp(-y) / mpmath.gammainc(k, 0, y)
                         for k in range(1, n + 1))
    return mpmath.log(2 * n * x) + mp_edge_cdf_log(n, x) + mpmath.log(hazard)


def mp_left_rate(x: float):
    x = mpmath.mpf(x)
    return -(4 * mpmath.log(x) + x ** 4 - 4 * x * x + 3) / 8


def mp_mgf_log(n: int, s: float):
    """ln <exp(-2 n^2 s moment_1)> at coupling 2: sum over l of
    ln int_0^inf t^{l-1} exp(-t - c sqrt t) dt / Gamma(l), c = 2 s sqrt n,
    integrated in u = sqrt t with a split at the integrand's mode."""
    c = 2 * mpmath.mpf(s) * mpmath.sqrt(n)
    total = mpmath.mpf(0)
    for ell in range(1, n + 1):
        a = 2 * ell - 1
        mode = (-c + mpmath.sqrt(c * c + 8 * a)) / 4
        f = lambda u: 2 * u ** a * mpmath.exp(-u * u - c * u)  # noqa: E731
        value, err = mpmath.quad(f, [0, mode / 2, mode, 2 * mode + 4, mpmath.inf],
                                 error=True)
        if err > value * mpmath.mpf(10) ** -25:
            raise RuntimeError(f"mpmath quadrature did not converge at l={ell}")
        total += mpmath.log(value) - mpmath.loggamma(ell)
    return total


def gumbel_exact_ks(n: int) -> float:
    g = math.log(n) - 2.0 * math.log(math.log(n)) - math.log(2.0 * math.pi)
    scale, center = math.sqrt(4.0 * n * g), 1.0 + math.sqrt(g / (4.0 * n))
    z = np.linspace(-4.0, 14.0, 36001)
    x = center + z / scale
    y = n * x * x
    k = np.arange(1, n + 1, dtype=float)
    log_f = np.zeros_like(x)
    for start in range(0, x.size, 2000):
        sl = slice(start, start + 2000)
        log_f[sl] = np.log(gammainc(k[None, :], y[sl, None])).sum(axis=1)
    return float(np.abs(np.exp(log_f) - np.exp(-np.exp(-z))).max())


def main() -> None:
    refs = {"edge": {}, "mgf": {}, "gumbel": {}}
    for scale in SCALES.values():
        n = scale["edge-law"]["fig_n"]
        refs["edge"][str(n)] = {
            "fig1_left": [[float(FIG1_LEFT[i]),
                           float(-mp_edge_cdf_log(n, FIG1_LEFT[i]) / (2 * n * n))]
                          for i in PICK_70],
            "fig1_right": [[float(FIG1_RIGHT[i]),
                            float(-mp_edge_pdf_log(n, FIG1_RIGHT[i]) / (2 * n))]
                           for i in PICK_60],
            "fig2": [[float(FIG2[i]),
                      float(n / mpmath.log(n) * (-mp_edge_cdf_log(n, FIG2[i])
                                                 / (2 * n * n)
                                                 - mp_left_rate(FIG2[i])))]
                     for i in PICK_90],
        }
        n = scale["mgf"]["fig3_n"]
        refs["mgf"][str(n)] = [[float(FIG3[i]),
                                float(-mp_mgf_log(n, FIG3[i]) / (2 * n * n))]
                               for i in PICK_65]
        n = scale["sampling"]["gumbel_n"]
        refs["gumbel"][str(n)] = gumbel_exact_ks(n)
    path = os.path.join(HERE, "refs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
