"""Verification pipelines: finite-n formulas and samples vs. asymptotics.

Each pipeline packs its comparison into an ``LdpTable`` (abscissa, finite-n
value, prediction, residual) or a small typed report.  Grid points are
evaluated serially, in grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .edge import (
    gumbel_scaling,
    invn_correction,
    left_rate,
    left_tail_prediction,
    lognn_correction,
    right_rate,
)
from .equilibrium import (
    _entropy_grid,
    energy_excess,
    leading_cumulant,
    transition_order,
)
from .errors import DomainError, check_positive, check_size
from .exact import _mgf_grid, edge_cdf_log, edge_pdf_log
from .sampling import sample_kostlan, sample_mcmc

__all__ = [
    "LdpRow",
    "LdpTable",
    "left_tail_table",
    "right_tail_table",
    "left_tail_mcmc_table",
    "mgf_table",
    "extract_subleading",
    "subleading_coefficient",
    "untested_beta",
    "CumulantRow",
    "CumulantReport",
    "cumulant_check",
    "GumbelReport",
    "gumbel_check",
    "TransitionRow",
    "TransitionReport",
    "transition_scan",
]

_EPS = 2.220446049250313e-16
_MAX_SCAN_ORDER = 6  # one-sided differences drown in roundoff beyond this
_JUMP_RATIO = 0.75   # a gap that halving h shrinks by less is a jump


def _map_ordered(fn: Callable, items: Sequence) -> list:
    """Apply fn to items, in order.

    It exists only as a hook: perfbench/spans.py wraps it by name to trace
    the two tail tables.  Once the tracer wraps those public tables
    instead, it goes, and its one call site, in _edge_table, becomes a list
    comprehension.
    """
    return [fn(item) for item in items]


@dataclass(frozen=True)
class LdpRow:
    abscissa: float
    finite_n_value: float
    prediction: float
    residual: float


@dataclass(frozen=True)
class LdpTable:
    """Rows of (abscissa, finite-n value, prediction, residual).

    The residual column is exactly finite_n_value - prediction (bitwise, so
    it survives a 17-digit CSV round trip), and rows are sorted by
    abscissa.  extra_columns carries pipeline-specific columns, each as
    long as rows.
    """

    abscissa_label: str
    rows: tuple[LdpRow, ...]
    metadata: dict[str, Any] = field(default_factory=dict)
    extra_columns: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            if row.residual != row.finite_n_value - row.prediction:
                raise DomainError(
                    f"residual mismatch at {self.abscissa_label}={row.abscissa}"
                )
        abscissas = [row.abscissa for row in self.rows]
        if abscissas != sorted(abscissas):
            raise DomainError("rows must be sorted by abscissa")
        for name, col in self.extra_columns.items():
            if len(col) != len(self.rows):
                raise DomainError(f"extra column {name!r} has wrong length")

    def columns(self) -> dict[str, tuple[float, ...]]:
        """Every column by name, in CSV order."""
        rows = self.rows
        return {self.abscissa_label: tuple(row.abscissa for row in rows),
                "finite_n_value": tuple(row.finite_n_value for row in rows),
                "prediction": tuple(row.prediction for row in rows),
                "residual": tuple(row.residual for row in rows),
                **self.extra_columns}

    def __len__(self) -> int:
        return len(self.rows)


def _sorted_inside(x_grid: Sequence[float], lo: float, hi: float) -> list[float]:
    """The grid, sorted; DomainError unless it is non-empty and every point
    lies strictly inside (lo, hi), which a NaN does not."""
    xs = sorted(float(x) for x in x_grid)
    if not xs or not all(lo < x < hi for x in xs):
        raise DomainError(f"x grid must lie inside ({lo:g}, {hi:g})")
    return xs


def _table(label: str, xs: Sequence[float], pairs: Sequence[tuple[float, float]],
           metadata: dict[str, Any], **extra: Iterable[float]) -> LdpTable:
    """Rows (x, finite, prediction, finite - prediction), one per x and its
    (finite, prediction) pair; each keyword is one more column."""
    rows = tuple(LdpRow(x, fin, pred, fin - pred) for x, (fin, pred) in zip(xs, pairs))
    return LdpTable(label, rows, metadata, {k: tuple(v) for k, v in extra.items()})


def _edge_table(n: int, x_grid: Sequence[float], lo: float, hi: float,
                pair: Callable[[int, float], tuple[float, float]],
                finite: str, prediction: str, terms: tuple | None = None) -> LdpTable:
    """The exact coupling-2 edge-law table: pair(n, x) = (finite, prediction)
    at each x of the sorted grid inside (lo, hi).  terms = (rate, lognn,
    invn) adds the gap (n/ln n)(finite - rate) and its lognn + invn/ln n."""
    n = check_size(n, "particle number n", 10)
    xs = _sorted_inside(x_grid, lo, hi)
    pairs = _map_ordered(lambda x: pair(n, x), xs)
    extra = {}
    if terms is not None:
        rate, lognn, invn = terms
        log_n = math.log(n)
        extra = {"scaled_gap": [(n / log_n) * (fin - rate(x))
                                for x, (fin, _) in zip(xs, pairs)],
                 "scaled_gap_prediction": [lognn(x) + invn(x) / log_n for x in xs]}
    return _table("x", xs, pairs, {"n": n, "beta": 2.0, "p": math.inf,
                                   "finite": finite, "prediction": prediction},
                  **extra)


def left_tail_table(n: int, x_grid: Sequence[float]) -> LdpTable:
    """Exact left-tail exponent of the maximum modulus vs. its expansion.

    finite-n value: -(1/(2 n^2)) ln Pr[max modulus <= x]; prediction: rate
    function plus the (ln n)/n and 1/n corrections.  Extra columns carry
    the magnified gap (n/ln n)(finite - rate), whose limit is the (ln n)/n
    coefficient, against its two-term prediction.
    """
    return _edge_table(
        n, x_grid, 0.0, 1.0,
        lambda n, x: (-edge_cdf_log(n, x) / (2.0 * n * n), left_tail_prediction(x, n)),
        "-(1/(2 n^2)) edge_cdf_log", "left_tail_prediction",
        terms=(left_rate, lognn_correction, invn_correction))


def right_tail_table(n: int, x_grid: Sequence[float]) -> LdpTable:
    """Exact right-tail exponent of the maximum modulus vs. the rate function.

    finite-n value: -(1/(2n)) ln pdf(x); prediction: the single-particle
    transport cost -ln x + x^2/2 - 1/2.
    """
    return _edge_table(
        n, x_grid, 1.0, math.inf,
        lambda n, x: (-edge_pdf_log(n, x) / (2.0 * n), right_rate(x)),
        "-(1/(2n)) edge_pdf_log", "right_rate")


def left_tail_mcmc_table(n: int, beta: float, x_grid: Sequence[float],
                         sweeps: int = 4000, burn_in: int = 500,
                         thinning: int = 2, seed: int = 0,
                         initial_step: float = 0.25) -> LdpTable:
    """Leading-order left tail at general coupling, from Metropolis draws.

    The empirical tail fraction Pr[max modulus <= x] only resolves
    probabilities down to ~1/draws, so this is a qualitative check near
    x = 1 at small n; grid points with no hits get an infinite exponent.
    """
    xs = _sorted_inside(x_grid, 0.0, 1.0)
    batch = sample_mcmc(n, beta, sweeps, burn_in, thinning, math.inf, seed,
                        initial_step)
    count = batch.count
    hits = [int(np.count_nonzero(batch.values <= x)) for x in xs]
    pairs = [(-math.log(k / count) / (beta * n * n) if k else math.inf, left_rate(x))
             for k, x in zip(hits, xs)]
    return _table(
        "x", xs, pairs,
        {"n": int(n), "beta": float(beta), "p": math.inf,
         "finite": "-(1/(beta n^2)) ln empirical CDF",
         "prediction": "left_rate", "qualitative": True,
         "draws": count, "ess": batch.metadata["ess"],
         "acceptance_rate": batch.metadata["acceptance_rate"],
         "energy_drift_error": batch.metadata["energy_drift_error"],
         "seed": int(seed)},
    )


def subleading_coefficient(p: float, s: float, beta: float = 2.0) -> float:
    """Predicted 1/n coefficient of the tilted free energy: ((4-beta)/(4 beta))
    times the entropy excess.

    Pinned against the exact generating function only at beta = 2, where it
    is + (1/4) entropy_excess; the beta-dependence away from 2 is untested
    and callers must flag it (see untested_beta).
    """
    return _subleading_grid(p, [s], beta)[0]


def _subleading_grid(p: float, s_grid: Sequence[float],
                     beta: float = 2.0) -> list[float]:
    """subleading_coefficient at every tilt of s_grid, from one entropy grid."""
    beta = check_positive(beta, "coupling beta")
    return [(4.0 - beta) / (4.0 * beta) * e for e in _entropy_grid(p, s_grid)]


def untested_beta(beta: float) -> bool:
    """True when the 1/n coefficient's beta-dependence has no oracle."""
    return float(beta) != 2.0


def mgf_table(n: int, p: float, s_grid: Sequence[float]) -> LdpTable:
    """Tilted free energy -(1/(2 n^2)) ln MGF vs. its large-n limit.

    The whole grid goes through exact's grid routine in one pass; each row
    is the same bits as mgf_log(n, p, s) alone.  Extra columns: the
    magnified gap n (finite - limit), the same bits as n times the
    residual; its predicted limit (the 1/n coefficient at coupling 2, from
    one entropy grid); and the quadrature error estimate.  The 1/n fit of
    extract_subleading and `verify mgf` takes the same gaps from `_gaps`,
    one exact pass per size, and builds no table.
    """
    n = check_size(n, "particle number n")
    ss, limit, (results,), (gaps,) = _gaps(p, s_grid, [n])
    pairs = [(-res.log_value / (2.0 * n * n), e) for res, e in zip(results, limit)]
    return _table(
        "s", ss, pairs,
        {"n": n, "beta": 2.0, "p": float(p),
         "finite": "-(1/(2 n^2)) mgf_log", "prediction": "energy_excess"},
        subleading_gap=gaps,
        subleading_prediction=_subleading_grid(p, ss),
        quadrature_error=[res.estimated_relative_error for res in results],
    )


def _gaps(p: float, s_grid: Sequence[float], sizes: Sequence[int]):
    """The tilts of s_grid in ascending order (DomainError if there are
    none), their limits E = energy_excess(p, s), and for each size n its
    exact pass and its magnified gaps n (-ln M/(2 n^2) - E): one exact pass
    per size, all before the one energy column."""
    if not (ss := sorted(float(s) for s in s_grid)):
        raise DomainError("empty tilt grid")
    passes = [_mgf_grid(n, p, ss) for n in sizes]
    limit = [energy_excess(p, s) for s in ss]
    gaps = [[n * (-res.log_value / (2.0 * n * n) - e) for res, e in zip(results, limit)]
            for n, results in zip(sizes, passes)]
    return ss, limit, passes, gaps


def _subleading_fit(p: float, s_grid: Sequence[float], n_list: Sequence[int]
                    ) -> tuple[list[float], tuple[float, ...]]:
    """(c1, its prediction) at every tilt of s_grid, ascending in s: one exact
    pass per size, then one energy_excess column, one least-squares fit of each
    tilt's gaps n (finite - limit) to c1 + c2/n + c3/n^2, and one entropy grid."""
    sizes = [check_size(n, "size n") for n in n_list]
    if len(sizes) < 3 or sorted(set(sizes)) != sizes:
        raise DomainError("need at least three strictly increasing sizes")
    ss, _, _, gaps = _gaps(p, s_grid, sizes)
    a = [[1.0, 1.0 / n, 1.0 / n**2] for n in sizes]
    c1 = np.linalg.lstsq(a, gaps, rcond=None)[0][0]
    return c1.tolist(), tuple(_subleading_grid(p, ss))


def extract_subleading(p: float, s: float, n_list: Sequence[int]) -> float:
    """Extrapolated limit of n (finite-n free energy - its n=inf limit).

    Fits the magnified gap at each size to c1 + c2/n + c3/n^2 by least
    squares (three sizes determine it exactly); c1 is the extrapolated 1/n
    coefficient.  This is the one-tilt case of the grid fit of `verify mgf`.
    """
    return _subleading_fit(p, [s], n_list)[0][0]


# --- cumulants ---------------------------------------------------------------


@dataclass(frozen=True)
class CumulantRow:
    order: int
    numeric: float
    predicted: float
    relative_error: float
    passed: bool


@dataclass(frozen=True)
class CumulantReport:
    p: float
    beta: float
    n: int
    tolerance: float
    rows: tuple[CumulantRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def cumulant_check(p: float, beta: float, n: int,
                   orders: Sequence[int] | None = None,
                   tolerance: float = 1e-4) -> CumulantReport:
    """Numeric derivatives of the tilted energy at 0+ vs. cumulant formulas.

    Uses steps 1e-3 and 5e-4 combined by one Richardson step.  Defaults to
    the derivative orders that exist for this p (the order at or above the
    phase-transition order is excluded); requesting such an order raises
    the singularity error from leading_cumulant.
    """
    p = float(p)
    beta = check_positive(beta, "coupling beta")
    n = check_size(n, "particle number n")
    if orders is None:
        trans = transition_order(p)
        top = 3 if trans.analytic else min(3, trans.order - 1)
        orders = tuple(range(1, top + 1))
    if len(orders) == 0:
        raise DomainError("cumulant orders must name at least one order, got none")
    # Forward second-order stencils on the positive-tilt side only: the
    # energy is analytic there for every p, whereas any stencil reaching
    # into s < 0 picks up the one-sided singular part at the transition
    # (e.g. an O(h^{2/3}) bias in the second difference at p = 1/2).
    # Map tilted-energy derivatives to cumulants of the statistic: the
    # generating function is -(beta n^2) E(s) in the tilt s, so
    # kappa_1 = E'(0), kappa_2 = -E''(0)/(beta n^2),
    # kappa_3 = E'''(0)/(beta n^2)^2.
    rows = []
    for order in orders:
        predicted = leading_cumulant(p, beta, n, order)  # raises unless it exists
        k = int(order)
        richardson = (4.0 * _onesided_derivative(p, k, 5e-4, +1)[0]
                      - _onesided_derivative(p, k, 1e-3, +1)[0]) / 3.0
        scale = beta * n * n if k > 1 else 1.0   # leading_cumulant checked it
        numeric = richardson / (1.0, -scale, scale * scale)[k - 1]
        rel = abs(numeric - predicted) / abs(predicted)
        rows.append(CumulantRow(order, numeric, predicted, rel, rel <= tolerance))
    return CumulantReport(p, beta, n, tolerance, tuple(rows))


# --- extreme-value regime ----------------------------------------------------


@dataclass(frozen=True)
class GumbelReport:
    n: int
    draws: int
    seed: int
    ks_distance: float
    low_n: bool

    @property
    def passed(self) -> bool:
        return self.ks_distance <= 0.05


def gumbel_check(n: int, draws: int, seed: int) -> GumbelReport:
    """Sup-distance between standardized maxima and the double-exponential law.

    Draws maxima with the exact coupling-2 sampler, standardizes them with
    the slowly-converging logarithmic constants, and reports the
    Kolmogorov-Smirnov distance to exp(-e^{-z}).  Convergence is
    logarithmic, so the check is qualitative; n below 1000 is flagged.
    """
    draws = check_size(draws, "draws", 2)
    scaling = gumbel_scaling(n)
    batch = sample_kostlan(n, draws, math.inf, seed)
    z = np.sort(scaling.standardize(batch.values))
    cdf = np.exp(-np.exp(-z))
    grid = np.arange(1, draws + 1) / draws
    distance = float(np.maximum(np.abs(grid - cdf),
                                np.abs(grid - 1.0 / draws - cdf)).max())
    return GumbelReport(int(n), draws, int(seed), distance, n < 1000)


# --- phase-transition scan ---------------------------------------------------


@dataclass(frozen=True)
class TransitionRow:
    order: int
    step: float
    left: float
    right: float
    jump: float
    jump_refined: float
    noise_floor: float
    discontinuous: bool


@dataclass(frozen=True)
class TransitionReport:
    p: float
    expected_order: int | None  # None when the energy is analytic
    resolvable: bool
    rows: tuple[TransitionRow, ...]

    @property
    def detected_order(self) -> int | None:
        for row in self.rows:
            if row.discontinuous:
                return row.order
        return None


def _onesided_weights(m: int) -> np.ndarray:
    """Weights w_j on nodes j = 0..m+1 with sum w_j f(j h) =
    h^m f^(m)(0) + O(h^{m+2}): the differences Delta^m - (m/2) Delta^{m+1}
    in closed form, w_j = (-1)^{m-j} (C(m, j) + (m/2) C(m+1, j)), each a
    multiple of 1/2."""
    return np.array([(-1) ** (m - j) * (math.comb(m, j) + m / 2 * math.comb(m + 1, j))
                     for j in range(m + 2)])


def _onesided_derivative(p: float, order: int, h: float,
                         side: int) -> tuple[float, float]:
    """One-sided estimate of the order-th derivative of the tilted energy
    at 0, from the given side; returns (estimate, roundoff scale)."""
    w = _onesided_weights(order)
    values = [energy_excess(p, side * j * h) for j in range(order + 2)]
    est = math.fsum(wj * vj for wj, vj in zip(w, values)) / h**order
    sign = 1.0 if side > 0 or order % 2 == 0 else -1.0
    noise = float(np.abs(w).sum()) / h**order * max(
        1.0, max(abs(v) for v in values)
    )
    return sign * est, noise


def transition_scan(p: float, s_window: float = 0.45,
                    step: float | None = None) -> TransitionReport:
    """Locate the lowest derivative order of the tilted energy that jumps
    across s = 0.

    For each order m up to the expected transition order (capped at 6 —
    higher one-sided differences drown in roundoff) the derivative is
    estimated from both sides at steps h and h/2, with h = 10^{-6/m} by
    default, clamped so all nodes stay inside the window.  A jump is
    declared when the refined two-sided gap stays above the roundoff floor
    and does not shrink like a truncation artifact (ratio >= 0.75).  The
    report is ``resolvable`` unless the expected order m lies above the cap,
    or its jumps at the step used fall under their roundoff floor, or the
    order below it has a cusp |s|^g, g = 4/(2-p) - (m-1) <= log2(4/3): its
    gap shrinks by only 2^-g >= 0.75 when h halves, so it reads as a jump;
    or any lower order reads as a jump, as truncation error at a large step can.
    """
    p = float(p)
    if not (0.0 < p <= 2.0):
        raise DomainError(f"transition scan needs 0 < p <= 2, got {p}")
    s_window = check_positive(s_window, "window")
    if step is not None:
        step = check_positive(step, "step")
    if p == 2.0:
        s_window = min(s_window, 0.45)  # stability boundary at -1/2
    trans = transition_order(p)
    expected = trans.order
    top = 4 if trans.analytic else min(expected, _MAX_SCAN_ORDER)

    rows = []
    for order in range(1, top + 1):
        h = step if step is not None else 10.0 ** (-6.0 / order)
        h = min(h, s_window / (order + 1))
        if (0.5 * h) ** order == 0.0:
            raise DomainError(f"step {h} is too small: (h/2)^{order} underflows")
        right, noise_r = _onesided_derivative(p, order, h, +1)
        left, noise_l = _onesided_derivative(p, order, h, -1)
        jump = right - left
        right2, _ = _onesided_derivative(p, order, 0.5 * h, +1)
        left2, _ = _onesided_derivative(p, order, 0.5 * h, -1)
        jump2 = right2 - left2
        floor = 100.0 * _EPS * 4.0 * (noise_r + noise_l)
        stable = abs(jump2) >= _JUMP_RATIO * abs(jump)
        discontinuous = bool(stable and abs(jump2) > floor and abs(jump) > floor)
        rows.append(TransitionRow(order, h, left, right, jump, jump2, floor,
                                  discontinuous))
    # The expected order is resolved only if it was scanned, the order below it
    # shrinks faster than the jump cut, no lower order reads as a jump, and
    # both of its jumps clear its own roundoff floor; a user step can push
    # them under.
    last = rows[-1]
    resolvable = trans.analytic or (
        expected <= _MAX_SCAN_ORDER
        and 2.0 ** -(4.0 / (2.0 - p) - (expected - 1)) < _JUMP_RATIO
        and not any(row.discontinuous for row in rows[:-1])
        and min(abs(last.jump), abs(last.jump_refined)) > last.noise_floor)
    return TransitionReport(p, expected, resolvable, tuple(rows))
