"""The level-walking double-exponential rule shared by the exact and equilibrium layers."""

import math

import numpy as np

from ocp2d import exact
from ocp2d.quadrature import integrate


def _counted(f, sizes):
    def g(x):
        sizes.append(x.size)
        return f(x)
    return g


def test_sinh_sinh_gaussian():
    sizes = []
    value, err = integrate(_counted(lambda x: np.exp(-x * x), sizes),
                           -math.inf, math.inf, 1e-15)
    assert abs(value - math.sqrt(math.pi)) <= 1e-15
    assert err <= 1e-15
    assert sizes == [231]


def test_each_step_evaluates_only_the_nodes_it_adds():
    seen = []

    def kink(x):
        seen.append(x)
        return np.abs(x - 0.3) * np.exp(-x * x)

    integrate(kink, -math.inf, math.inf, 1e-10)
    assert [x.size for x in seen] == [231, 230, 460]
    assert np.unique(np.concatenate(seen)).size == 921


def test_small_p_wall_walks_to_the_finest_step(monkeypatch):
    # p = 0.05: a long left tail and the e^v wall (see test_exact); the
    # coarser steps disagree, so the walk goes on to h = 1/128
    sizes = []
    monkeypatch.setattr(exact, "integrate", lambda f, lo, hi, tol:
                        integrate(_counted(f, sizes), lo, hi, tol))
    exact.mgf_log(1, 0.05, 32.65)
    assert sizes == [231, 230, 460]


def test_every_row_of_a_batch_meets_the_tolerance():
    # Gaussians from wide to narrow: alone, the widest rows stop at
    # h = 1/32 and the narrowest need h = 1/128; together they walk on
    # until every row's estimate is within tol
    scale = np.geomspace(0.1, 30.0, 7)[:, None]
    tol = 1e-12
    sizes = []
    value, err = integrate(_counted(lambda x: np.exp(-(scale * x) ** 2), sizes),
                           -math.inf, math.inf, tol)
    assert sizes == [231, 230, 460]
    assert value.shape == err.shape == (7,)
    assert (err <= tol).all()
    assert (np.abs(value - math.sqrt(math.pi) / scale[:, 0]) <= tol).all()


def test_kink_is_reported_after_the_last_step():
    sizes = []
    value, err = integrate(_counted(lambda x: np.abs(x - 0.3), sizes),
                           0.0, 1.0, 1e-10)
    assert sum(sizes) == 921
    assert err > 1e-10
    assert abs(value - 0.29) <= err


def test_each_row_stops_on_its_own():
    # the Gaussians above plus a kink row that never meets tol: each row
    # keeps the value and estimate of its own first step within tol, bit for
    # bit what it gives alone, whatever rows share the call
    scale = np.geomspace(0.1, 30.0, 7)
    rows = [lambda x, a=a: np.exp(-(a * x) ** 2) for a in scale]
    rows.append(lambda x: np.abs(x - 0.3) * np.exp(-x * x))
    value, err = integrate(lambda x: np.stack([f(x) for f in rows]),
                           -math.inf, math.inf, 1e-12)
    alone = [integrate(f, -math.inf, math.inf, 1e-12) for f in rows]
    assert value.tolist() == [float(v) for v, _ in alone]
    assert err.tolist() == [float(e) for _, e in alone]
    assert err[0] <= 1e-12 < err[-1]


def test_per_row_finite_bounds_equal_scalar_calls():
    # (rows, 1) bounds give each row its own interval: one with a kink and
    # a sqrt endpoint that never meets tol, smooth ones, a narrow one and
    # one of width 1e-12.  Each row is the same bits as a scalar-bound call
    lo = np.array([[0.0], [0.5], [0.31], [1.0]])
    hi = np.array([[1.0], [2.0], [0.32], [1.0 + 1e-12]])

    def f(x):
        return np.abs(x - 0.3) + np.sqrt(x)

    value, err = integrate(f, lo, hi, 1e-12)
    alone = [integrate(f, a, b, 1e-12) for a, b in zip(lo[:, 0], hi[:, 0])]
    assert value.shape == err.shape == (4,)
    assert value.tolist() == [float(v) for v, _ in alone]
    assert err.tolist() == [float(e) for _, e in alone]
    assert err[0] > 1e-12 >= err[1:].max()
