"""Comparison tables, finite-size extraction, and the transition scanner."""

import math

import numpy as np
import pytest

from ocp2d import (
    DomainError,
    GumbelReport,
    LdpRow,
    NumericalError,
    LdpTable,
    MgfResult,
    SingularityError,
    cumulant_check,
    edge_cdf_log,
    edge_pdf_log,
    energy_excess,
    entropy_excess,
    extract_subleading,
    gumbel_check,
    left_tail_prediction,
    left_tail_table,
    mgf_log,
    mgf_table,
    right_rate,
    right_tail_table,
    sample_mcmc,
    subleading_coefficient,
    transition_scan,
    untested_beta,
)
from ocp2d.cli import _grid, run


# --- table container invariants ------------------------------------------------

def test_table_rejects_inconsistent_residual():
    row = LdpRow(0.5, 1.0, 0.9, 0.2)  # residual should be 0.1
    with pytest.raises(DomainError):
        LdpTable("x", (row,), {}, {})


def test_table_requires_sorted_abscissas():
    rows = (
        LdpRow(0.7, 1.0, 1.0, 0.0),
        LdpRow(0.5, 1.0, 1.0, 0.0),
    )
    with pytest.raises(DomainError):
        LdpTable("x", rows, {}, {})


def test_table_extra_column_length_checked():
    rows = (LdpRow(0.5, 1.0, 1.0, 0.0),)
    with pytest.raises(DomainError):
        LdpTable("x", rows, {}, {"extra": (1.0, 2.0)})


def test_table_row_access():
    rows = (LdpRow(0.5, 1.25, 1.0, 0.25),)
    table = LdpTable("x", rows, {"n": 10}, {"gap": (0.5,)})
    columns = table.columns()
    assert list(columns) == [
        "x", "finite_n_value", "prediction", "residual", "gap"
    ]
    assert [col[0] for col in columns.values()] == [0.5, 1.25, 1.0, 0.25, 0.5]
    assert len(table) == 1


def test_table_columns_agree_with_rows():
    table = left_tail_table(40, [0.4, 0.6, 0.8])
    columns = table.columns()
    assert list(columns) == ["x", "finite_n_value", "prediction", "residual",
                             *table.extra_columns]
    assert all(len(col) == len(table) for col in columns.values())
    for i, row in enumerate(table.rows):
        assert [col[i] for col in columns.values()] == [
            row.abscissa, row.finite_n_value, row.prediction, row.residual,
            *(col[i] for col in table.extra_columns.values())]


_BASE = ["finite_n_value", "prediction", "residual"]


@pytest.mark.parametrize("build,metadata,columns", [
    (lambda: left_tail_table(10, [0.8, 0.5]),
     {"n": 10, "beta": 2.0, "p": math.inf,
      "finite": "-(1/(2 n^2)) edge_cdf_log", "prediction": "left_tail_prediction"},
     ["x", *_BASE, "scaled_gap", "scaled_gap_prediction"]),
    (lambda: right_tail_table(10, [1.5, 1.2]),
     {"n": 10, "beta": 2.0, "p": math.inf,
      "finite": "-(1/(2n)) edge_pdf_log", "prediction": "right_rate"},
     ["x", *_BASE]),
    (lambda: mgf_table(8, 1.0, [0.5, -0.25]),
     {"n": 8, "beta": 2.0, "p": 1.0,
      "finite": "-(1/(2 n^2)) mgf_log", "prediction": "energy_excess"},
     ["s", *_BASE, "subleading_gap", "subleading_prediction", "quadrature_error"]),
], ids=["left", "right", "mgf"])
def test_exact_tables_pin_their_metadata_and_columns(build, metadata, columns):
    # the CSV digests do not cover metadata; repr compares key order and types
    table = build()
    assert repr(table.metadata) == repr(metadata)
    assert list(table.columns()) == columns


def test_mcmc_table_pins_its_metadata_and_columns(monkeypatch):
    import ocp2d.harness as hmod

    batches = []

    def recording(*args):
        batches.append(sample_mcmc(*args))
        return batches[-1]

    monkeypatch.setattr(hmod, "sample_mcmc", recording)
    table = hmod.left_tail_mcmc_table(6, 4.0, [0.9, 0.6], sweeps=300,
                                      burn_in=100, seed=3)
    (batch,) = batches
    chain = {key: batch.metadata[key]
             for key in ("ess", "acceptance_rate", "energy_drift_error")}
    assert repr(table.metadata) == repr(
        {"n": 6, "beta": 4.0, "p": math.inf,
         "finite": "-(1/(beta n^2)) ln empirical CDF", "prediction": "left_rate",
         "qualitative": True, "draws": 100, **chain, "seed": 3})
    assert list(table.columns()) == ["x", *_BASE]


# --- left/right tail tables ------------------------------------------------------

def test_left_tail_table_recomputes():
    n = 60
    xs = [0.4, 0.6, 0.8]
    table = left_tail_table(n, xs)
    for row, x in zip(table.rows, xs):
        want_fin = -edge_cdf_log(n, x) / (2.0 * n * n)
        assert row.finite_n_value == pytest.approx(want_fin, rel=1e-14)
        assert row.prediction == pytest.approx(left_tail_prediction(x, n), rel=1e-14)
        assert row.residual == row.finite_n_value - row.prediction
    assert "scaled_gap" in table.extra_columns
    assert "scaled_gap_prediction" in table.extra_columns


def test_left_tail_table_validation():
    with pytest.raises(DomainError):
        left_tail_table(5, [0.5])
    with pytest.raises(DomainError):
        left_tail_table(50, [0.5, 1.2])
    with pytest.raises(DomainError):
        left_tail_table(50, [])


def test_right_tail_table_recomputes():
    n = 60
    xs = [1.3, 1.7]
    table = right_tail_table(n, xs)
    for row, x in zip(table.rows, xs):
        want = -edge_pdf_log(n, x) / (2.0 * n)
        assert row.finite_n_value == pytest.approx(want, rel=1e-14)
        assert row.prediction == pytest.approx(right_rate(x), rel=1e-14)


def test_right_tail_table_validation():
    with pytest.raises(DomainError):
        right_tail_table(50, [0.9, 1.5])


def test_left_tail_mcmc_table_checks_grid_before_sampling(monkeypatch):
    import ocp2d.harness as hmod

    def no_sampling(*args, **kwargs):
        raise AssertionError("the chain ran before the grid was checked")

    monkeypatch.setattr(hmod, "sample_mcmc", no_sampling)
    for grid in ([0.5, 1.2], [0.0, 0.5], []):
        with pytest.raises(DomainError):
            hmod.left_tail_mcmc_table(16, 4.0, grid, sweeps=2000)


def test_left_tail_mcmc_table_keeps_the_chain_health(monkeypatch):
    import ocp2d.harness as hmod

    batches = []

    def recording(*args):
        batches.append(sample_mcmc(*args))
        return batches[-1]

    monkeypatch.setattr(hmod, "sample_mcmc", recording)
    table = hmod.left_tail_mcmc_table(6, 4.0, [0.6, 0.9], sweeps=300,
                                      burn_in=100, seed=3)
    (batch,) = batches
    for key in ("ess", "acceptance_rate", "energy_drift_error"):
        assert table.metadata[key] == batch.metadata[key]
    assert 0.0 < table.metadata["acceptance_rate"] < 1.0


# --- tilted free-energy tables and extraction -----------------------------------

def test_mgf_table_columns_and_values():
    n, p = 30, 1.0
    table = mgf_table(n, p, [0.25, 1.0])
    for row, s in zip(table.rows, [0.25, 1.0]):
        want_fin = -mgf_log(n, p, s).log_value / (2.0 * n * n)
        assert row.finite_n_value == pytest.approx(want_fin, rel=1e-13)
        assert row.prediction == pytest.approx(energy_excess(p, s), rel=1e-13)
    gaps = table.extra_columns["subleading_gap"]
    preds = table.extra_columns["subleading_prediction"]
    errs = table.extra_columns["quadrature_error"]
    assert len(gaps) == len(preds) == len(errs) == 2
    for g, row in zip(gaps, table.rows):
        assert g == pytest.approx(n * row.residual, rel=1e-13)


@pytest.mark.parametrize("n,p,grid", [(12, 1.0, "-3:5:65"), (50, 2.0, "-0.45:5:60")],
                         ids=["fig3", "fig4"])
def test_mgf_grid_outputs_equal_single_tilts(tmp_path, capsys, n, p, grid):
    # mgf_table and `exact mgf` evaluate the whole grid in one pass; every
    # row is the same bits as mgf_log at its tilt alone.  fig 3's grid holds
    # s = 0 and s = 0.5, whose factor l = 3 walks on to h = 1/64 while its
    # block-mates stop; at n = 50 a tilt spans two blocks
    ss = _grid(grid)
    alone = [mgf_log(n, p, s) for s in ss]
    table = mgf_table(n, p, ss)
    assert [row.finite_n_value for row in table.rows] == \
        [-res.log_value / (2.0 * n * n) for res in alone]
    assert list(table.extra_columns["quadrature_error"]) == \
        [res.estimated_relative_error for res in alone]
    assert list(table.extra_columns["subleading_prediction"]) == \
        [subleading_coefficient(p, s) for s in ss]
    out = tmp_path / "mgf.csv"
    assert run(["exact", "mgf", "--n", str(n), "--p", str(p), f"--grid={grid}",
                "--out", str(out)]) == 0
    capsys.readouterr()
    cells = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(float(v), float(e)) for _, v, e in cells] == \
        [(res.log_value, res.estimated_relative_error) for res in alone]


def test_mgf_table_integrates_the_entropy_column_in_batches(monkeypatch):
    # one quadrature per block of rows in each branch, not one per tilt:
    # fig 3's 64 nonzero tilts took 64 calls, and in blocks of 32 rows
    # take at most ceil(64 / 32) + 1
    import ocp2d.equilibrium as eq
    calls, integrate = [], eq.integrate

    def spy(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(eq, "integrate", spy)
    mgf_table(12, 1.0, _grid("-3:5:65"))
    assert 0 < len(calls) <= math.ceil(64 / 32) + 1


def test_mgf_table_refuses_an_empty_grid():
    with pytest.raises(DomainError, match="empty tilt grid"):
        mgf_table(10, 1.0, [])


def test_mgf_table_error_names_the_tilt():
    with pytest.raises(NumericalError, match="collapsed to zero or overflowed "
                                             "at n = 40, p = 1.99, s = -2.6$"):
        mgf_table(40, 1.99, [0.5, -2.6])


@pytest.mark.parametrize("sizes", [[20, 40, 80], [20, 40, 80, 160],
                                   [10, 20, 40, 80, 160]],
                         ids=["3sizes", "4sizes", "5sizes"])
def test_extract_subleading_exact_solve_on_synthetic_data(monkeypatch, sizes):
    # plant a finite-size law with known 1/n coefficient; the least-squares
    # fit must recover it to machine precision whatever the number of sizes
    import ocp2d.harness as hmod

    def fake_mgf_grid(n, p, s_grid):
        value = 0.3 + 0.8 / n - 1.7 / (n * n)
        return [MgfResult(n, p, s, -2.0 * n * n * value, 0.0) for s in s_grid]

    monkeypatch.setattr(hmod, "_mgf_grid", fake_mgf_grid)
    monkeypatch.setattr(hmod, "energy_excess", lambda p, s: 0.3)
    got = hmod.extract_subleading(1.0, 0.5, sizes)
    assert got == pytest.approx(0.8, abs=1e-11)


def test_extract_subleading_quadratic_tilt_closed_form():
    # the exactly solvable case: coefficient is log(1+2s)/4
    s = 0.6
    got = extract_subleading(2.0, s, [25, 50, 100])
    assert got == pytest.approx(0.25 * math.log1p(2 * s), abs=1e-10)


@pytest.mark.parametrize("s", [-0.3, 0.5, 2.0])
def test_extract_subleading_fits_four_sizes_by_least_squares(s):
    # four sizes, as in the README's verify mgf --n 50,100,200,400, take
    # the same least-squares fit as three
    got = extract_subleading(2.0, s, [25, 50, 100, 200])
    assert got == pytest.approx(0.25 * math.log1p(2.0 * s), abs=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extract_subleading_at_zero_tilt_is_zero():
    # an all-zero grid leaves the exact pass with no nonzero tilts
    assert extract_subleading(1.0, 0.0, [10, 20, 40]) == 0.0


def test_verify_mgf_cells_equal_extract_subleading(tmp_path, capsys):
    # verify mgf fits the whole grid at once; each cell is the same bits as
    # the one-tilt fit, on a grid that crosses s = 0 and contains it
    sizes = [10, 20, 40]
    out = tmp_path / "sub.csv"
    assert run(["verify", "mgf", "--n", "10,20,40", "--p", "1", "--grid=-1:1:5",
                "--out", str(out)]) == 0
    capsys.readouterr()
    cells = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [float(row[0]) for row in cells] == _grid("-1:1:5")
    assert [float(row[1]) for row in cells] == \
        [extract_subleading(1.0, s, sizes) for s in _grid("-1:1:5")]


def test_extract_subleading_validation():
    with pytest.raises(DomainError):
        extract_subleading(1.0, 0.5, [25, 50])
    with pytest.raises(DomainError):
        extract_subleading(1.0, 0.5, [25, 50, 50])


def test_subleading_coefficient_sign_and_flag():
    s, p = 0.8, 1.0
    assert subleading_coefficient(p, s) == pytest.approx(
        0.25 * entropy_excess(p, s), rel=1e-13
    )
    assert subleading_coefficient(p, s, beta=4.0) == pytest.approx(
        0.0, abs=1e-15
    )  # (4 - beta)/(4 beta) vanishes at beta = 4
    assert not untested_beta(2.0)
    assert untested_beta(4.0)


# --- cumulant checks ---------------------------------------------------------------

@pytest.mark.parametrize("p", [1.0, 2.0])
def test_cumulant_check_passes_integrable_exponents(p):
    report = cumulant_check(p, 2.0, 50)
    assert report.all_passed
    assert [row.order for row in report.rows] == [1, 2, 3]
    for row in report.rows:
        assert row.relative_error <= 1e-4


def test_cumulant_check_skips_orders_beyond_transition():
    report = cumulant_check(0.5, 2.0, 50)
    assert [row.order for row in report.rows] == [1, 2]
    assert report.all_passed


def test_cumulant_check_requesting_missing_order_raises():
    with pytest.raises(SingularityError):
        cumulant_check(0.5, 2.0, 50, orders=(3,))


def test_cumulant_check_without_orders_is_a_domain_error():
    # a check that checks nothing must not read as a pass
    with pytest.raises(DomainError, match="at least one order"):
        cumulant_check(1.0, 2.0, 10, orders=())


def test_cumulant_check_differentiates_only_the_reported_orders(monkeypatch):
    import ocp2d.harness as harness

    calls = []

    def spy(p, s):
        calls.append(s)
        return energy_excess(p, s)

    monkeypatch.setattr(harness, "energy_excess", spy)
    report = cumulant_check(0.5, 2.0, 50)
    assert [row.order for row in report.rows] == [1, 2]
    assert len(calls) == 14  # orders 1 and 2: (3 + 4) nodes at two steps


def test_cumulant_check_general_coupling():
    report = cumulant_check(2.0, 4.0, 32)
    assert report.all_passed


@pytest.mark.parametrize("beta,n", [(2.0, 0), (0.0, 5), (-1.0, 5), (math.nan, 5)])
def test_cumulant_check_validates_size_and_coupling(beta, n):
    with pytest.raises(DomainError):
        cumulant_check(1.0, beta, n)


# --- extreme-value check -------------------------------------------------------------

def test_gumbel_check_small_sizes_rejected():
    with pytest.raises(DomainError):
        gumbel_check(100, 100, 0)


def test_gumbel_check_negative_seed_rejected():
    with pytest.raises(DomainError, match="seed"):
        gumbel_check(200, 10, -1)


def test_gumbel_report_passes_at_its_gate():
    assert GumbelReport(200, 10, 0, 0.05, True).passed
    assert not GumbelReport(200, 10, 0, 0.0501, True).passed


def test_gumbel_check_reports_distance_and_flag():
    report = gumbel_check(500, 400, 11)
    assert report.low_n
    assert 0.0 < report.ks_distance <= 1.0
    report2 = gumbel_check(1200, 200, 11)
    assert not report2.low_n


# --- transition scanner ---------------------------------------------------------------

def test_transition_scan_subquadratic_detects_third_order():
    report = transition_scan(0.5)
    assert report.expected_order == 3
    assert report.resolvable
    assert report.detected_order == 3
    # lower orders continuous: first discontinuous row is the detected one
    for row in report.rows:
        if row.order < 3:
            assert not row.discontinuous


def test_transition_scan_linear_detects_fourth_order():
    report = transition_scan(1.0)
    assert report.expected_order == 4
    assert report.detected_order == 4
    jump_row = next(r for r in report.rows if r.order == 4)
    # the fourth derivative jumps by -1 across zero tilt
    assert jump_row.jump == pytest.approx(-1.0, abs=0.05)
    assert report.resolvable


def test_transition_scan_reports_an_order_it_did_not_resolve():
    # at step 0.001 the order-4 jump of -1 sits under its roundoff floor
    report = transition_scan(1.0, step=0.001)
    row = report.rows[-1]
    assert row.order == 4
    assert abs(row.jump) < row.noise_floor
    assert report.detected_order is None
    assert not report.resolvable
    # order 8 lies above the highest scanned order
    assert not transition_scan(1.5).resolvable


def test_transition_scan_at_a_large_step_resolves_no_lower_order():
    # at h = 10 the order-2 gap of p = 1 is truncation error that shrinks by
    # only 0.92 as h halves, so it reads as a jump below the expected order 4
    report = transition_scan(1.0, s_window=100.0, step=10.0)
    assert report.detected_order == 2
    assert not report.resolvable
    for p in (0.5, 1.0, 1.2):
        for step in (0.01, 0.1, 1.0, 3.0, 10.0):
            report = transition_scan(p, s_window=100.0, step=step)
            if report.resolvable:
                assert report.detected_order == report.expected_order, (p, step)


def test_transition_scan_calls_only_the_expected_order_resolvable():
    # below the expected order m lies a cusp |s|^g, g = 4/(2-p) - (m-1); where
    # g <= log2(4/3) halving h shrinks its gap by no more than the 0.75 cut,
    # so it reads as a jump (p = 0.05-0.3, 0.7-0.8, 1.05 and 1.25 here)
    for p in (round(0.05 * i, 2) for i in range(1, 40)):
        report = transition_scan(p)
        if report.resolvable:
            assert report.detected_order == report.expected_order, p
    assert not transition_scan(0.1).resolvable


def test_transition_scan_quadratic_finds_no_jump():
    report = transition_scan(2.0)
    assert report.expected_order is None
    assert report.detected_order is None


def test_transition_scan_validation():
    with pytest.raises(DomainError):
        transition_scan(2.5)
    with pytest.raises(DomainError):
        transition_scan(0.0)
    with pytest.raises(DomainError):
        transition_scan(1.0, s_window=0.0)
    with pytest.raises(DomainError):
        transition_scan(1.0, step=0.0)


@pytest.mark.parametrize("order", range(1, 11))
def test_onesided_weights_are_exact(order):
    from fractions import Fraction

    from ocp2d.harness import _onesided_weights

    # In exact rationals the weights solve sum_j w_j j^k = order! [k == order],
    # k = 0..order+1, whose Vandermonde matrix on distinct nodes is
    # invertible: they are its exact solution.
    w = [Fraction(float(x)) for x in _onesided_weights(order)]
    assert len(w) == order + 2
    for k in range(order + 2):
        got = sum(wj * j**k for j, wj in enumerate(w))
        assert got == (math.factorial(order) if k == order else 0)

