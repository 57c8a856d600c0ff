"""Command-line interface: grammar, IO contracts, and reproducibility."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import ocp2d
from ocp2d import exact_moment, left_rate
from ocp2d.cli import (DEFAULT_SEED, SimpleTable, _format_cell, _grid,
                       build_parser, emit_csv, run)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# --- grid parsing ------------------------------------------------------------

def test_grid_is_inclusive_linspace():
    assert _grid("0.2:0.8:4") == pytest.approx([0.2, 0.4, 0.6, 0.8])
    assert _grid("1:5:5") == pytest.approx([1, 2, 3, 4, 5])
    assert _grid("0.5:0.9:1") == pytest.approx([0.5])


def test_grid_rejects_malformed():
    from ocp2d import DomainError

    for bad in ("1:2", "2:1:5", "a:b:c", "1:2:0", ""):
        with pytest.raises(DomainError):
            _grid(bad)


# --- CSV contract --------------------------------------------------------------

def test_emit_csv_full_precision_round_trip(tmp_path):
    table = SimpleTable(["a", "b"])
    values = [(1.0 / 3.0, 1e-300), (math.pi, 2.0 ** 0.5)]
    for row in values:
        table.add(*row)
    path = str(tmp_path / "t.csv")
    emit_csv(table, path)
    header, rows = read_csv(path)
    assert header == ["a", "b"]
    for (a, b), row in zip(values, rows):
        assert float(row[0]) == a      # %.17g loses nothing
        assert float(row[1]) == b


def test_csv_cells_have_fixed_text():
    cells = [True, False, 7, np.int64(-3), 0.1, np.float64(1.0 / 3.0),
             math.nan, math.inf, -0.0, "x"]
    assert [_format_cell(v) for v in cells] == [
        "1", "0", "7", "-3", "0.10000000000000001", "0.33333333333333331",
        "nan", "inf", "-0", "x"]


def test_emit_csv_leaves_no_temp_files(tmp_path):
    table = SimpleTable(["x"])
    table.add(1.5)
    emit_csv(table, str(tmp_path / "out.csv"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_outputs_follow_umask(tmp_path, capsys):
    out = tmp_path / "u.csv"
    umask = os.umask(0o022)
    try:
        assert run(["rate", "edge", "--grid", "0.3:0.9:3", "--out", str(out),
                    "--svg"]) == 0
    finally:
        os.umask(umask)
    capsys.readouterr()
    for path in (out, tmp_path / "u.svg"):
        assert path.stat().st_mode & 0o777 == 0o666 & ~0o022


def test_emit_csv_ends_with_newline(tmp_path):
    table = SimpleTable(["x"])
    table.add(2.0)
    path = str(tmp_path / "o.csv")
    emit_csv(table, path)
    with open(path, "rb") as fh:
        assert fh.read().endswith(b"\n")


# --- exit codes ------------------------------------------------------------------

def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert run(["rate", "edge", "--bogus", "1"]) == 2
    capsys.readouterr()


def test_missing_required_option_is_domain_error(tmp_path, capsys):
    # rate needs a grid
    rc = run(["rate", "edge", "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "grid" in err


def test_math_domain_failure_maps_to_one(tmp_path, capsys):
    rc = run([
        "eq", "--p", "2", "--s", "-0.75",
    ])
    assert rc == 1
    assert "stability" in capsys.readouterr().err.lower()


def test_success_returns_zero(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    assert run(["rate", "edge", "--side", "left",
                "--grid", "0.3:0.9:7", "--out", out]) == 0
    capsys.readouterr()
    header, rows = read_csv(out)
    assert header == ["x", "psi"]
    assert len(rows) == 7
    assert float(rows[0][1]) == pytest.approx(left_rate(0.3), rel=1e-15)


# --- handlers --------------------------------------------------------------------

def test_rate_moment_table(tmp_path, capsys):
    out = str(tmp_path / "m.csv")
    assert run(["rate", "moment", "--p", "1", "--grid=-1:1:5",
                "--out", out]) == 0
    capsys.readouterr()
    header, rows = read_csv(out)
    assert header == ["s", "energy", "entropy"]
    assert len(rows) == 5


def test_eq_prints_summary(capsys):
    assert run(["eq", "--p", "1", "--s", "-0.4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    got = dict(line.split(" = ") for line in lines)
    assert float(got["inner_radius"]) == pytest.approx(0.4, rel=1e-12)
    assert float(got["typical_value"]) > 0.0


def test_exact_moment_prints_value(capsys):
    assert run(["exact", "moment", "--n", "10", "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("=")[1]) == pytest.approx(exact_moment(10, 2.0))


def test_exact_edge_cdf_table(tmp_path, capsys):
    out = str(tmp_path / "cdf.csv")
    assert run(["exact", "edge-cdf", "--n", "40", "--grid", "0.6:1.2:4",
                "--out", out]) == 0
    capsys.readouterr()
    header, rows = read_csv(out)
    assert header == ["x", "log_cdf"]
    vals = [float(r[1]) for r in rows]
    assert vals == sorted(vals)  # log CDF increases in x


def test_exact_mgf_table(tmp_path, capsys):
    out = str(tmp_path / "mgf.csv")
    assert run(["exact", "mgf", "--n", "12", "--p", "2", "--grid", "0.2:1:3",
                "--out", out]) == 0
    capsys.readouterr()
    header, rows = read_csv(out)
    assert header == ["s", "log_mgf", "estimated_relative_error"]
    s, logv, _ = (float(c) for c in rows[0])
    assert logv == pytest.approx(-(12 * 13 / 2) * math.log1p(2 * s), rel=1e-9)


def test_sample_kostlan_csv_and_seed_default(tmp_path, capsys):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert run(["sample", "kostlan", "--n", "15", "--count", "40", "--p", "2",
                "--out", out1]) == 0
    assert run(["sample", "kostlan", "--n", "15", "--count", "40", "--p", "2",
                "--seed", str(DEFAULT_SEED), "--out", out2]) == 0
    capsys.readouterr()
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_sample_mcmc_runs(tmp_path, capsys):
    out = str(tmp_path / "mc.csv")
    assert run(["sample", "mcmc", "--n", "6", "--sweeps", "30", "--burnin",
                "10", "--p", "1", "--seed", "3", "--out", out]) == 0
    capsys.readouterr()
    header, rows = read_csv(out)
    assert header == ["value"]
    assert len(rows) == 20


def test_verify_cumulants(tmp_path, capsys):
    out = str(tmp_path / "c.csv")
    assert run(["verify", "cumulants", "--p", "2", "--n", "50",
                "--out", out]) == 0
    capsys.readouterr()
    header, rows = read_csv(out)
    assert header == ["order", "numeric", "predicted", "relative_error", "passed"]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    assert all(r[4] == "1" for r in rows)


def test_verify_transition(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    assert run(["verify", "transition", "--p", "1", "--out", out]) == 0
    capsys.readouterr()
    header, rows = read_csv(out)
    assert header == ["order", "step", "left", "right", "jump", "jump_refined",
                      "noise_floor", "discontinuous"]
    assert rows[-1][0] == "4"


def test_verify_transition_says_when_the_order_is_not_resolved(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    assert run(["verify", "transition", "--p", "1", "--step", "0.001",
                "--out", out]) == 0
    assert "expected order 4, detected None (order 4 not resolved)" \
        in capsys.readouterr().out
    assert run(["verify", "transition", "--p", "1", "--out", out]) == 0
    assert "not resolved" not in capsys.readouterr().out


def test_verify_left_tail_reports_the_chain_ess(tmp_path, capsys):
    out = str(tmp_path / "lt.csv")
    assert run(["verify", "left-tail", "--n", "6", "--beta", "4", "--grid",
                "0.5:0.9:3", "--sweeps", "400", "--burnin", "100",
                "--out", out]) == 0
    assert re.search(r"; ESS \d+ of 150 draws$", capsys.readouterr().out.strip())


def test_verify_left_tail(tmp_path, capsys):
    out = str(tmp_path / "lt.csv")
    assert run(["verify", "left-tail", "--n", "40", "--grid", "0.4:0.8:3",
                "--out", out]) == 0
    capsys.readouterr()
    header, rows = read_csv(out)
    assert header[:4] == ["x", "finite_n_value", "prediction", "residual"]
    for row in rows:
        fin, pred, resid = float(row[1]), float(row[2]), float(row[3])
        assert resid == fin - pred


def test_verify_right_tail(tmp_path, capsys):
    out = str(tmp_path / "rt.csv")
    assert run(["verify", "right-tail", "--n", "40", "--grid", "1.2:2:3",
                "--out", out]) == 0
    capsys.readouterr()
    header, rows = read_csv(out)
    assert header == ["x", "finite_n_value", "prediction", "residual"]
    assert len(rows) == 3


@pytest.mark.parametrize("args,word", [
    (["sample", "kostlan", "--n", "5", "--count", "3", "--p", "2", "--seed", "-1"],
     "seed"),
    (["sample", "mcmc", "--n", "5", "--sweeps", "5", "--p", "2", "--seed", "-1"],
     "seed"),
    (["verify", "gumbel", "--n", "200", "--draws", "10", "--seed", "-5"], "seed"),
    (["verify", "cumulants", "--p", "1", "--n", "0"], "particle number"),
    (["verify", "cumulants", "--p", "1", "--beta", "0", "--n", "5"], "beta"),
    (["verify", "transition", "--p", "1", "--step", "0"], "step"),
    (["verify", "transition", "--p", "1", "--step", "-0.01"], "step"),
    (["verify", "transition", "--p", "1", "--step", "nan"], "step"),
])
def test_out_of_domain_inputs_exit_one(tmp_path, capsys, args, word):
    out = tmp_path / "o.csv"
    assert run(args + ["--out", str(out)]) == 1
    assert word in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args,config,header", [
    (["verify", "gumbel", "--n", "200", "--draws", "50"], None,
     ["n", "draws", "ks_distance", "low_n"]),
    (["verify", "left-tail", "--n", "6", "--beta", "4", "--grid", "0.5:0.9:3",
      "--sweeps", "40", "--burnin", "10"], None,
     ["x", "finite_n_value", "prediction", "residual"]),
    (["eq", "--p", "1", "--s", "-0.4"], None,
     ["p", "s", "inner_radius", "outer_radius", "typical_value",
      "energy_excess", "entropy_excess"]),
    (["exact", "moment", "--n", "10", "--p", "2"], None, ["n", "p", "mean"]),
    (["verify", "mgf", "--p", "2", "--grid", "0.2:1:3"], "n = 10,20,40\n",
     ["s", "extracted_coefficient", "predicted_coefficient", "residual",
      "untested_beta_flag"]),
    (["verify", "right-tail", "--n", "40", "--grid", "1.2:2:3", "--svg"], None,
     ["x", "finite_n_value", "prediction", "residual"]),
])
def test_command_writes_csv_header(tmp_path, capsys, args, config, header):
    if config:
        (tmp_path / "run.cfg").write_text(config)
        args = args + ["--config", str(tmp_path / "run.cfg")]
    out = str(tmp_path / "o.csv")
    assert run(args + ["--out", out]) == 0
    capsys.readouterr()
    assert read_csv(out)[0] == header
    assert (tmp_path / "o.svg").exists() == ("--svg" in args)


def test_verify_mgf_rejects_other_couplings(capsys):
    rc = run(["verify", "mgf", "--p", "1", "--beta", "4",
              "--grid", "0.5:1:1", "--n", "25,50,100"])
    assert rc == 1
    capsys.readouterr()


# --- config files ----------------------------------------------------------------

def test_config_file_supplies_options(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 2\ns = 0.5\n# comment\n")
    assert run(["eq", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "outer_radius" in out


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 2\ns = 0.5\n")
    assert run(["eq", "--config", str(cfg), "--s", "0.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    got = dict(line.split(" = ") for line in lines)
    assert float(got["s"]) == 0.0
    assert float(got["outer_radius"]) == pytest.approx(1.0)


def test_config_side_outside_choices_is_domain_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("side = lft\n")
    out = tmp_path / "r.csv"
    assert run(["rate", "edge", "--config", str(cfg), "--grid", "0.3:0.9:3",
                "--out", str(out)]) == 1
    assert "lft" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args,config,word", [
    (["rate", "edge", "--grid", "0.3:0.9:3"], "sid = right\n", "'sid'"),
    (["verify", "right-tail", "--n", "40", "--grid", "1.2:2:3", "--beta", "4"],
     None, "--beta"),
    (["sample", "kostlan", "--n", "5", "--count", "3", "--p", "2",
      "--beta", "4"], None, "--beta"),
    (["fig", "1", "--n", "20"], "p = 2\n", "'p'"),
    (["verify", "left-tail", "--n", "40", "--grid", "0.3:0.9:3", "--sweeps", "5",
      "--seed", "3"], None, "--sweeps"),
    *[(["verify", "left-tail", "--n", "40", "--grid", "0.3:0.9:3", "--beta", "2"],
       f"{key} = 3\n", key) for key in ("sweeps", "burnin", "thinning", "seed")],
])
def test_options_the_command_does_not_read_are_domain_errors(
        tmp_path, capsys, args, config, word):
    if config:
        (tmp_path / "run.cfg").write_text(config)
        args = args + ["--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "o.csv"
    assert run(args + ["--out", str(out)]) == 1
    assert word in capsys.readouterr().err
    assert not out.exists()


def test_config_file_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p 2\n")
    assert run(["eq", "--config", str(cfg)]) == 1
    capsys.readouterr()


# --- thread-count independence ------------------------------------------------------

def test_threads_do_not_change_csv_bytes(tmp_path, capsys):
    a = str(tmp_path / "t1.csv")
    b = str(tmp_path / "t4.csv")
    args = ["exact", "edge-cdf", "--n", "60", "--grid", "0.5:1.1:9"]
    assert run(args + ["--threads", "1", "--out", a]) == 0
    assert run(args + ["--threads", "4", "--out", b]) == 0
    capsys.readouterr()
    with open(a, "rb") as f1, open(b, "rb") as f2:
        assert f1.read() == f2.read()


@pytest.mark.parametrize("args", [
    ["sample", "kostlan", "--n", "200", "--count", "1500", "--p", "inf",
     "--seed", "5"],
    ["verify", "gumbel", "--n", "200", "--draws", "1500", "--seed", "5"],
], ids=["kostlan-max", "gumbel"])
def test_maximum_draws_are_byte_stable(tmp_path, capsys, args):
    payloads = []
    for j, threads in enumerate(("1", "4", "1")):
        path = tmp_path / f"{j}.csv"
        assert run(args + ["--threads", threads, "--out", str(path)]) == 0
        payloads.append(path.read_bytes())
    capsys.readouterr()
    assert payloads[0] == payloads[1] == payloads[2]


def test_env_thread_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OCP_THREADS", "2")
    out = str(tmp_path / "env.csv")
    assert run(["exact", "edge-pdf", "--n", "30", "--grid", "1.1:1.5:3",
                "--out", out]) == 0
    capsys.readouterr()
    _, rows = read_csv(out)
    assert len(rows) == 3


def test_malformed_thread_settings_are_domain_errors(tmp_path, capsys, monkeypatch):
    args = ["exact", "edge-cdf", "--n", "30", "--grid", "0.8:1.2:3",
            "--out", str(tmp_path / "t.csv")]
    for env in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("OCP_THREADS", env)
        assert run(args) == 1
        assert "OCP_THREADS" in capsys.readouterr().err
    monkeypatch.delenv("OCP_THREADS")
    assert run(args + ["--threads", "0"]) == 1
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


# --- figure recipes ---------------------------------------------------------------

def test_fig1_writes_both_branches(tmp_path, capsys):
    out = str(tmp_path / "fig1.csv")
    assert run(["fig", "1", "--out", out]) == 0
    capsys.readouterr()
    header, rows = read_csv(out)
    assert header == ["side", "x", "finite_n_value", "prediction", "residual"]
    sides = {r[0] for r in rows}
    assert sides == {"left", "right"}


def test_fig2_scaled_gap_columns(tmp_path, capsys):
    out = str(tmp_path / "fig2.csv")
    assert run(["fig", "2", "--out", out]) == 0
    capsys.readouterr()
    header, rows = read_csv(out)
    assert header[0] == "x"
    assert "scaled_gap" in header and "scaled_gap_prediction" in header
    assert len(rows) == 90


@pytest.mark.parametrize("number,rows", [(3, 65), (4, 60)])
def test_fig3_fig4_columns(tmp_path, capsys, number, rows):
    out = str(tmp_path / "fig.csv")
    assert run(["fig", str(number), "--n", "12", "--out", out]) == 0
    capsys.readouterr()
    header, body = read_csv(out)
    assert header == ["s", "finite_n_value", "prediction", "residual",
                      "subleading_gap", "subleading_prediction"]
    assert len(body) == rows


def test_svg_written_alongside_csv(tmp_path, capsys):
    out = str(tmp_path / "plot.csv")
    assert run(["rate", "edge", "--side", "right", "--grid", "1.1:2:10",
                "--out", out, "--svg"]) == 0
    capsys.readouterr()
    svg = tmp_path / "plot.svg"
    assert svg.exists()
    body = svg.read_text()
    assert "<svg" in body and "polyline" in body


def test_parser_builds_help_without_side_effects():
    parser = build_parser()
    assert parser.prog


# --- numpy-only runtime ----------------------------------------------------------

def _python(code, cwd):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ocp2d.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_cli_import_loads_no_scipy(tmp_path):
    r = _python("import sys, ocp2d.cli\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
                tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_fig3_runs_with_scipy_blocked(tmp_path):
    r = _python("import sys\nsys.modules['scipy'] = None\n"
                "from ocp2d.cli import run\n"
                "sys.exit(run(['fig', '3', '--out', 'fig3.csv']))", tmp_path)
    assert r.returncode == 0, r.stderr
    header, rows = read_csv(tmp_path / "fig3.csv")
    assert header[0] == "s" and len(rows) == 65
