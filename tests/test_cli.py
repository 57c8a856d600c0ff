"""Command-line interface: grammar, IO contracts, and reproducibility."""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import ocp2d
from ocp2d import exact_moment, left_rate
from ocp2d.cli import (_COMMANDS, _HELP, _OPTIONS, DEFAULT_SEED, _cast, _flags,
                       _format_column, _grid, _parse, _resolve, build_parser,
                       emit_csv, run)


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_transcripts():
    """(command, stdout lines) for each `$ ocp2d ...` block of README.md,
    whose output runs to the closing fence, and each `# prints:` comment."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^\$ ocp2d ([^\n]*)\n(.*?)^```", text, re.M | re.S)
    comments = re.findall(r"^ocp2d (.*?)\s+# prints: (.*)$", text, re.M)
    return [(command, output.splitlines()) for command, output in blocks] \
        + [(command, [output]) for command, output in comments]


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

    for bad in ("1:2", "2:1:5", "a:b:c", "1:2:0", "", "0:inf:5", "-inf:0:5",
                "nan:1:3", "-1e308:1e308:3"):
        with pytest.raises(DomainError):
            _grid(bad)


# --- CSV contract --------------------------------------------------------------

def test_emit_csv_full_precision_round_trip(tmp_path):
    values = [(1.0 / 3.0, 1e-300), (math.pi, 2.0 ** 0.5)]
    table = {"a": [a for a, _ in values], "b": [b for _, b in values]}
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
    assert [_format_column([v])[0] for v in cells] == [
        "1", "0", "7", "-3", "0.10000000000000001", "0.33333333333333331",
        "nan", "inf", "-0", "x"]


def test_float_column_csv_matches_the_per_row_text(tmp_path):
    values = np.array([0.1, 1.0 / 3.0, -0.0, 0.0, 1e-300, 5e-324, 1e300,
                       2.0 ** 53, math.nan, math.inf, -math.inf, -2.5])
    column, rows = tmp_path / "column.csv", tmp_path / "rows.csv"
    emit_csv({"value": values}, str(column))
    emit_csv({"value": [float(v) for v in values]}, str(rows))
    assert column.read_text() == rows.read_text()
    assert column.read_text().splitlines()[:4] == [
        "value", "0.10000000000000001", "0.33333333333333331", "-0"]


def test_emit_csv_rejects_ragged_columns(tmp_path):
    from ocp2d import DomainError

    with pytest.raises(DomainError, match="unequal length"):
        emit_csv({"x": [1.0, 2.0], "y": [3.0]}, str(tmp_path / "r.csv"))
    assert list(tmp_path.iterdir()) == []


def test_emit_csv_leaves_no_temp_files(tmp_path):
    emit_csv({"x": [1.5]}, str(tmp_path / "out.csv"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_failed_replace_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError(f"cannot replace {dst}")
    monkeypatch.setattr(os, "replace", refuse)
    assert run(["eq", "--p", "1", "--s", "0", "--out", str(tmp_path / "e.csv")]) == 1
    assert "cannot replace" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    path = str(tmp_path / "o.csv")
    emit_csv({"x": [2.0]}, path)
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


def test_rate_moment_entropy_column_is_entropy_excess_at_each_tilt(tmp_path, capsys):
    # 65 tilts: 40 disks (more than one 32-row block) and 24 annuli
    out = str(tmp_path / "m.csv")
    assert run(["rate", "moment", "--p", "1", "--grid=-3:5:65",
                "--out", out]) == 0
    capsys.readouterr()
    _, rows = read_csv(out)
    assert [float(row[2]) for row in rows] == \
        [ocp2d.entropy_excess(1, s) for s in _grid("-3:5:65")]


def test_eq_prints_summary(capsys):
    assert run(["eq", "--p", "1", "--s", "-0.4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    got = dict(line.split(" = ") for line in lines)
    assert float(got["inner_radius"]) == pytest.approx(0.4, rel=1e-12)
    assert float(got["typical_value"]) > 0.0


_TRANSCRIPTS = _readme_transcripts()


def test_readme_transcripts_are_found():
    commands = [command for command, _ in _TRANSCRIPTS]
    assert "eq --p 1 --s -0.4" in commands
    assert "exact moment --n 2000 --p 200" in commands


@pytest.mark.parametrize("command,lines", _TRANSCRIPTS,
                         ids=[command for command, _ in _TRANSCRIPTS])
def test_readme_transcripts_match_the_cli(capsys, command, lines):
    assert run(command.split()) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_exact_moment_prints_value(capsys):
    assert run(["exact", "moment", "--n", "10", "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("=")[1]) == pytest.approx(exact_moment(10, 2.0))


def test_exact_moment_prints_a_mean_whose_terms_overflow(capsys):
    assert run(["exact", "moment", "--n", "2000", "--p", "200"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("=")[1]) == pytest.approx(0.118673095455804646,
                                                     rel=1e-12)


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
    assert run(["verify", "transition", "--p", "1", "--step", "10", "--window", "100",
                "--out", out]) == 0
    assert "expected order 4, detected 2 (order 4 not resolved)" \
        in capsys.readouterr().out
    assert run(["verify", "transition", "--p", "1", "--out", out]) == 0
    assert "not resolved" not in capsys.readouterr().out


@pytest.mark.parametrize("args,message", [
    (["verify", "transition", "--p", "1", "--step", "1e-100"],
     "step 1e-100 is too small: (h/2)^4 underflows"),
    (["verify", "cumulants", "--p", "1", "--n", "10", "--beta", "1e-300"],
     "cumulant of order 3 leaves the doubles"),
    (["verify", "cumulants", "--p", "1", "--n", "1" + "0" * 100],
     "cumulant of order 3 leaves the doubles"),
    (["exact", "moment", "--n", "10", "--p", "1e306"],
     "the mean overflows a double at n=10, p=1e+306"),
])
def test_verify_inputs_beyond_the_doubles_are_errors(tmp_path, capsys, args, message):
    # each ended in a ZeroDivisionError or OverflowError traceback
    assert run(args + ["--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


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
    (["eq", "--p", "1.99", "--s", "-50"], "p=1.99, s=-50.0"),
    (["rate", "moment", "--p", "1.99", "--grid=-3:-2:2"], "p=1.99, s=-3.0"),
    (["eq", "--p", "1.9", "--s", "-3"], "p=1.9, s=-3.0"),     # thin annuli
    (["eq", "--p", "1.99", "--s", "-1.5"], "p=1.99, s=-1.5"),
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


def test_verify_mgf_rejects_other_couplings(tmp_path, capsys):
    out = tmp_path / "o.csv"
    rc = run(["verify", "mgf", "--p", "1", "--beta", "4",
              "--grid", "0.5:1:1", "--n", "25,50,100", "--out", str(out)])
    assert rc == 1
    assert "coupling 2" in capsys.readouterr().err
    assert not out.exists()


def test_verify_mgf_reads_its_options_before_the_coupling_check(tmp_path, capsys):
    assert run(["verify", "mgf", "--p", "1", "--beta", "4",
                "--out", str(tmp_path / "o.csv")]) == 1
    assert "missing required option --n" in capsys.readouterr().err


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
    # a grid that _grid refuses reports _grid's own reason, flag or config
    *[(["rate", "edge", "--side", "left", *flag], config, "finite min < max")
      for grid in ("0:inf:5", "2:1:5")
      for flag, config in ((["--grid", grid], None), ([], f"grid = {grid}\n"))],
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


def test_options_resolve_flag_then_config_then_default(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("draws = 30\nseed = 4\n")
    gumbel = ["verify", "gumbel", "--n", "200", "--out", "o.csv"]
    opts = _resolve(_parse(gumbel + ["--seed", "5", "--config", str(cfg)]))
    assert (opts.n, opts.draws, opts.seed, opts.out) == (200, 30, 5, "o.csv")
    opts = _resolve(_parse(gumbel))
    assert (opts.draws, opts.seed, opts.threads) == (10_000, DEFAULT_SEED, None)
    opts = _resolve(_parse(["verify", "mgf", "--n", "10,20,40", "--p", "1",
                            "--grid", "0:1:3", "--out", "o.csv"]))
    assert (opts.n, opts.grid, opts.beta) == ([10, 20, 40], [0.0, 0.5, 1.0], 2.0)


def test_command_tables_read_known_options_with_defaults_that_cast():
    # each read spec is name=default, name? or a bare (required) name
    for command, (_, _, _, reads) in _COMMANDS.items():
        for target, specs in reads.items():
            for spec in specs.split():
                name, eq, default = re.fullmatch(r"(\w+)(?:\?|(=)(.+))?", spec).groups()
                assert name in _OPTIONS and name in _HELP, (command, target, spec)
                if eq:
                    _cast(_OPTIONS[name], default)
        assert list(_flags(command)) == [*dict.fromkeys(
            re.match(r"\w+", spec).group() for specs in reads.values()
            for spec in specs.split()), "config", "out", "svg", "threads"]


def test_config_file_that_is_not_utf8_is_domain_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"p = 1\xff\n")
    out = tmp_path / "m.csv"
    assert run(["rate", "moment", "--config", str(cfg), "--grid", "0:1:3",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "c.cfg" in err and "UTF-8" in err
    assert not out.exists()


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    outputs = []
    for name, mark in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(mark + b"p = 1\ns = 0\n")
        out = tmp_path / f"{name}.csv"
        assert run(["eq", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_config_file_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p 2\n")
    assert run(["eq", "--config", str(cfg)]) == 1
    capsys.readouterr()


def test_config_value_that_does_not_parse_is_domain_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = abc\n")
    assert run(["exact", "moment", "--p", "2", "--config", str(cfg)]) == 1
    assert "bad value for --n: 'abc'" in capsys.readouterr().err


# --- pinned output bytes -------------------------------------------------------

# SHA-256 of the CSV, and of the SVG where --svg draws a chart, that one
# small run of each subcommand target and figure writes.
_PINNED_OUTPUTS = {
    "rate edge --side right --grid 1.1:2:7 --svg": (
        "0aaed5f45e2ddfb797c5cd2b608ba328a7e4c02eecff1d2614d0d927dd2a0972",
        "7f92b213e51fedfb12604ff9ee4853bb57beeda3b473ea269e93d6a25ade25bd"),
    "rate moment --p 1 --grid=-0.4:1:5 --svg": (
        "32e9824cec985af7f4040fb8314ffaa231bf4444a63cc769aeb7ed47293dc95c",
        "13cd83669cfe324fe38cc4e5680d0b402118d85a6476e99d391960669d2682f7"),
    "eq --p 1 --s -0.4": (
        "da4e78693c6629b283850331129b10d28cad5308bc9bb2b0e860a82bd98379c5",
        None),
    "exact edge-cdf --n 40 --grid 0.6:1.2:5 --svg": (
        "c10f5933201e563fedde29aef1459a3b62e737cdcb4f50a6731c8be138cf3b0e",
        "c2fed921c1e46910602569b6b2725e74851c2d9fa6ad022e3e8d3b7cd4685112"),
    "exact edge-pdf --n 40 --grid 0.8:1.4:5 --svg": (
        "903653d01e46459e584023c34318ddd2d76347c0c44ea07c3dbb36c1c9e9ce78",
        "99b12d681bdd35fab7ccb887b226239ff7bf2ff03bb47cccb960368bca343766"),
    "exact mgf --n 12 --p 1 --grid=-0.4:1:4 --svg": (
        "96125dce0ad1811dc2a6b3eddef06a95ddf46ce3e28aa5d754548baec3b2813c",
        "20f7a52d21aca6af3894c205177644f0815fdf73aa123168974cbcbe0827d840"),
    "exact moment --n 10 --p 2": (
        "d9447477a3713f0d85bd7929474c2fd126a68b431a8ed5733bc7ed5619aa55ad",
        None),
    "sample kostlan --n 50 --count 500 --p inf --seed 7": (
        "d54b3dc7a673350d34d0a89b82518eb9e81766d827bf0dd4c838e2fa116e4217",
        None),
    "sample mcmc --n 8 --sweeps 60 --burnin 10 --p 2 --beta 4 --seed 7": (
        "5548aa89555d32b1e37886a3f88069ee6dde42b52305534dcdbd2d47ab115848",
        None),
    "verify left-tail --n 40 --grid 0.4:0.9:5 --svg": (
        "aa0eac35b8d0781fe3ecb8df4490550001ed231b9ff3c73272d74fce459a4210",
        "29eefa0da8a5128438ac06f8401ad2292a92d372110cb6da6db11b192c9b163c"),
    "verify left-tail --n 6 --beta 4 --grid 0.5:0.9:3 "
    "--sweeps 200 --burnin 20 --seed 7 --svg": (
        "9835fe402d0ebfca862213346efe82a8fa7bddea90c9e06edaae2cf9f006a096",
        "795af3b9eb88e2769051ac88bc954d0bf7d40e9f64df31d6a45207ef7f3d6fb6"),
    "verify right-tail --n 40 --grid 1.2:2:5 --svg": (
        "5f70551f250d21ced49296a80ffe597fbaa596ba085bace12f668eae06de0972",
        "0725eaf60ab6c1d43de5b74b679771ceabfae610e0bb68f15efd084be0309bfe"),
    "verify mgf --n 10,20,40 --p 2 --grid 0.2:1:3 --svg": (
        "29f738b7f1908d7b00012b92ee48f82ce3f47bfee472f502055f0f4076dd15f4",
        "ead25b231a31e92fe71ceeae96d4e9e140c0acf558132932df74f590d508d6dd"),
    "verify cumulants --p 2 --n 50 --svg": (
        "644c6314fcf7746350df3e1819131da69ab6ec2c9969d4866ec210a4b565d0f1",
        "72ea6c1a10a024f412cb8cdd3a4ff8049f756f547081060893932c350d61accb"),
    "verify cumulants --p 0.5 --n 50 --svg": (
        "866e422b547e3044e0303d90d0bfcb221b29e88d86ea3f2eb370002e2b0f1bb0",
        "49e962298230e67a9309801ca5b947111161d1eaa59420eb307d611c72cca97b"),
    "verify gumbel --n 200 --draws 500 --seed 7": (
        "d05aa422618c7a647963b636f7ea024ece8cb1ac4cf28500bccef1516fd2ebd0",
        None),
    "verify transition --p 1 --svg": (
        "ebe6134b012c8ed8e97d741b11040443830fe28fc5d03e5fa4dd2747963b5816",
        "b6587b56caf285fd6ee383d880b7fa475191f18dce2ff0b277d24100ccd23c48"),
    "fig 1 --n 20 --svg": (
        "6c7d4a12ac62fa6fd9ef68c3105a851b179d7fee08d58cf7313aab95145758bb",
        "d1aa112fa2c8f71868eb40fca510d8f7d516a54e39e1ab631d47d47555eb4836"),
    "fig 2 --n 20 --svg": (
        "7570c21b477e1c8040309e43c2506529446d1d4bc468a1d177045566daff102b",
        "595dab141485869c92d68f953ff884f082fd32bd3aa847c8f05dd6c85c61586c"),
    "fig 3 --n 12 --svg": (
        "41719acffa70ec21983944c834ca501a447d57d01efee6ea6546624518fe58a5",
        "0de04035a603493080ab6f97d9b6328df5f2966659208b4c921fc9a78941edb0"),
    "fig 4 --n 12 --svg": (
        "14b893c3963480084624c16ccdacc0b8e96a25aa7c9bdd175835c5b091ce98fe",
        "3bbaede666c00f081cd75878d0265d41679ca4be7270984b784bae797f24a82f"),
}


@pytest.mark.parametrize("command", list(_PINNED_OUTPUTS))
def test_cli_outputs_are_pinned(tmp_path, capsys, command):
    csv_digest, svg_digest = _PINNED_OUTPUTS[command]
    out = tmp_path / "o.csv"
    assert run(command.split() + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest
    svg = tmp_path / "o.svg"
    assert svg.exists() == (svg_digest is not None)
    if svg_digest:
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == svg_digest


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
    ["sample", "kostlan", "--n", "200", "--count", "1500", "--p", "2",
     "--seed", "5"],
    ["verify", "gumbel", "--n", "200", "--draws", "1500", "--seed", "5"],
], ids=["kostlan-max", "kostlan-quadratic", "gumbel"])
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


def test_svg_that_would_overwrite_the_csv_is_refused(tmp_path, capsys):
    out = tmp_path / "t.svg"
    assert run(["rate", "edge", "--side", "left", "--grid", "0.1:0.9:5",
                "--out", str(out), "--svg"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--svg would overwrite the CSV at {out}" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["sample", "kostlan", "--n", "10", "--p", "2", "--count", "50"],
    ["sample", "mcmc", "--n", "5", "--sweeps", "20", "--p", "2"],
    ["verify", "gumbel", "--n", "200", "--draws", "50"],
    ["eq", "--p", "1", "--s", "-0.4"],
    ["exact", "moment", "--n", "10", "--p", "2"],
    ["rate", "edge", "--grid", "0.5:0.6:1"],
], ids=["kostlan", "mcmc", "gumbel", "eq", "exact-moment", "one-point-grid"])
def test_svg_that_draws_no_line_is_refused(tmp_path, capsys, args):
    out = tmp_path / "o.csv"
    assert run(args + ["--out", str(out), "--svg"]) == 1
    assert "--svg draws no line" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_values_like_minus_1e3_must_follow_equals(capsys, monkeypatch):
    # argparse reads -1e3 (unlike -1000) as an option name, and so does the
    # table parse; after '=' it is a value, and -h says so
    monkeypatch.setenv("COLUMNS", "80")
    assert run(["eq", "--p", "1", "--s", "-1e3"]) == 2
    assert "argument --s: expected one argument" in capsys.readouterr().err
    assert run(["eq", "--p", "1", "--s=-1e3"]) == 0
    assert "s = -1000" in capsys.readouterr().out.splitlines()
    assert run(["-h"]) == 0
    assert "\nformulas, samplers, verification pipelines, and figure data sets. " \
           "A value that\nstarts with '-' and is not a plain decimal (-1e3, -inf, " \
           "a grid -3:5:4) must\nfollow '=', as in --s=-1e3.\n" in capsys.readouterr().out


def test_parser_builds_help_without_side_effects():
    parser = build_parser()
    assert parser.prog
    for command in _COMMANDS:
        assert set(_flags(command)) <= set(_HELP)


# --- argv read from the command tables ----------------------------------------

# Tokens the argv generator draws from: values that each kind of option
# reads, any value at all, and option spellings the tables do not read
# (abbreviations, help, '--').
_FUZZ_GOOD = {int: ("3", "12", "0", "-5", "03"),
              float: ("1.5", "-0.4", "-.5", "nan", "inf", "2", "1e3"),
              str: ("0.2:1:3", "10,20,40", "run.cfg", "abc", "-3"),
              ("left", "right"): ("left", "right")}
_FUZZ_ANY = ("3", "1.5", "-0.4", "nan", "abc", "", "-", "middle", "-3:5:4",
             "--svg", "-h", "-1e3")
_FUZZ_OPTIONS = ("--thin", "--s", "--sw", "--bogus", "-h", "--help", "--", "-n")
_FUZZ_POSITIONALS = ("9", "0", "-1", "03", "edge", "x")


def _fuzz_argv(rng):
    """One argv: a command (rarely a wrong one), zero to two positionals and
    zero to five options, each as --name value, --name=value or a bare
    --name, in shuffled order.  Most names are exact, some cut short by a
    letter or wrong, and most values suit their option."""
    command = rng.choice([*_COMMANDS] * 6 + ["frobnicate", "ver", "-h", ""])
    if command not in _COMMANDS:
        return [command, *rng.sample(_FUZZ_ANY, rng.randrange(3))]
    flags = _flags(command)
    targets = [str(t) for t in _COMMANDS[command][3] if t is not None]
    groups = [[rng.choice(targets * 3 + list(_FUZZ_POSITIONALS))]
              for _ in range(rng.choice((0, 1, 1, 1, 1, 2)))]
    for _ in range(rng.randrange(6)):
        name = rng.choice(list(flags))
        kind = flags[name]
        value = rng.choice(_FUZZ_GOOD[kind] if kind in _FUZZ_GOOD
                           and rng.random() < 0.9 else _FUZZ_ANY)
        token = rng.choice((f"--{name}",) * 8 + (f"--{name[:-1]}",
                                                 rng.choice(_FUZZ_OPTIONS)))
        form = rng.choice(("bare",) * 6 + ("plain", "equals") if kind is bool
                          else ("plain", "plain", "plain", "equals", "bare"))
        groups.append([token, value] if form == "plain" else
                      [f"{token}={value}"] if form == "equals" else [token])
    rng.shuffle(groups)
    return [command, *(token for group in groups for token in group)]


def _argparse_vars(argv):
    """The namespace build_parser() returns for argv, or None where it
    prints help or a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def _same_namespace(a, b):
    """Equal names, and values equal in type and value, NaN equal to NaN."""
    return a.keys() == b.keys() and all(
        type(a[k]) is type(b[k]) and (a[k] == b[k] or a[k] != a[k] and b[k] != b[k])
        for k in a)


def test_table_parse_matches_argparse_wherever_it_accepts():
    rng = random.Random(20231)
    accepted = refused_but_parsed = 0
    for _ in range(4000):
        argv = _fuzz_argv(rng)
        fast, slow = _parse(argv), _argparse_vars(argv)
        if fast is None:
            refused_but_parsed += slow is not None
            continue
        accepted += 1
        assert slow is not None and _same_namespace(vars(fast), slow), argv
    # Both routes are exercised: plain argv, and argv only argparse reads.
    assert accepted > 400 and refused_but_parsed > 50


@pytest.mark.parametrize("argv", [
    ["eq", "--s", "-0.4", "--p", "1", "--s", "nan"],
    ["rate", "--grid=-3:5:4", "edge", "--side", "right", "--svg", "--svg"],
    ["verify", "mgf", "--n", "10,20,40", "--p", "2", "--grid", "-3"],
    ["fig", "03"],
])
def test_table_parse_reads_repeats_equals_forms_and_negative_values(argv):
    fast = _parse(argv)
    assert fast is not None and _same_namespace(vars(fast), _argparse_vars(argv))


@pytest.mark.parametrize("argv", [
    ["verify", "left-tail", "--thin", "2"], ["eq", "--s=", "-0.4"],
    ["rate", "edge", "--grid", "-3:5:4"], ["rate", "edge", "--svg=1"],
    ["fig", "1", "--n", "1.5"], ["rate", "edge", "--side", "middle"],
    ["fig", "1", "2"], ["fig"], ["eq", "1"], ["eq", "--", "--p", "1"],
    ["fig", "-h"], ["verify", "gumbel", "--n"],
])
def test_table_parse_leaves_the_rest_to_argparse(argv):
    assert _parse(argv) is None


def test_pinned_argv_take_the_table_parse():
    for command in _PINNED_OUTPUTS:
        argv = command.split() + ["--out", "o.csv"]
        fast = _parse(argv)
        assert fast is not None, command
        assert _same_namespace(vars(fast), _argparse_vars(argv)), command


# --- numpy-only runtime ----------------------------------------------------------

def _python(code, cwd):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ocp2d.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_cli_import_loads_no_scipy(tmp_path):
    r = _python("import sys, ocp2d.cli\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
                "print('ocp2d.specfun' in sys.modules)", tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["[]", "False"]


def test_parser_is_built_on_the_first_usage_error_and_reused(tmp_path):
    r = _python("import argparse, sys\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counting(self, *a, **k):\n"
                "    built.append(1)\n"
                "    init(self, *a, **k)\n"
                "argparse.ArgumentParser.__init__ = counting\n"
                "from ocp2d.cli import run\n"
                "codes, counts = [], [len(built)]\n"
                "plain, bad = ['eq', '--p', '1', '--s', '0'], ['eq', '--bogus']\n"
                "for argv in (plain, plain, bad, bad, plain):\n"
                "    codes.append(run(argv))\n"
                "    counts.append(len(built))\n"
                "print(codes, counts, file=sys.stderr)", tmp_path)
    assert r.returncode == 0, r.stderr
    codes, counts = r.stderr.splitlines()[-1].split("] [")
    assert codes == "[0, 0, 2, 2, 0"
    counts = [int(v) for v in counts.rstrip("]").split(", ")]
    assert counts[0] == counts[1] == counts[2] == 0 < counts[3] == counts[4] == counts[5]


# Exit code and stderr of argv that need argparse, as the parser gives them;
# the last one reads --thin as --thinning and then lacks --out.
_USAGE_ERRORS = {
    "frobnicate": (2, "usage: ocp2d [-h] {rate,eq,exact,sample,verify,fig} ...\n"
                      "ocp2d: error: argument command: invalid choice: "
                      "'frobnicate' (choose from 'rate', 'eq', 'exact', "
                      "'sample', 'verify', 'fig')\n"),
    "rate edge --bogus 1": (2, "usage: ocp2d [-h] {rate,eq,exact,sample,verify,fig} ...\n"
                               "ocp2d: error: unrecognized arguments: --bogus 1\n"),
    "fig 9": (2, "usage: ocp2d fig [-h] [--n N] [--config CONFIG] [--out OUT] [--svg]\n"
                 "                 [--threads THREADS]\n"
                 "                 {1,2,3,4}\n"
                 "ocp2d fig: error: argument number: invalid choice: 9 "
                 "(choose from 1, 2, 3, 4)\n"),
    "fig -h": (0, ""),
    "verify left-tail --n 6 --beta 4 --grid 0.5:0.9:3 --thin 2 --sweeps 40 "
    "--burnin 10": (1, "error: missing required option --out\n"),
}


def test_plain_runs_load_no_argparse_and_usage_errors_keep_their_text(tmp_path):
    r = _python("import contextlib, io, json, os, sys\n"
                "os.environ['COLUMNS'] = '80'\n"
                "from ocp2d.cli import run\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert run(['eq', '--p', '1', '--s', '0']) == 0\n"
                "loaded = [m for m in ('argparse', 'gettext', 'locale')\n"
                "          if m in sys.modules]\n"
                "results = {}\n"
                f"for command in {list(_USAGE_ERRORS)!r}:\n"
                "    out, err = io.StringIO(), io.StringIO()\n"
                "    with contextlib.redirect_stdout(out):\n"
                "        with contextlib.redirect_stderr(err):\n"
                "            code = run(command.split())\n"
                "    results[command] = [code, err.getvalue(), out.getvalue()]\n"
                "print(json.dumps([loaded, results]))", tmp_path)
    assert r.returncode == 0, r.stderr
    loaded, results = json.loads(r.stdout)
    assert loaded == []
    for command, (code, err) in _USAGE_ERRORS.items():
        assert results[command][:2] == [code, err], command
    assert "--n N              particle number" in results["fig -h"][2]


def test_reused_parser_carries_no_state_between_runs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 1\ngrid = -0.4:1:5\n")
    valid = [["sample", "kostlan", "--n", "20", "--count", "50", "--p", "2"],
             ["rate", "moment", "--config", str(cfg)]]
    assert run(["sample", "kostlan", "--n", "20", "--seed", "3", "--bogus"]) == 2
    assert run(["sample", "kostlan", "--n", "20", "--count", "50", "--p", "2",
                "--seed", "-1", "--out", str(tmp_path / "bad.csv")]) == 1
    for k, argv in enumerate(valid):
        here, fresh = tmp_path / f"here{k}.csv", tmp_path / f"fresh{k}.csv"
        assert run(argv + ["--out", str(here)]) == 0
        r = _python("import sys\nfrom ocp2d.cli import run\n"
                    f"sys.exit(run({argv + ['--out', str(fresh)]!r}))", tmp_path)
        assert r.returncode == 0, r.stderr
        assert here.read_bytes() == fresh.read_bytes()
    capsys.readouterr()


def test_fig3_runs_with_scipy_blocked(tmp_path):
    r = _python("import sys\nsys.modules['scipy'] = None\n"
                "from ocp2d.cli import run\n"
                "sys.exit(run(['fig', '3', '--out', 'fig3.csv']))", tmp_path)
    assert r.returncode == 0, r.stderr
    header, rows = read_csv(tmp_path / "fig3.csv")
    assert header[0] == "s" and len(rows) == 65
