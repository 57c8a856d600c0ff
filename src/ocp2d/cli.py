"""Command-line front-end: tabulate, sample, verify, and reproduce figures.

Subcommands
-----------
rate edge|moment      rate functions on a grid
eq                    one tilted equilibrium measure, summarized
exact edge-cdf|edge-pdf|mgf|moment   finite-n formulas at coupling 2
sample kostlan|mcmc   draws of the radial statistic
verify left-tail|right-tail|mgf|cumulants|gumbel|transition
fig 1|2|3|4           canonical comparison data sets

Every data-producing command writes CSV (17 significant digits, atomic
rename) and optionally a small self-contained SVG chart.  Numeric output
depends only on argv and the config file.  --threads (or OCP_THREADS) is
accepted and checked to be an integer >= 1, but has no effect: every
command runs serially.
Grids are given as min:max:steps (steps = number of points, inclusive
endpoints); config files hold key=value lines overridden by flags.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Sequence

import numpy as np

from . import harness
from .edge import left_rate, right_rate
from .equilibrium import (
    energy_excess,
    entropy_excess,
    equilibrium_measure,
    typical_value,
)
from .errors import DomainError, Ocp2dError
from .exact import edge_cdf_log, edge_pdf_log, exact_moment, mgf_log
from .sampling import sample_kostlan, sample_mcmc

__all__ = ["DEFAULT_SEED", "run", "main", "emit_csv", "emit_svg"]

# Fixed default seed so that every sampling command is reproducible out of
# the box; pass --seed to change it.
DEFAULT_SEED = 20231

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
               "#e377c2", "#7f7f7f")


# --- tables and emission ------------------------------------------------------


@dataclass
class SimpleTable:
    """Minimal column-oriented table sharing the LdpTable emission API."""

    columns: list[str]
    data: list[list[Any]] = field(default_factory=list)

    def column_names(self) -> list[str]:
        return list(self.columns)

    def row_values(self, i: int) -> list[Any]:
        return self.data[i]

    def __len__(self) -> int:
        return len(self.data)

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise DomainError("row width does not match header")
        self.data.append(list(values))


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _write_atomic(path: str, lines: list[str]) -> None:
    """Write newline-terminated lines via temp file + rename, so readers
    never see a partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_csv(table, path: str) -> None:
    """Write the table as CSV: header, 17-significant-digit reals, atomic
    replace."""
    lines = [",".join(table.column_names())]
    for i in range(len(table)):
        lines.append(",".join(_format_cell(v) for v in table.row_values(i)))
    _write_atomic(path, lines)


def _numeric_columns(table) -> tuple[list[str], list[list[float]]]:
    names = table.column_names()
    cols: list[list[float]] = [[] for _ in names]
    for i in range(len(table)):
        for j, v in enumerate(table.row_values(i)):
            try:
                cols[j].append(float(v))
            except (TypeError, ValueError):
                cols[j].append(math.nan)
    keep = [j for j, col in enumerate(cols)
            if any(math.isfinite(v) for v in col)]
    return [names[j] for j in keep], [cols[j] for j in keep]


def emit_svg(table, path: str) -> None:
    """Render a minimal polyline chart (first numeric column = abscissa,
    one polyline per remaining numeric column, no external assets)."""
    names, cols = _numeric_columns(table)
    width, height, margin = 640.0, 480.0, 60.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" '
        f'height="{int(height)}" viewBox="0 0 {int(width)} {int(height)}">',
        f'<rect width="{int(width)}" height="{int(height)}" fill="white"/>',
    ]
    if len(names) >= 2 and len(table) >= 1:
        xs = cols[0]
        series = list(zip(names[1:], cols[1:]))
        finite = [v for _, col in series for v in col if math.isfinite(v)]
        x_fin = [v for v in xs if math.isfinite(v)]
        if finite and x_fin:
            x0, x1 = min(x_fin), max(x_fin)
            y0, y1 = min(finite), max(finite)
            x_span = (x1 - x0) or 1.0
            y_span = (y1 - y0) or 1.0

            def sx(v: float) -> float:
                return margin + (v - x0) / x_span * (width - 2 * margin)

            def sy(v: float) -> float:
                return height - margin - (v - y0) / y_span * (height - 2 * margin)

            parts.append(
                f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
                f'y2="{height - margin}" stroke="black"/>')
            parts.append(
                f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
                f'y2="{height - margin}" stroke="black"/>')
            for k, (label, col) in enumerate(series):
                color = _SVG_COLORS[k % len(_SVG_COLORS)]
                points = " ".join(
                    f"{sx(x):.2f},{sy(y):.2f}"
                    for x, y in zip(xs, col)
                    if math.isfinite(x) and math.isfinite(y)
                )
                parts.append(f'<polyline fill="none" stroke="{color}" '
                             f'points="{points}"/>')
                parts.append(f'<text x="{margin + 8}" y="{margin + 16 + 14 * k}" '
                             f'font-size="12" fill="{color}">{label}</text>')
            parts.append(f'<text x="{margin}" y="{height - margin + 28}" '
                         f'font-size="12">{names[0]}: {x0:.6g} .. {x1:.6g}</text>')
            parts.append(f'<text x="8" y="{margin - 12}" font-size="12">'
                         f'{y0:.6g} .. {y1:.6g}</text>')
    parts.append("</svg>")
    _write_atomic(path, parts)


def _emit(table, out: str, svg: bool) -> None:
    emit_csv(table, out)
    if svg:
        emit_svg(table, os.path.splitext(out)[0] + ".svg")


def _select(table, names: Sequence[str]) -> SimpleTable:
    """The named columns of any table, in the given order."""
    header = table.column_names()
    index = [header.index(name) for name in names]
    rows = (table.row_values(i) for i in range(len(table)))
    return SimpleTable(list(names), [[row[j] for j in index] for row in rows])


def _rows_table(cls, rows: Sequence[Any]) -> SimpleTable:
    """One column per field of the dataclass cls, one row per record."""
    names = [f.name for f in fields(cls)]
    return SimpleTable(names, [[getattr(row, name) for name in names]
                               for row in rows])


# --- option resolution --------------------------------------------------------


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    config: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"config line without '=': {raw.strip()!r}")
            key, value = line.split("=", 1)
            config[key.strip()] = value.strip()
    return config


def _grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be min:max:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"grid must be min:max:steps, got {text!r}") from None
    if steps < 1 or not lo < hi:
        raise DomainError(f"grid needs steps >= 1 and min < max, got {text!r}")
    return [float(v) for v in np.linspace(lo, hi, steps)]


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"expected comma-separated integers, got {text!r}") from exc


class _Resolver:
    """flags > config file > defaults, with typed casting of config text."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _load_config(getattr(args, "config", None))

    def get(self, name: str, cast: Callable[[str], Any], default: Any = None):
        value = getattr(self.args, name, None)
        if value is None and name in self.config:
            value = self.config[name]
        if isinstance(value, str) and cast is not str:
            try:
                value = cast(value)
            except ValueError as exc:
                raise DomainError(f"bad value for --{name}: {value!r}") from exc
        if value is None:
            value = default
        return value

    def require(self, name: str, cast: Callable[[str], Any]):
        value = self.get(name, cast)
        if value is None:
            raise DomainError(f"missing required option --{name}")
        return value

    def check_threads(self) -> None:
        """--threads or OCP_THREADS must be an integer >= 1 when given.

        Both are accepted for compatibility and change nothing.
        """
        value = self.get("threads", int)
        name = "--threads"
        if value is None:
            env = os.environ.get("OCP_THREADS")
            if not env:
                return
            name = "OCP_THREADS"
            try:
                value = int(env)
            except ValueError:
                raise DomainError(f"bad value for {name}: {env!r}") from None
        if value < 1:
            raise DomainError(f"{name} must be >= 1, got {value}")


# --- subcommand handlers ------------------------------------------------------


def _cmd_rate(res: _Resolver) -> int:
    which = res.args.target
    grid = res.require("grid", _grid)
    out = res.require("out", str)
    svg = bool(res.args.svg)
    if which == "edge":
        side = res.get("side", str, "left")
        if side not in ("left", "right"):
            raise DomainError(f"--side must be left or right, got {side!r}")
        table = SimpleTable(["x", "psi"])
        fn = left_rate if side == "left" else right_rate
        for x in grid:
            table.add(x, fn(x))
    else:
        p = res.require("p", float)
        table = SimpleTable(["s", "energy", "entropy"])
        for s in grid:
            table.add(s, energy_excess(p, s), entropy_excess(p, s))
    _emit(table, out, svg)
    print(f"wrote {len(table)} rows to {out}")
    return 0


def _cmd_eq(res: _Resolver) -> int:
    p = res.require("p", float)
    s = res.require("s", float)
    measure = equilibrium_measure(p, s)
    row = {
        "p": p,
        "s": s,
        "inner_radius": measure.inner_radius,
        "outer_radius": measure.outer_radius,
        "typical_value": typical_value(p, s),
        "energy_excess": energy_excess(p, s),
        "entropy_excess": entropy_excess(p, s),
    }
    out = res.get("out", str)
    if out:
        table = SimpleTable(list(row))
        table.add(*row.values())
        _emit(table, out, bool(res.args.svg))
    for key, value in row.items():
        print(f"{key} = {_format_cell(value)}")
    return 0


def _cmd_exact(res: _Resolver) -> int:
    which = res.args.target
    if which == "moment":
        n = res.require("n", int)
        p = res.require("p", float)
        value = exact_moment(n, p)
        out = res.get("out", str)
        if out:
            table = SimpleTable(["n", "p", "mean"])
            table.add(n, p, value)
            _emit(table, out, bool(res.args.svg))
        print(f"mean = {_format_cell(value)}")
        return 0
    n = res.require("n", int)
    grid = res.require("grid", _grid)
    out = res.require("out", str)
    if which == "edge-cdf":
        table = SimpleTable(["x", "log_cdf"])
        values = harness._map_ordered(lambda x: edge_cdf_log(n, x), grid)
        for x, v in zip(grid, values):
            table.add(x, v)
    elif which == "edge-pdf":
        table = SimpleTable(["x", "log_pdf"])
        values = harness._map_ordered(lambda x: edge_pdf_log(n, x), grid)
        for x, v in zip(grid, values):
            table.add(x, v)
    else:  # mgf
        p = res.require("p", float)
        table = SimpleTable(["s", "log_mgf", "estimated_relative_error"])
        results = harness._map_ordered(lambda s: mgf_log(n, p, s), grid)
        for s, r in zip(grid, results):
            table.add(s, r.log_value, r.estimated_relative_error)
    _emit(table, out, bool(res.args.svg))
    print(f"wrote {len(table)} rows to {out}")
    return 0


def _cmd_sample(res: _Resolver) -> int:
    which = res.args.target
    out = res.require("out", str)
    n = res.require("n", int)
    p = res.require("p", float)
    seed = res.get("seed", int, DEFAULT_SEED)
    if which == "kostlan":
        count = res.require("count", int)
        batch = sample_kostlan(n, count, p, seed)
    else:
        batch = sample_mcmc(
            n,
            res.get("beta", float, 2.0),
            res.require("sweeps", int),
            res.get("burnin", int, 0),
            res.get("thinning", int, 1),
            p,
            seed,
            res.get("step", float, 0.25),
        )
    table = SimpleTable(["value"])
    for v in batch.values:
        table.add(float(v))
    _emit(table, out, bool(res.args.svg))
    print(f"{batch.sampler_id}: {batch.count} draws, mean {batch.mean():.6g} "
          f"-> {out}")
    return 0


def _cmd_verify(res: _Resolver) -> int:
    which = res.args.target
    out = res.require("out", str)
    svg = bool(res.args.svg)

    if which == "left-tail":
        n = int(res.require("n", int))
        grid = res.require("grid", _grid)
        beta = res.get("beta", float, 2.0)
        if beta == 2.0:
            table = harness.left_tail_table(n, grid)
        else:
            table = harness.left_tail_mcmc_table(
                n, beta, grid,
                sweeps=res.get("sweeps", int, 4000),
                burn_in=res.get("burnin", int, 500),
                thinning=res.get("thinning", int, 2),
                seed=res.get("seed", int, DEFAULT_SEED),
            )
        _emit(table, out, svg)
        worst = max(abs(r.residual) for r in table.rows)
        print(f"left tail n={n} beta={beta}: max |residual| {worst:.3e}")
        return 0

    if which == "right-tail":
        n = int(res.require("n", int))
        grid = res.require("grid", _grid)
        table = harness.right_tail_table(n, grid)
        _emit(table, out, svg)
        worst = max(abs(r.residual) for r in table.rows)
        print(f"right tail n={n}: max |residual| {worst:.3e}")
        return 0

    if which == "mgf":
        p = res.require("p", float)
        beta = res.get("beta", float, 2.0)
        if beta != 2.0:
            raise DomainError(
                "the finite-n generating function exists only at coupling 2; "
                "rerun with --beta 2"
            )
        sizes = res.require("n", _int_list)
        grid = res.require("grid", _grid)
        table = SimpleTable(["s", "extracted_coefficient",
                             "predicted_coefficient", "residual",
                             "untested_beta_flag"])
        flag = harness.untested_beta(beta)

        def work(s: float) -> tuple[float, float]:
            return (harness.extract_subleading(p, s, sizes),
                    harness.subleading_coefficient(p, s, beta))

        results = harness._map_ordered(work, grid)
        for s, (extracted, predicted) in zip(grid, results):
            table.add(s, extracted, predicted, extracted - predicted, flag)
        _emit(table, out, svg)
        worst = max(abs(row[3]) for row in table.data)
        print(f"subleading p={p} sizes={sizes}: max |residual| {worst:.3e}")
        return 0

    if which == "cumulants":
        p = res.require("p", float)
        beta = res.get("beta", float, 2.0)
        n = int(res.require("n", int))
        report = harness.cumulant_check(p, beta, n)
        _emit(_rows_table(harness.CumulantRow, report.rows), out, svg)
        print(f"cumulants p={p} beta={beta}: "
              f"{'pass' if report.all_passed else 'FAIL'}")
        return 0

    if which == "gumbel":
        report = harness.gumbel_check(
            res.require("n", int),
            res.get("draws", int, 10_000),
            res.get("seed", int, DEFAULT_SEED),
        )
        table = SimpleTable(["n", "draws", "ks_distance", "low_n"])
        table.add(report.n, report.draws, report.ks_distance, report.low_n)
        _emit(table, out, svg)
        note = " (low n)" if report.low_n else ""
        print(f"extreme-value check n={report.n}: KS {report.ks_distance:.4f}"
              f"{note}")
        return 0

    # transition
    p = res.require("p", float)
    report = harness.transition_scan(
        p,
        s_window=res.get("window", float, 0.45),
        step=res.get("step", float),
    )
    _emit(_rows_table(harness.TransitionRow, report.rows), out, svg)
    print(f"transition scan p={p}: expected order {report.expected_order}, "
          f"detected {report.detected_order}")
    return 0


def _cmd_fig(res: _Resolver) -> int:
    which = res.args.number
    out = res.require("out", str)
    svg = bool(res.args.svg)

    if which == 1:
        n = res.get("n", int, 250)
        cols = ["x", "finite_n_value", "prediction", "residual"]
        table = SimpleTable(["side", *cols])
        for side, t in (("left", harness.left_tail_table(n, _grid("0.30:0.99:70"))),
                        ("right", harness.right_tail_table(n, _grid("1.05:2.5:60")))):
            for row in _select(t, cols).data:
                table.add(side, *row)
    elif which == 2:
        n = res.get("n", int, 250)
        table = _select(harness.left_tail_table(n, _grid("0.1:0.99:90")),
                        ["x", "scaled_gap", "scaled_gap_prediction"])
    else:
        n = res.get("n", int, 50)
        p, grid_text = (1.0, "-3:5:65") if which == 3 else (2.0, "-0.45:5:60")
        table = _select(harness.mgf_table(n, p, _grid(grid_text)),
                        ["s", "finite_n_value", "prediction", "residual",
                         "subleading_gap", "subleading_prediction"])
    _emit(table, out, svg)
    print(f"figure {which}: wrote {len(table)} rows to {out}")
    return 0


# --- parser and dispatch ------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value file; flags take precedence")
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument("--svg", action="store_true",
                     help="also write an SVG chart next to the CSV")
    sub.add_argument("--threads", type=int,
                     help="accepted for compatibility (as is OCP_THREADS); "
                          "no effect, commands run serially")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocp2d",
        description="Radial statistics of the trapped 2D log-gas: rate "
                    "functions, finite-n formulas, samplers, verification "
                    "pipelines, and figure data sets.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    rate = commands.add_parser("rate", help="tabulate rate functions")
    rate.add_argument("target", choices=["edge", "moment"])
    rate.add_argument("--side", choices=["left", "right"])
    rate.add_argument("--p", type=float)
    rate.add_argument("--grid")
    _add_common(rate)
    rate.set_defaults(handler=_cmd_rate)

    eq = commands.add_parser("eq", help="summarize one tilted equilibrium")
    eq.add_argument("--p", type=float)
    eq.add_argument("--s", type=float)
    _add_common(eq)
    eq.set_defaults(handler=_cmd_eq)

    exact = commands.add_parser("exact", help="finite-n formulas at coupling 2")
    exact.add_argument("target",
                       choices=["edge-cdf", "edge-pdf", "mgf", "moment"])
    exact.add_argument("--n", type=int)
    exact.add_argument("--p", type=float)
    exact.add_argument("--grid")
    _add_common(exact)
    exact.set_defaults(handler=_cmd_exact)

    sample = commands.add_parser("sample", help="draw radial statistics")
    sample.add_argument("target", choices=["kostlan", "mcmc"])
    sample.add_argument("--n", type=int)
    sample.add_argument("--p", type=float)
    sample.add_argument("--count", type=int)
    sample.add_argument("--beta", type=float)
    sample.add_argument("--sweeps", type=int)
    sample.add_argument("--burnin", type=int)
    sample.add_argument("--thinning", type=int)
    sample.add_argument("--step", type=float)
    sample.add_argument("--seed", type=int)
    _add_common(sample)
    sample.set_defaults(handler=_cmd_sample)

    verify = commands.add_parser("verify", help="run a verification pipeline")
    verify.add_argument("target",
                        choices=["left-tail", "right-tail", "mgf", "cumulants",
                                 "gumbel", "transition"])
    verify.add_argument("--n", help="size, or comma list for verify mgf")
    verify.add_argument("--p", type=float)
    verify.add_argument("--beta", type=float)
    verify.add_argument("--grid")
    verify.add_argument("--draws", type=int)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--sweeps", type=int)
    verify.add_argument("--burnin", type=int)
    verify.add_argument("--thinning", type=int)
    verify.add_argument("--window", type=float)
    verify.add_argument("--step", type=float)
    _add_common(verify)
    verify.set_defaults(handler=_cmd_verify)

    fig = commands.add_parser("fig", help="reproduce a figure data set")
    fig.add_argument("number", type=int, choices=[1, 2, 3, 4])
    fig.add_argument("--n", type=int)
    _add_common(fig)
    fig.set_defaults(handler=_cmd_fig)

    return parser


def run(argv: Sequence[str]) -> int:
    """Execute one subcommand; 0 on success, 1 on domain/runtime/file
    errors, 2 on usage errors."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        res = _Resolver(args)
        res.check_threads()
        return int(args.handler(res))
    except Ocp2dError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
