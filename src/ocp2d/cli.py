"""Command-line front-end: tabulate, sample, verify, and reproduce figures.

Subcommands
-----------
rate edge|moment      rate functions on a grid
eq                    one tilted equilibrium measure, summarized
exact edge-cdf|edge-pdf|mgf|moment   finite-n formulas at coupling 2
sample kostlan|mcmc   draws of the radial statistic
verify left-tail|right-tail|mgf|cumulants|gumbel|transition
fig 1|2|3|4           canonical comparison data sets

Every data-producing command writes one table, an ordered dict of columns,
as CSV (17 significant digits, atomic rename) and optionally as a small
self-contained SVG chart;
--svg is an error (exit 1) when the chart would draw no line, or would
overwrite the CSV (an --out ending in .svg).  Numeric
output depends only on argv and the config file.  --threads (or
OCP_THREADS) is accepted and checked to be an integer >= 1, but has no
effect: every command runs serially.
Grids are given as min:max:steps (steps = number of points, inclusive
endpoints, finite bounds); config files hold key=value lines overridden by
flags.  A flag or config key that the command does not read is an error
(exit 1).  Plain argv (the command, its target, exact option names with a
value each) is read straight from the command tables.  Anything else (help,
abbreviations, '--', a usage error) goes to an argparse parser built from
the same tables on first need and reused by every later call in the
process, so help, usage errors and their exit code 2 are argparse's;
parsing leaves no state in it.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import fields
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from . import harness
from .edge import left_rate, right_rate
from .equilibrium import (
    _entropy_grid,
    energy_excess,
    entropy_excess,
    equilibrium_measure,
    typical_value,
)
from .errors import DomainError, Ocp2dError, check_size
from .exact import _mgf_grid, edge_cdf_log, edge_pdf_log, exact_moment
from .sampling import sample_kostlan, sample_mcmc

if TYPE_CHECKING:
    import argparse

__all__ = ["DEFAULT_SEED", "run", "main", "emit_csv"]

# Fixed default seed so that every sampling command is reproducible out of
# the box; pass --seed to change it.
DEFAULT_SEED = 20231

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
               "#e377c2", "#7f7f7f")


# --- tables and emission ------------------------------------------------------


def _format_column(column: Sequence[Any]) -> list[str]:
    """The CSV text of each cell, by the numpy dtype kind of the column:
    17 significant digits for reals, 1/0 for bools, str for the rest."""
    a = np.asarray(column)
    if a.dtype.kind == "f":
        return ["%.17g" % v for v in a.tolist()]
    if a.dtype.kind == "b":
        return ["1" if v else "0" for v in a.tolist()]
    return [str(v) for v in a.tolist()]


def _write_atomic(path: str, lines: list[str]) -> None:
    """Write newline-terminated lines via temp file + rename, so readers
    never see a partial file; the file's mode follows the umask."""
    tmp = f"{os.path.abspath(path)}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_csv(table: dict[str, Sequence[Any]], path: str) -> None:
    """Write a table (column name -> column) as CSV: header, 17-digit reals,
    atomic replace.  Ragged columns are a DomainError; nothing is written."""
    lengths = {name: len(col) for name, col in table.items()}
    if len(set(lengths.values())) > 1:
        raise DomainError(f"columns of unequal length: {lengths}")
    cells = [_format_column(col) for col in table.values()]
    _write_atomic(path, [",".join(table), *map(",".join, zip(*cells))])


def _numeric_columns(table: dict[str, Sequence[Any]]) -> dict[str, list[float]]:
    """The columns of numbers (bools count as 0 and 1) that hold a finite
    one, as lists of floats."""
    arrays = {name: np.asarray(col) for name, col in table.items()}
    return {name: a.astype(float).tolist() for name, a in arrays.items()
            if a.dtype.kind in "biuf" and np.isfinite(a.astype(float)).any()}


def _svg_lines(table: dict[str, Sequence[Any]]) -> list[str]:
    """The chart that --svg writes; DomainError if it would draw no line."""
    cols = _numeric_columns(table)
    names = list(cols)
    xs = cols[names[0]] if names else []
    series = [(label, cols[label]) for label in names[1:]]
    points = [[(x, y) for x, y in zip(xs, col)
               if math.isfinite(x) and math.isfinite(y)] for _, col in series]
    if not any(len(line) >= 2 for line in points):
        raise DomainError("--svg draws no line here: a chart needs a numeric "
                          "first column and another with two finite points")
    width, height, margin = 640.0, 480.0, 60.0
    finite = [v for _, col in series for v in col if math.isfinite(v)]
    x_fin = [v for v in xs if math.isfinite(v)]
    x0, x1 = min(x_fin), max(x_fin)
    y0, y1 = min(finite), max(finite)
    x_span = (x1 - x0) or 1.0
    y_span = (y1 - y0) or 1.0

    def sx(v: float) -> float:
        return margin + (v - x0) / x_span * (width - 2 * margin)

    def sy(v: float) -> float:
        return height - margin - (v - y0) / y_span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" '
        f'height="{int(height)}" viewBox="0 0 {int(width)} {int(height)}">',
        f'<rect width="{int(width)}" height="{int(height)}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for k, ((label, _), line) in enumerate(zip(series, points)):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        text = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in line)
        parts.append(f'<polyline fill="none" stroke="{color}" points="{text}"/>')
        parts.append(f'<text x="{margin + 8}" y="{margin + 16 + 14 * k}" '
                     f'font-size="12" fill="{color}">{label}</text>')
    parts.append(f'<text x="{margin}" y="{height - margin + 28}" '
                 f'font-size="12">{names[0]}: {x0:.6g} .. {x1:.6g}</text>')
    parts.append(f'<text x="8" y="{margin - 12}" font-size="12">'
                 f'{y0:.6g} .. {y1:.6g}</text>')
    parts.append("</svg>")
    return parts


def _select(table: harness.LdpTable, names: Sequence[str]) -> dict[str, Sequence]:
    """The named columns of an LdpTable, in the given order."""
    columns = table.columns()
    return {name: columns[name] for name in names}


def _rows_table(cls, rows: Sequence[Any]) -> dict[str, list]:
    """One column per field of the dataclass cls, one row per record."""
    return {f.name: [getattr(row, f.name) for row in rows] for f in fields(cls)}


# --- option resolution --------------------------------------------------------


# Every option and the type its text is cast to, on the command line and in
# config files alike.  A tuple lists the allowed values; bool is a switch.
# --grid stays text until _grid parses it, so that a bad grid is a domain
# error (exit 1), not a usage error (exit 2).
_OPTIONS: dict[str, Any] = {
    "n": int, "p": float, "s": float, "side": ("left", "right"), "grid": str,
    "count": int, "beta": float, "sweeps": int, "burnin": int, "thinning": int,
    "step": float, "seed": int, "draws": int, "window": float,
    "config": str, "out": str, "svg": bool, "threads": int,
}

_HELP = {
    "n": "particle number (verify mgf: comma list of sizes)",
    "p": "exponent of the statistic (1/n) sum r_k^p (inf: the maximum)",
    "s": "tilt s of the equilibrium measure",
    "side": "tail of the edge rate function: left or right",
    "grid": "min:max:steps, steps points with both ends included",
    "count": "number of draws",
    "beta": "coupling (default 2)",
    "sweeps": "MCMC sweeps of n moves each, burn-in included",
    "burnin": "MCMC sweeps that adapt the step and record nothing",
    "thinning": "record the statistic every k-th sweep",
    "step": "MCMC initial proposal step; verify transition: difference step",
    "seed": f"random seed (default {DEFAULT_SEED})",
    "draws": "number of maxima drawn",
    "window": "half-width of the scanned tilt window around s = 0",
    "config": "key=value file; flags take precedence",
    "out": "output CSV path",
    "svg": "also write an SVG chart next to the CSV",
    "threads": "no effect; accepted for compatibility, as is OCP_THREADS",
}


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    config: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DomainError(f"config line without '=': {raw.strip()!r}")
                key, value = line.split("=", 1)
                config[key.strip()] = value.strip()
    except UnicodeDecodeError:
        raise DomainError(f"config file {path!r} is not UTF-8 text") from None
    return config


def _grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be min:max:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"grid must be min:max:steps, got {text!r}") from None
    if steps < 1 or not lo < hi or not math.isfinite(hi - lo):
        raise DomainError(f"grid needs steps >= 1 and finite min < max, "
                          f"got {text!r}")
    return [float(v) for v in np.linspace(lo, hi, steps)]


class _Resolver:
    """flags > config file > defaults, with config text cast as in _OPTIONS.

    A flag or config key that the command (and its target) does not read,
    as listed in _COMMANDS, is a domain error."""

    def __init__(self, args: SimpleNamespace):
        self.args = args
        self.config = _load_config(args.config)
        _, _, positional, reads = _COMMANDS[args.command]
        self.target = getattr(args, positional) if positional else None
        what = " ".join(str(v) for v in (args.command, self.target) if v)
        reads = reads[self.target].split()
        for name in _OPTIONS:
            if (name not in reads and name not in _COMMON
                    and getattr(args, name, None) is not None):
                raise DomainError(f"{what} does not read --{name}")
        for key in self.config:
            if key not in reads and key not in ("out", "threads"):
                raise DomainError(f"config key {key!r} is not an option of {what}")

    def get(self, name: str, cast: Callable[[str], Any] | None = None,
            default: Any = None):
        """--name; cast (default: its _OPTIONS type) parses text."""
        cast = cast or _OPTIONS[name]
        value = getattr(self.args, name, None)
        if value is None and name in self.config:
            value = self.config[name]
        if isinstance(value, str) and isinstance(cast, tuple):
            if value not in cast:
                raise DomainError(f"--{name} must be {' or '.join(cast)}, "
                                  f"got {value!r}")
        elif isinstance(value, str) and cast is not str:
            try:
                value = cast(value)
            except Ocp2dError:
                raise
            except ValueError as exc:
                raise DomainError(f"bad value for --{name}: {value!r}") from exc
        return default if value is None else value

    def require(self, name: str, cast: Callable[[str], Any] | None = None):
        value = self.get(name, cast)
        if value is None:
            raise DomainError(f"missing required option --{name}")
        return value

    def check_threads(self) -> None:
        """--threads or OCP_THREADS must be an integer >= 1 when given;
        both are accepted for compatibility and change nothing."""
        name, value = "--threads", self.get("threads")
        env = os.environ.get("OCP_THREADS")
        if value is None and env:
            name = "OCP_THREADS"
            try:
                value = int(env)
            except ValueError:
                raise DomainError(f"bad value for {name}: {env!r}") from None
        if value is not None:
            check_size(value, name)


# --- subcommand handlers ------------------------------------------------------
#
# Each takes the resolver and the --out path and returns (table, message).


def _cmd_rate(res: _Resolver, out: str):
    grid = res.require("grid", _grid)
    if res.args.target == "edge":
        fn = left_rate if res.get("side", default="left") == "left" else right_rate
        table = {"x": grid, "psi": [fn(x) for x in grid]}
    else:
        p = res.require("p")
        table = {"s": grid, "energy": [energy_excess(p, s) for s in grid],
                 "entropy": _entropy_grid(p, grid)}
    return table, f"wrote {len(grid)} rows to {out}"


def _cmd_eq(res: _Resolver, out: str | None):
    p = res.require("p")
    s = res.require("s")
    measure = equilibrium_measure(p, s)
    row = {"p": p, "s": s, "inner_radius": measure.inner_radius,
           "outer_radius": measure.outer_radius,
           "typical_value": typical_value(p, s),
           "energy_excess": energy_excess(p, s),
           "entropy_excess": entropy_excess(p, s)}
    table = {key: [value] for key, value in row.items()}
    return table, "\n".join(f"{key} = {_format_column(col)[0]}"
                            for key, col in table.items())


def _cmd_exact(res: _Resolver, out: str | None):
    which = res.args.target
    n = res.require("n")
    if which == "moment":
        p = res.require("p")
        value = exact_moment(n, p)
        return {"n": [n], "p": [p], "mean": [value]}, \
            f"mean = {_format_column([value])[0]}"
    grid = res.require("grid", _grid)
    if which == "edge-cdf":
        table = {"x": grid, "log_cdf": [edge_cdf_log(n, x) for x in grid]}
    elif which == "edge-pdf":
        table = {"x": grid, "log_pdf": [edge_pdf_log(n, x) for x in grid]}
    else:  # mgf
        p = res.require("p")
        results = _mgf_grid(n, p, grid)
        table = {"s": grid, "log_mgf": [r.log_value for r in results],
                 "estimated_relative_error":
                     [r.estimated_relative_error for r in results]}
    return table, f"wrote {len(grid)} rows to {out}"


def _cmd_sample(res: _Resolver, out: str):
    n = res.require("n")
    p = res.require("p")
    seed = res.get("seed", default=DEFAULT_SEED)
    if res.args.target == "kostlan":
        batch = sample_kostlan(n, res.require("count"), p, seed)
    else:
        batch = sample_mcmc(n, res.get("beta", default=2.0), res.require("sweeps"),
                            res.get("burnin", default=0),
                            res.get("thinning", default=1), p, seed,
                            res.get("step", default=0.25))
    return {"value": batch.values}, (
        f"{batch.sampler_id}: {batch.count} draws, mean {batch.mean():.6g} -> {out}")


def _cmd_verify(res: _Resolver, out: str):
    which = res.args.target

    if which == "left-tail":
        n = res.require("n")
        grid = res.require("grid", _grid)
        beta = res.get("beta", default=2.0)
        if beta == 2.0:
            for name in ("sweeps", "burnin", "thinning", "seed"):
                if res.get(name) is not None:
                    raise DomainError(f"verify left-tail at beta 2 is exact and "
                                      f"does not read --{name}")
            table = harness.left_tail_table(n, grid)
            note = ""
        else:
            table = harness.left_tail_mcmc_table(
                n, beta, grid,
                sweeps=res.get("sweeps", default=4000),
                burn_in=res.get("burnin", default=500),
                thinning=res.get("thinning", default=2),
                seed=res.get("seed", default=DEFAULT_SEED),
            )
            note = (f"; ESS {table.metadata['ess']:.0f} of "
                    f"{table.metadata['draws']} draws")
        worst = max(abs(r.residual) for r in table.rows)
        return table.columns(), (f"left tail n={n} beta={beta}: "
                       f"max |residual| {worst:.3e}{note}")

    if which == "right-tail":
        n = res.require("n")
        table = harness.right_tail_table(n, res.require("grid", _grid))
        worst = max(abs(r.residual) for r in table.rows)
        return table.columns(), f"right tail n={n}: max |residual| {worst:.3e}"

    if which == "mgf":
        p = res.require("p")
        beta = res.get("beta", default=2.0)
        if beta != 2.0:
            raise DomainError("the finite-n generating function exists only "
                              "at coupling 2; rerun with --beta 2")
        sizes = res.require("n", lambda text: [int(k) for k in text.split(",")])
        grid = res.require("grid", _grid)
        extracted, predicted = harness._subleading_fit(p, grid, sizes)
        residual = [e - q for e, q in zip(extracted, predicted)]
        table = {"s": grid, "extracted_coefficient": extracted,
                 "predicted_coefficient": predicted, "residual": residual,
                 "untested_beta_flag": [harness.untested_beta(beta)] * len(grid)}
        worst = max(abs(r) for r in residual)
        return table, f"subleading p={p} sizes={sizes}: max |residual| {worst:.3e}"

    if which == "cumulants":
        p = res.require("p")
        beta = res.get("beta", default=2.0)
        report = harness.cumulant_check(p, beta, res.require("n"))
        return (_rows_table(harness.CumulantRow, report.rows),
                f"cumulants p={p} beta={beta}: "
                f"{'pass' if report.all_passed else 'FAIL'}")

    if which == "gumbel":
        report = harness.gumbel_check(res.require("n"),
                                      res.get("draws", default=10_000),
                                      res.get("seed", default=DEFAULT_SEED))
        table = {"n": [report.n], "draws": [report.draws],
                 "ks_distance": [report.ks_distance], "low_n": [report.low_n]}
        note = " (low n)" if report.low_n else ""
        return table, (f"extreme-value check n={report.n}: "
                       f"KS {report.ks_distance:.4f}{note}")

    # transition
    p = res.require("p")
    report = harness.transition_scan(p, s_window=res.get("window", default=0.45),
                                     step=res.get("step"))
    unresolved = "" if report.resolvable else \
        f" (order {report.expected_order} not resolved)"
    return (_rows_table(harness.TransitionRow, report.rows),
            f"transition scan p={p}: expected order {report.expected_order}, "
            f"detected {report.detected_order}{unresolved}")


def _cmd_fig(res: _Resolver, out: str):
    which = res.args.number
    n = res.get("n", default=250 if which <= 2 else 50)
    if which == 1:
        left = harness.left_tail_table(n, _grid("0.30:0.99:70")).columns()
        right = harness.right_tail_table(n, _grid("1.05:2.5:60")).columns()
        table = {"side": ["left"] * len(left["x"]) + ["right"] * len(right["x"]),
                 **{name: left[name] + right[name] for name in
                    ("x", "finite_n_value", "prediction", "residual")}}
    elif which == 2:
        table = _select(harness.left_tail_table(n, _grid("0.1:0.99:90")),
                        ["x", "scaled_gap", "scaled_gap_prediction"])
    else:
        p, grid_text = (1.0, "-3:5:65") if which == 3 else (2.0, "-0.45:5:60")
        table = _select(harness.mgf_table(n, p, _grid(grid_text)),
                        ["s", "finite_n_value", "prediction", "residual",
                         "subleading_gap", "subleading_prediction"])
    rows = len(next(iter(table.values())))
    return table, f"figure {which}: wrote {rows} rows to {out}"


# --- parser and dispatch ------------------------------------------------------


# Per subcommand: handler, help, positional argument, and for each value of
# the positional (None without one) the options that value reads.  Every
# subcommand also takes the _COMMON options.
_COMMANDS: dict[str, tuple[Callable, str, str | None, dict[Any, str]]] = {
    "rate": (_cmd_rate, "tabulate rate functions", "target",
             {"edge": "side grid", "moment": "p grid"}),
    "eq": (_cmd_eq, "summarize one tilted equilibrium", None, {None: "p s"}),
    "exact": (_cmd_exact, "finite-n formulas at coupling 2", "target",
              {"edge-cdf": "n grid", "edge-pdf": "n grid", "mgf": "n p grid",
               "moment": "n p"}),
    "sample": (_cmd_sample, "draw radial statistics", "target",
               {"kostlan": "n p count seed",
                "mcmc": "n p beta sweeps burnin thinning step seed"}),
    "verify": (_cmd_verify, "run a verification pipeline", "target",
               {"left-tail": "n grid beta sweeps burnin thinning seed",
                "right-tail": "n grid",
                "mgf": "n p beta grid",
                "cumulants": "n p beta",
                "gumbel": "n draws seed",
                "transition": "p window step"}),
    "fig": (_cmd_fig, "reproduce a figure data set", "number",
            dict.fromkeys((1, 2, 3, 4), "n")),
}
_COMMON = ("config", "out", "svg", "threads")

# Commands that print their result, for which --out is optional.
_OUT_OPTIONAL = {("eq", None), ("exact", "moment")}


def _flags(command: str) -> dict[str, Any]:
    """The options of a subcommand, in parser order (those its targets read,
    then _COMMON), each with its _OPTIONS kind; verify --n stays text: a
    size, or a comma list for verify mgf."""
    reads = _COMMANDS[command][3]
    names = dict.fromkeys([*" ".join(reads.values()).split(), *_COMMON])
    return {name: str if (command, name) == ("verify", "n") else _OPTIONS[name]
            for name in names}


def _cast(kind: Any, text: str) -> Any:
    """text cast as the parser casts it: by kind, or to the type of a tuple
    kind's values and then checked to be one of them; ValueError otherwise."""
    if not isinstance(kind, tuple):
        return kind(text)
    value = type(kind[0])(text)
    if value not in kind:
        raise ValueError(f"{text!r} is not one of {kind}")
    return value


def _is_value(token: str) -> bool:
    """Whether the parser reads token as a value: it does not start with
    '-', or it is a negative number (-5, -.5, -0.4; no option looks like
    one)."""
    if not token.startswith("-"):
        return True
    whole, dot, frac = token[1:].partition(".")
    if dot:
        return frac.isdecimal() and (not whole or whole.isdecimal())
    return whole.isdecimal()


def _parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """Plain argv read from the command tables into the namespace the parser
    would return; None for anything else: help, an unknown or abbreviated
    name, '--', a value that starts with '-' and is not a number, --svg=...,
    a failed cast or choice, or a positional too many or too few."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, *tokens = argv
    handler, _, positional, reads = _COMMANDS[command]
    flags = _flags(command)
    values = {name: False if kind is bool else None
              for name, kind in flags.items()}
    targets = []
    stream = iter(tokens)
    for token in stream:
        if _is_value(token):
            targets.append(token)
            continue
        name, eq, text = token[2:].partition("=")
        kind = flags.get(name) if token.startswith("--") else None
        if kind is bool and not eq:
            values[name] = True
            continue
        if kind is None or kind is bool:
            return None
        if not eq:
            text = next(stream, None)
            if text is None or not _is_value(text):
                return None
        try:
            values[name] = _cast(kind, text)
        except ValueError:
            return None
    if len(targets) != (positional is not None):
        return None
    args = SimpleNamespace(command=command, handler=handler, **values)
    if positional:
        try:
            setattr(args, positional, _cast(tuple(reads), targets[0]))
        except ValueError:
            return None
    return args


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first need; every run that needs
    it shares it, so callers must not modify it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ocp2d",
        description="Radial statistics of the trapped 2D log-gas: rate "
                    "functions, finite-n formulas, samplers, verification "
                    "pipelines, and figure data sets.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, positional, reads) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        if positional:
            choices = tuple(reads)
            sub.add_argument(positional, type=type(choices[0]), choices=choices)
        for flag, kind in _flags(name).items():
            spec = ({"action": "store_true"} if kind is bool else
                    {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
            sub.add_argument(f"--{flag}", help=_HELP[flag], **spec)
        sub.set_defaults(handler=handler)
    return parser


def run(argv: Sequence[str]) -> int:
    """Execute one subcommand; 0 on success, 1 on domain/runtime/file
    errors, 2 on usage errors.  Plain argv is read from the command tables;
    the rest goes to build_parser(), which gives help and usage errors."""
    args = _parse(argv)
    if args is None:
        try:
            args = SimpleNamespace(**vars(build_parser().parse_args(list(argv))))
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        res = _Resolver(args)
        res.check_threads()
        optional = (args.command, res.target) in _OUT_OPTIONAL
        out = res.get("out") if optional else res.require("out")
        chart = os.path.splitext(out)[0] + ".svg" if args.svg and out else None
        if chart and os.path.abspath(chart) == os.path.abspath(out):
            raise DomainError(f"--svg would overwrite the CSV at {out}: "
                              "give --out a name that does not end in .svg")
        table, message = args.handler(res, out)
        svg = _svg_lines(table) if args.svg else None
        if out or not optional:
            emit_csv(table, out)
            if svg:
                _write_atomic(chart, svg)
        print(message)
        return 0
    except (Ocp2dError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
