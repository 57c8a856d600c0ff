"""Span recorder for the traced run.

The recorder wraps the public functions of each ocp2d layer at the module
bindings where callers look them up (the package uses ``from .x import y``,
so ``ocp2d.exact.log_reg_lower_gamma`` and ``ocp2d.harness.edge_cdf_log``
are separate bindings).  A wrapped call records one span: name, start, end,
parent and thread.  Calls inside a layer's own module are not wrapped, so a
span is a call *into* the layer.  The harness is the exception: the CLI
reaches it through the module object, so the harness module's own bindings
are wrapped too.

Spans stay in memory until the pass ends.  Self time splits wall time
between the spans that are running: at each instant the innermost active
span of every thread that has one, unless a child runs on another thread,
gets an equal share.  On one thread this is the span's duration minus the
union of its children; with pool workers it keeps the layer times summing
to the wall time instead of counting each worker's share twice.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict

from stats import ess

perf = time.perf_counter

# Harness results and the number of table rows each stands for.
_HARNESS_ROWS = {
    "left_tail_table": len,
    "right_tail_table": len,
    "left_tail_mcmc_table": len,
    "mgf_table": len,
    "extract_subleading": lambda result: 1,
    "gumbel_check": lambda result: 1,
    "cumulant_check": lambda result: len(result.rows),
    "transition_scan": lambda result: len(result.rows),
}


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "info")

    def __init__(self, sid, name, parent, thread, start):
        self.id = sid
        self.name = name
        self.parent = parent      # id of the parent span, or -1
        self.thread = thread
        self.start = start
        self.end = start
        self.info = None


def layer_of(name: str) -> str:
    """Layer a span name belongs to, e.g. exact.mgf_log -> exact.mgf."""
    module, _, func = name.partition(".")
    if module == "exact":
        return {"edge_cdf_log": "exact.edge", "edge_pdf_log": "exact.edge",
                "mgf_log": "exact.mgf"}.get(func, "exact.other")
    if module == "sampling":
        return {"sample_mcmc": "sampling.mcmc",
                "sample_kostlan": "sampling.kostlan"}.get(func, "sampling.other")
    return module


class Recorder:
    """Collects spans from every thread; install() patches the bindings and
    uninstall() restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._pool: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1].id
        else:  # first span on a pool worker: the pool's span caused it
            parent = self._pool[-1].id if self._pool else -1
        span = Span(next(self._ids), name, parent, threading.get_ident(), perf())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf()
        self._local.stack.pop()
        self.spans.append(span)

    def _wrap(self, fn, name: str, annotate=None, pool: bool = False):
        begin, end, pools = self.begin, self.end, self._pool

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = begin(name)
            if pool:
                pools.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                if pool:
                    pools.pop()
                end(span)
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        from ocp2d import cli, edge, equilibrium, exact, harness, sampling, specfun

        modules = (specfun, exact, equilibrium, sampling, harness, edge, cli)
        wrappers = {}
        for layer, mod in (("specfun", specfun), ("exact", exact),
                           ("equilibrium", equilibrium), ("sampling", sampling),
                           ("harness", harness)):
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    wrappers[fn] = (mod, self._wrap(fn, f"{layer}.{attr}",
                                                    _annotator(layer, attr, fn)))
        fn = harness._map_ordered
        wrappers[fn] = (harness, self._wrap(fn, "harness._map_ordered", pool=True))
        fn = cli.emit_csv
        wrappers[fn] = (None, self._wrap(fn, "cli.emit_csv", _emit_bytes))

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(value) if inspect.isfunction(value) else None
                if hit is None:
                    continue
                home, wrapper = hit
                if mod is home and mod is not harness:
                    continue
                self._patches.append((mod, attr, value))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def write(self, path: str, origin: float) -> None:
        """Write the spans as gzip'd CSV, times in seconds from origin."""
        threads = {}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,thread,name,start_s,end_s\n")
            for s in sorted(self.spans, key=lambda s: s.id):
                tid = threads.setdefault(s.thread, len(threads))
                fh.write(f"{s.id},{s.parent},{tid},{s.name},"
                         f"{s.start - origin:.9f},{s.end - origin:.9f}\n")


def _annotator(layer: str, attr: str, fn):
    sig = inspect.signature(fn)

    def bound(args, kwargs):
        return sig.bind(*args, **kwargs).arguments

    if layer == "exact" and attr in ("edge_cdf_log", "edge_pdf_log"):
        return lambda a, k, r: {"factors": int(bound(a, k)["n"])}
    if layer == "exact" and attr == "mgf_log":
        return lambda a, k, r: {"factors": int(bound(a, k)["n"]),
                                "err": float(r.estimated_relative_error)}
    if layer == "sampling" and attr == "sample_mcmc":
        def mcmc(a, k, r):
            moves = int(bound(a, k)["sweeps"]) * int(r.n)
            return {"moves": moves,
                    "accepted": r.metadata["acceptance_rate"] * moves,
                    "values": r.values}
        return mcmc
    if layer == "sampling" and attr == "sample_kostlan":
        def kostlan(a, k, r):
            args = bound(a, k)
            return {"variates": int(args["n"]) * int(args["count"])}
        return kostlan
    if layer == "harness" and attr in _HARNESS_ROWS:
        rows = _HARNESS_ROWS[attr]
        return lambda a, k, r: {"rows": rows(r)}
    return None


def _emit_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span (see the module docstring)."""
    events = []
    for s in spans:
        events.append((s.start, 1, s.id, s))
        events.append((s.end, 0, -s.id, s))  # at a tie, ends first, inner first
    events.sort(key=lambda e: e[:3])
    active_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    leaves: set[int] = set()
    own: dict[int, float] = defaultdict(float)
    last = None
    for t, kind, _, s in events:
        if leaves:
            share = (t - last) / len(leaves)
            for sid in leaves:
                own[sid] += share
        last = t
        parent = s.parent if s.parent in active else None
        if kind == 1:
            active.add(s.id)
            leaves.add(s.id)
            if parent is not None:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(s.id)
            leaves.discard(s.id)
            if parent is not None:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    leaves.add(parent)
    return own


def layer_metrics(spans: list[Span], commands) -> dict[str, float]:
    """The per-layer metrics of one traced pass (seconds, counts, ratios)."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sums: dict[str, float] = defaultdict(float)
    cmd_s = {c: 0.0 for c in commands}
    busy = outer = 0.0
    max_err = 0.0
    mcmc_ess = 0.0
    for s in spans:
        layer = layer_of(s.name)
        self_s[layer] += own[s.id]
        calls[layer] += 1
        info = s.info or {}
        for key in ("factors", "moves", "accepted", "variates", "rows", "bytes"):
            if key in info:
                sums[f"{layer}.{key}"] += info[key]
        if "err" in info:
            max_err = max(max_err, info["err"])
        if "values" in info:
            mcmc_ess += ess(info["values"])
        if s.name == "cli.run":
            cmd_s[info["cmd"]] += s.end - s.start
        if s.name == "cli.emit_csv":
            sums["cli.emit_s"] += own[s.id]
        if s.name == "equilibrium.entropy_excess":
            sums["equilibrium.quad_calls"] += 1
        parent = by_id.get(s.parent)
        in_harness = parent is not None and layer_of(parent.name) == "harness"
        if layer == "harness" and not in_harness:
            outer += s.end - s.start
        elif layer != "harness" and in_harness:
            busy += s.end - s.start

    def ratio(a: float, b: float, unit: float = 1.0) -> float:
        return a / b * unit if b else 0.0

    edge_factors = sums["exact.edge.factors"]
    mgf_factors = sums["exact.mgf.factors"]
    moves = sums["sampling.mcmc.moves"]
    variates = sums["sampling.kostlan.variates"]
    m = {
        "specfun.calls": calls["specfun"],
        "specfun.self_s": self_s["specfun"],
        "exact.edge.calls": calls["exact.edge"],
        "exact.edge.factors": edge_factors,
        "exact.edge.self_s": self_s["exact.edge"],
        "exact.edge.us_per_factor": ratio(self_s["exact.edge"] + self_s["specfun"],
                                          edge_factors, 1e6),
        "exact.mgf.calls": calls["exact.mgf"],
        "exact.mgf.factors": mgf_factors,
        "exact.mgf.self_s": self_s["exact.mgf"],
        "exact.mgf.us_per_factor": ratio(self_s["exact.mgf"], mgf_factors, 1e6),
        "exact.mgf.max_est_rel_err": max_err,
        "equilibrium.calls": calls["equilibrium"],
        "equilibrium.quad_calls": sums["equilibrium.quad_calls"],
        "equilibrium.self_s": self_s["equilibrium"],
        "sampling.mcmc.moves": moves,
        "sampling.mcmc.self_s": self_s["sampling.mcmc"],
        "sampling.mcmc.us_per_move": ratio(self_s["sampling.mcmc"], moves, 1e6),
        "sampling.mcmc.acceptance": ratio(sums["sampling.mcmc.accepted"], moves),
        "sampling.mcmc.ess": mcmc_ess,
        "sampling.mcmc.ess_per_s": ratio(mcmc_ess, self_s["sampling.mcmc"]),
        "sampling.kostlan.variates": variates,
        "sampling.kostlan.self_s": self_s["sampling.kostlan"],
        "sampling.kostlan.ns_per_variate": ratio(self_s["sampling.kostlan"],
                                                 variates, 1e9),
        "harness.rows": sums["harness.rows"],
        "harness.self_s": self_s["harness"],
        "harness.pool_overlap": ratio(busy, outer),
        "cli.self_s": self_s["cli"],
        "cli.emit_s": sums["cli.emit_s"],
        "cli.csv_bytes": sums["cli.bytes"],
    }
    for name, seconds in cmd_s.items():
        m[f"cli.cmd.{name}_s"] = seconds
    m["trace.self_sum_s"] = sum(self_s.values())
    return m
