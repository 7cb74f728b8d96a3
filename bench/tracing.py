"""Spans for the benchmark, and the layer wrappers of its traced rounds.

A span records a name, its start and end (``time.perf_counter``), the span
open when it started (its parent) and a request id shared by every span one
benchmark operation (a solve, an RFQ, a simulation, an adjusted quote) causes.
Spans stay in memory; ``Tracer.write`` dumps them when the run ends.

The benchmark always records its own spans around the calls it makes into
the package.  Inside :func:`layers` it also records a span at each module
boundary below those calls, by replacing the names the package looks up at
call time (``rfqmm.solver.batch_quote_kernel`` and so on); nothing under
``src/`` changes.  A layer's self time is its span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import Counter, defaultdict

import rfqmm.factors
import rfqmm.quotes
import rfqmm.residual
import rfqmm.simulator
import rfqmm.solver


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name, parent, request, attrs):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.request = request
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span log; ``enabled`` gates the layer wrappers only."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._requests = 0
        self.enabled = True

    @contextlib.contextmanager
    def span(self, name: str, new_request: bool = False, **attrs):
        """Time the block; yields the span's attribute dict for counts."""
        parent = self._open[-1] if self._open else -1
        if new_request:
            self._requests += 1
            request = self._requests
        else:
            request = self.spans[parent].request if parent >= 0 else 0
        s = Span(name, parent, request, attrs)
        self._open.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        try:
            yield s.attrs
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def paused(self):
        """Let wrapped calls through unrecorded (output checks run here)."""
        before, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = before

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, s in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "request": s.request,
                }
                record.update(s.attrs)
                fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")


def simulation_counts(result) -> dict:
    """Counts the simulator reports per run, summed over paths."""
    return {
        "paths": len(result.paths),
        "fills": int(sum(int(p.n_fills.sum()) for p in result.paths)),
        "refused": int(sum(p.refused_quotes for p in result.paths)),
        "rejected": int(sum(p.rejected_fills for p in result.paths)),
    }


def _kernel_counts(attrs, args, kwargs, out):
    attrs["elems"] = int(out[0].size)


def _quote_rows_counts(attrs, args, kwargs, out):
    ok = out[1]
    attrs["rows"] = int(ok.size)
    attrs["refused"] = int(ok.size - ok.sum())


def _draw_counts(attrs, args, kwargs, out):
    attrs["events"] = int(out.n_events)


def _simulate_counts(attrs, args, kwargs, out):
    attrs["engine"] = out.engine
    attrs["origin"] = "residual"
    attrs.update(simulation_counts(out))


# (owner, attribute, span name, counts taken from the call's result)
_LAYERS = (
    (rfqmm.factors, "jacobi_eigendecomposition", "factors.jacobi", None),
    (rfqmm.solver, "batch_quote_kernel", "hamiltonian.kernel", _kernel_counts),
    (rfqmm.solver.ValueSurface, "value_many", "quotes.interp", None),
    (rfqmm.quotes.SurfacePolicy, "quote_rows", "quotes.quote_rows", _quote_rows_counts),
    (rfqmm.quotes.MyopicPolicy, "quote_rows", "quotes.quote_rows", _quote_rows_counts),
    (rfqmm.simulator, "draw_path_events", "events.draw", _draw_counts),
    (rfqmm.residual, "simulate", "simulate", _simulate_counts),
    (rfqmm.residual, "residual_correction", "residual.correction", None),
    (rfqmm.residual, "correction_samples", "residual.samples", None),
)


def _wrap(tracer: Tracer, name: str, fn, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        with tracer.span(name) as attrs:
            out = fn(*args, **kwargs)
        if counts is not None:
            counts(attrs, args, kwargs, out)
        return out

    return wrapper


@contextlib.contextmanager
def layers(tracer: Tracer):
    """Record a span at every module boundary for the duration of the block."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _LAYERS]
    try:
        for (owner, attr, name, counts), (_, _, fn) in zip(_LAYERS, originals):
            setattr(owner, attr, _wrap(tracer, name, fn, counts))
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def self_times(spans: list[Span], first: int, last: int, root: str) -> dict[str, float]:
    """Self time per span name over every span at or below a ``root`` span.

    The values add up to the total duration of the ``root`` spans, which is
    how the traced run shows that its layers account for that time.
    """
    covered = defaultdict(float)
    for i in range(first, last):
        p = spans[i].parent
        if p >= 0:
            covered[p] += spans[i].duration
    out = defaultdict(float)
    for i in range(first, last):
        j = i
        while j >= 0 and spans[j].name != root:
            j = spans[j].parent
        if j >= 0:
            out[spans[i].name] += spans[i].duration - covered[i]
    return dict(out)


PER_LAYER_UNITS = {
    "factors.jacobi_calls": "count",
    "factors.jacobi_s": "s",
    "solver.steps": "count",
    "solver.rows": "count",
    "solver.nodes": "count",
    "solver.self_ms_per_step": "ms",
    "solver.stencil_mb": "MB-computed",
    "hamiltonian.kernel_calls": "count",
    "hamiltonian.kernel_elems": "count",
    "hamiltonian.kernel_s": "s",
    "hamiltonian.kernel_ns_per_elem": "ns",
    "hamiltonian.kernel_share": "ratio",
    "quotes.quote_rows_calls": "count",
    "quotes.rows": "count",
    "quotes.quote_rows_s": "s",
    "quotes.rows_per_s": "1/s",
    "quotes.interp_s": "s",
    "quotes.refusal_ratio": "ratio",
    "quotes.share_of_simulate": "ratio",
    "events.paths": "count",
    "events.events": "count",
    "events.draw_s": "s",
    "events.events_per_s": "1/s",
    "events.share_of_simulate": "ratio",
    "simulator.self_s": "s",
    "simulator.fills": "count",
    "simulator.fill_ratio": "ratio",
    "simulator.refused_quotes": "count",
    "simulator.rejected_fills": "count",
    "simulator.price_paths.events_per_s": "1/s",
    "simulator.collapsed.events_per_s": "1/s",
    "residual.mc_runs": "count",
    "residual.mc_paths": "count",
    "residual.correction_s": "s",
    "residual.samples_s": "s",
    "residual.paths_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else float("nan")


def setup_metrics(spans: list[Span], setups: list[int]) -> dict[str, float]:
    """Jacobi calls and time per set-up, as medians over the traced set-ups."""
    calls, secs = Counter(), defaultdict(float)
    traced = set(setups)
    for s in spans:
        if s.name == "factors.jacobi" and s.parent in traced:
            calls[s.parent] += 1
            secs[s.parent] += s.duration
    return {
        "factors.jacobi_calls": statistics.median(calls[i] for i in setups),
        "factors.jacobi_s": statistics.median(secs[i] for i in setups),
    }


def round_metrics(spans: list[Span], first: int, last: int) -> dict[str, float]:
    """Per-layer metrics of one traced round (spans ``first``..``last``)."""
    by = defaultdict(list)
    for i in range(first, last):
        by[spans[i].name].append(spans[i])

    def total(name, keep=lambda s: True):
        return sum(s.duration for s in by[name] if keep(s))

    def count(name, key, keep=lambda s: True):
        return sum(s.attrs[key] for s in by[name] if keep(s))

    solves = by["solve"]
    solve_s = total("solve")
    kernel_s = total("hamiltonian.kernel")
    elems = count("hamiltonian.kernel", "elems")
    steps = sum(s.attrs["steps"] for s in solves)
    largest = max(solves, key=lambda s: s.attrs["stencil_bytes"])

    sim_s = total("simulate")
    quote_rows_s = total("quotes.quote_rows")
    draw_s = total("events.draw")
    rows = count("quotes.quote_rows", "rows")
    rfqs = len(by["rfq"])
    refused = count("quotes.quote_rows", "refused") + count("rfq", "refused")
    events = count("events.draw", "events")

    def engine_is(*engines):
        return lambda s: s.attrs["engine"] in engines

    def from_residual(s):
        return s.attrs["origin"] == "residual"

    fills = count("simulate", "fills", engine_is("thinning", "price_paths"))
    price_paths_events = sum(
        s.attrs["events"] for s in by["events.draw"]
        if spans[s.parent].attrs["engine"] == "price_paths"
    )
    mc_paths = count("simulate", "paths", from_residual)
    correction_s = total("residual.correction")

    return {
        "solver.steps": steps,
        "solver.rows": largest.attrs["rows"],
        "solver.nodes": largest.attrs["nodes"],
        "solver.self_ms_per_step": 1e3 * (solve_s - kernel_s) / steps,
        "solver.stencil_mb": largest.attrs["stencil_bytes"] / 2**20,
        "hamiltonian.kernel_calls": len(by["hamiltonian.kernel"]),
        "hamiltonian.kernel_elems": elems,
        "hamiltonian.kernel_s": kernel_s,
        "hamiltonian.kernel_ns_per_elem": 1e9 * _ratio(kernel_s, elems),
        "hamiltonian.kernel_share": _ratio(kernel_s, solve_s),
        "quotes.quote_rows_calls": len(by["quotes.quote_rows"]),
        "quotes.rows": rows,
        "quotes.quote_rows_s": quote_rows_s,
        "quotes.rows_per_s": _ratio(rows, quote_rows_s),
        "quotes.interp_s": total("quotes.interp"),
        "quotes.refusal_ratio": _ratio(refused, rows + rfqs),
        "quotes.share_of_simulate": _ratio(quote_rows_s, sim_s),
        "events.paths": len(by["events.draw"]),
        "events.events": events,
        "events.draw_s": draw_s,
        "events.events_per_s": _ratio(events, draw_s),
        "events.share_of_simulate": _ratio(draw_s, sim_s),
        "simulator.self_s": sim_s - draw_s - quote_rows_s,
        "simulator.fills": fills,
        "simulator.fill_ratio": _ratio(fills, events),
        "simulator.refused_quotes": count("simulate", "refused"),
        "simulator.rejected_fills": count("simulate", "rejected"),
        "simulator.price_paths.events_per_s": _ratio(
            price_paths_events, total("simulate", engine_is("price_paths"))
        ),
        "simulator.collapsed.events_per_s": _ratio(
            count("simulate", "fills", engine_is("collapsed")),
            total("simulate", engine_is("collapsed")),
        ),
        "residual.mc_runs": sum(1 for s in by["simulate"] if from_residual(s)),
        "residual.mc_paths": mc_paths,
        "residual.correction_s": correction_s,
        "residual.samples_s": total("residual.samples"),
        "residual.paths_per_s": _ratio(mc_paths, correction_s),
    }
