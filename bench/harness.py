"""Benchmark of the rfqmm pipeline, one workload per process.

A run repeats rounds for ``--seconds``.  Each round runs the surface solves,
then interleaves the rest: a closed-loop stream of single RFQs answered by
``optimal_quote`` (one client) in chunks, with the set-ups, the simulations
and a few ``adjusted_quote`` calls between the chunks (see ``schedule``).
The 30-asset workload ends with one large myopic back-test, which sets its
peak memory.  Every call goes through the public API of the package.  The
outputs of every round are checked; a failed check or an exception counts as
a failed operation and makes the run exit with code 1.  The set-up time is
the median set-up; every other timing is a high quantile over the run's
samples, and the RFQ percentiles are taken over the RFQs, each timed over
the rounds (see ``end_to_end_metrics``).

All inputs are made from ``--seed``: the RFQ stream, the simulation seed and
the RFQs to adjust.  The solves are seed-free, so their origin values are
compared against references recorded for each workload.

With ``--trace 1`` rounds alternate between untraced and traced; the traced
ones wrap every module boundary (see ``tracing.py``) and give the per-layer
metrics, and the difference in round time between the two kinds is reported
as the tracing overhead.  The spans are written to ``.bench_out/``.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import scipy

import rfqmm
from rfqmm.events import BucketTable, draw_path_events, path_generator
from rfqmm.residual import correction_samples
from rfqmm.simulator import total_variance_gap

import tracing

ROOT = Path(__file__).resolve().parent.parent

#: relative tolerance of a solve's origin value against its reference; the
#: solver is deterministic, so this only absorbs last-digit differences
#: between BLAS builds
ORIGIN_RTOL = 1e-9
#: optimal_quote against SurfacePolicy.quote_rows on the same rows
QUOTE_RTOL = 1e-12
#: pnl = spread + market per path; exact in the scalar engines, and the
#: acceptance suite's tolerance for the price-path engine's separate books
PNL_RTOL, PNL_ATOL = 1e-8, 1e-6
#: total-variance gap band in standard errors.  The acceptance suite uses 3
#: on one fixed seed; every benchmark run draws a new seed and checks several
#: simulations, so 3 would fail about once in 370 checks by chance alone.
GAP_BAND = 5.0
#: fewest paths for which the total-variance band is meaningful
GAP_MIN_PATHS = 100

MIN_ROUNDS = 3
#: pause before the RFQ stream.  OpenBLAS worker threads spin for about a
#: tenth of a second after a threaded call; on a 2-core box they then take
#: turns with the quoting thread and stall the first ~100 quotes after a
#: solve by ~4.5 ms each, which decides the tail.  The pause lets the stream
#: measure steady-state quoting; it is left out of run_s.
BLAS_IDLE_S = 0.25
#: RFQs to adjust, taken in turn by the rounds, so a run's adjustment
#: times cover several trades and states rather than one
ADJUST_POOL = 8


@dataclass(frozen=True)
class Sim:
    label: str
    engine: str
    paths: int
    surface: int | None  # index into Workload.factors; None quotes myopically


@dataclass(frozen=True)
class Workload:
    config: str  # bundled configuration file
    solve_horizon: float  # horizon of the solves, in days
    horizon: float  # horizon of the simulations, in days
    adjust_horizon: float  # horizon of the adjusted quotes, in days
    nodes: int  # grid nodes per axis
    factors: tuple[int, ...]  # one solve per entry; the first surface quotes
    origin_values: tuple[float, ...]  # reference origin value per solve
    rfqs: int  # optimal_quote calls per round
    rfq_chunks: int  # the RFQ stream's chunks, with other work between them
    setups: int  # set-ups per round
    sims: tuple[Sim, ...]
    adjust_surface: int  # index into factors
    adjust_paths: int
    adjusts: int  # adjusted quotes per round
    backtest_paths: int = 0  # once per run, after the rounds; 0 for none
    backtest_s: float = 0.0  # about how long the back-test takes, kept free


# Horizons are cut so that a round takes seconds.  The solves are cut
# hardest: the solver's work per step does not depend on the horizon, and the
# full 30-asset solve alone takes minutes.  Simulations keep a horizon of one
# or two days, because events per path decide where simulation time goes (at
# a few events per path, drawing them dominates).  The adjusted quotes run at
# a quarter of that, so that a round holds several of them: the thinning
# engine steps all paths together, one event at a time, so an adjusted
# quote's time follows the events per path far more than the path count.
# The myopic back-test of the 30-asset workload stresses event drawing, the
# event loop and memory without touching the solver or the surface.  Once per
# run it also runs at the full two-day horizon with the price-path engine on
# 2000 paths, which sets the run's peak memory (about 1.35 GB against about
# 310 MB for the rounds), so that peak_rss_mb follows simulator memory.
WORKLOADS = {
    "paper-2asset": Workload(
        config="paper_2asset.yaml",
        solve_horizon=0.15,
        horizon=2.0,
        adjust_horizon=0.5,
        nodes=141,
        # k=1 as well: with two assets the k=2 model has no residual to adjust
        factors=(2, 1),
        origin_values=(935.7015529612847, 936.0104833495615),
        rfqs=1000,
        rfq_chunks=8,
        setups=40,
        sims=(
            Sim("optimal", "thinning", 200, 0),
            Sim("myopic", "thinning", 200, None),
            Sim("one_factor", "thinning", 200, 1),
            Sim("optimal_price_paths", "price_paths", 200, 0),
            Sim("optimal_collapsed", "collapsed", 4, 0),
        ),
        adjust_surface=1,
        adjust_paths=200,
        adjusts=4,
    ),
    "paper-30asset": Workload(
        config="paper_30asset.yaml",
        solve_horizon=0.006,
        horizon=1.0,
        adjust_horizon=0.25,
        nodes=71,
        factors=(2,),
        origin_values=(188.6303281172783,),
        rfqs=1000,
        rfq_chunks=8,
        setups=10,
        sims=(
            Sim("optimal", "thinning", 100, 0),
            Sim("backtest", "thinning", 100, None),
            Sim("backtest_price_paths", "price_paths", 100, None),
            Sim("backtest_collapsed", "collapsed", 2, None),
        ),
        adjust_surface=0,
        adjust_paths=25,
        adjusts=4,
        backtest_paths=2000,
        backtest_s=12.0,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "rfq_quote_p50_us": "us",
    "rfq_quote_p99_us": "us",
    "sim_events_per_s": "1/s",
    "adjust_quote_s": "s",
    "peak_rss_mb": "MB",
    "run_s": "s",
}

@dataclass
class Setup:
    market: rfqmm.MarketSpec
    short: rfqmm.MarketSpec  # horizon of the solves
    adjust: rfqmm.MarketSpec  # horizon of the adjusted quotes
    full: rfqmm.MarketSpec  # bundled horizon, for the back-test
    models: list  # (factor model, grid) per entry of Workload.factors


@dataclass
class Inputs:
    rfq_q: np.ndarray
    rfq_asset: np.ndarray
    rfq_side: np.ndarray
    rfq_size: np.ndarray
    sim_seed: int
    adjusts: list  # (inventory, asset, side, size, seed), taken in turn by the rounds


class Tally:
    """Benchmark operations attempted and failed; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed += 1
            print(f"check failed: {message}", file=sys.stderr)


def set_up(spec: Workload) -> Setup:
    """Config parse and validation, factor models and grids; no solve."""
    path = Path(str(resources.files("rfqmm.configs").joinpath(spec.config)))
    bundled, _ = rfqmm.load_config(path)
    report = rfqmm.validate_hypotheses(bundled)
    if not report.passed:
        raise rfqmm.ValidationError("; ".join(report.failures()))
    models = []
    for k in spec.factors:
        fm = rfqmm.build_factor_model(bundled.covariance, k)
        models.append((fm, rfqmm.FactorGrid.from_factor_model(fm, bundled.risk_limit, spec.nodes)))
    return Setup(
        dataclasses.replace(bundled, horizon=spec.horizon),
        dataclasses.replace(bundled, horizon=spec.solve_horizon),
        dataclasses.replace(bundled, horizon=spec.adjust_horizon),
        bundled,
        models,
    )


def _inventories(rng, market, n: int, share: float) -> np.ndarray:
    """Uniform draws from the ellipsoid q' Sigma q <= share * risk_limit."""
    d = market.n_assets
    u = rng.standard_normal((n, d))
    u *= rng.uniform(size=(n, 1)) ** (1.0 / d) / np.linalg.norm(u, axis=1, keepdims=True)
    chol = np.linalg.cholesky(market.covariance)
    # q' Sigma q = |L' q|^2, so q = L'^-1 u has q' Sigma q = |u|^2 <= 1
    return np.linalg.solve(chol.T, u.T).T * math.sqrt(share * market.risk_limit)


def _trades(rng, market, n: int):
    asset = rng.integers(market.n_assets, size=n)
    side = rng.integers(2, size=n)
    size = np.empty(n)
    for i in range(n):
        dist = market.assets[asset[i]].sizes(("bid", "ask")[side[i]])
        size[i] = rng.choice(dist.sizes, p=dist.probabilities)
    return asset, side, size


def make_inputs(spec: Workload, market, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    q = _inventories(rng, market, spec.rfqs, 1.0)
    asset, side, size = _trades(rng, market, spec.rfqs)
    sim_seed = int(rng.integers(2**31))
    # Adjusted quotes start inside a quarter of the risk radius: a trade of
    # the largest bundled size then stays inside the limit and the grid, so
    # no adjusted quote is refused and every one runs its simulations.
    aq = _inventories(rng, market, ADJUST_POOL, 1.0 / 16.0)
    a_asset, a_side, a_size = _trades(rng, market, ADJUST_POOL)
    adjusts = [
        (aq[i], int(a_asset[i]), ("bid", "ask")[a_side[i]], float(a_size[i]),
         int(rng.integers(2**31)))
        for i in range(ADJUST_POOL)
    ]
    return Inputs(q, asset, side, size, sim_seed, adjusts)


def thinning_arrivals(market, paths: int, seed: int) -> int:
    """Arrivals a ``thinning`` run of ``paths`` paths from ``seed`` draws."""
    buckets = BucketTable.from_market(market)
    return sum(
        draw_path_events(buckets, market.horizon, path_generator(seed, i)).n_events
        for i in range(paths)
    )


def _stencil_bytes(rows: int, k: int, nodes: int) -> int:
    # int32 corner indices, float64 weights, one validity flag per node
    return rows * nodes * ((1 << k) * (4 + 8) + 1)


def schedule(spec: Workload, adjusts: list) -> list:
    """A round's operations after its solves, in order.

    The host this was tuned on switched between a fast and a slow speed
    about 1.8x apart, each lasting from tens of milliseconds to seconds, so
    an operation timed once per round in one block follows the speed of that
    moment.  The RFQ stream is therefore cut into chunks, and the set-ups,
    simulations and adjusted quotes go between the chunks, each kind spread
    evenly over the round: every metric is then timed at several points of
    every round.  Each gap starts with its set-ups and ends with a
    simulation or adjusted quote, so no chunk directly follows the set-ups'
    LAPACK calls.
    """
    ops = [(("simulate", sim), (i + 0.5) / len(spec.sims)) for i, sim in enumerate(spec.sims)]
    ops += [(("adjust", a), (i + 0.5) / len(adjusts)) for i, a in enumerate(adjusts)]
    ops = [op for op, _ in sorted(ops, key=lambda p: p[1])]
    chunks = spec.rfq_chunks
    out = []
    for c in range(chunks):
        out.append(("rfq", range(spec.rfqs * c // chunks, spec.rfqs * (c + 1) // chunks)))
        out += [("setup", None)] * (spec.setups * (c + 1) // chunks - spec.setups * c // chunks)
        out += ops[len(ops) * c // chunks:len(ops) * (c + 1) // chunks]
    return out


def run_round(spec, setup, inputs, adjusts, arrivals, tracer, tally):
    """One timed round; returns its outputs for the checks, the round's last
    set-up (the next round's) and the indices of its set-up spans."""
    market = setup.market
    surfaces, quotes, results, adjusted, setup_spans = [], [], [], [], []
    rows = len(BucketTable.from_market(market))
    with tracer.span("round"):
        for k, (fm, grid) in zip(spec.factors, setup.models):
            tally.attempted += 1
            with tracer.span("solve", new_request=True) as attrs:
                surface = rfqmm.solve(setup.short, fm, grid)
            attrs.update(
                k=k, steps=surface.n_steps, rows=rows, nodes=grid.n_nodes,
                stencil_bytes=_stencil_bytes(rows, k, grid.n_nodes),
            )
            surfaces.append(surface)

        time.sleep(BLAS_IDLE_S)
        quoting = surfaces[0]
        new_setup = setup
        for kind, arg in schedule(spec, adjusts):
            if kind == "setup":
                setup_spans.append(len(tracer.spans))
                with tracer.span("setup"):
                    new_setup = set_up(spec)
            elif kind == "rfq":
                for i in arg:
                    tally.attempted += 1
                    with tracer.span("rfq", new_request=True) as attrs:
                        answer = rfqmm.optimal_quote(
                            quoting, market, inputs.rfq_q[i], int(inputs.rfq_asset[i]),
                            ("bid", "ask")[inputs.rfq_side[i]], float(inputs.rfq_size[i]),
                        )
                    attrs["refused"] = answer.refused
                    quotes.append(answer)
            elif kind == "simulate":
                if arg.surface is None:
                    policy = rfqmm.MyopicPolicy(market)
                else:
                    policy = rfqmm.SurfacePolicy(surfaces[arg.surface], market)
                tally.attempted += 1
                with tracer.span(
                    "simulate", new_request=True, engine=arg.engine, label=arg.label,
                    origin="benchmark", arrivals=arrivals.get(arg.label),
                ) as attrs:
                    result = rfqmm.simulate(
                        market, policy, arg.paths, inputs.sim_seed, engine=arg.engine
                    )
                attrs.update(tracing.simulation_counts(result))
                results.append((arg, result))
            else:
                q, asset, side, size, seed = arg
                tally.attempted += 1
                with tracer.span("adjust", new_request=True):
                    adjusted.append(rfqmm.adjusted_quote(
                        surfaces[spec.adjust_surface], setup.adjust, q, asset, side, size,
                        n_paths=spec.adjust_paths, seed=seed,
                    ))
    return (surfaces, quotes, results, adjusted), new_setup, setup_spans


def check_simulation(label, result, tally) -> None:
    pnl = np.array([p.pnl for p in result.paths])
    parts = np.array([p.spread_pnl + p.market_pnl for p in result.paths])
    off = int(np.sum(np.abs(pnl - parts) > np.maximum(PNL_RTOL * np.abs(parts), PNL_ATOL)))
    ok, why = off == 0, f"pnl != spread + market on {off} paths"
    if ok and result.engine != "collapsed" and len(result.paths) >= GAP_MIN_PATHS:
        gap, se = total_variance_gap(result)
        ok, why = abs(gap) <= GAP_BAND * se, f"total-variance gap {gap:.4g}, se {se:.4g}"
    tally.check(ok, f"{label}: {why}")


def run_backtest(spec, setup, seed, tracer, tally) -> None:
    """The myopic price-path back-test at the bundled horizon, checked."""
    market = setup.full
    tally.attempted += 1
    with tracer.span("backtest", new_request=True, paths=spec.backtest_paths):
        result = rfqmm.simulate(
            market, rfqmm.MyopicPolicy(market), spec.backtest_paths, seed, engine="price_paths"
        )
    check_simulation("backtest at the bundled horizon", result, tally)


def check_round(spec, setup, inputs, adjusts, outputs, tally, number: int) -> None:
    surfaces, quotes, results, adjusted = outputs
    market = setup.market
    for k, surface, ref in zip(spec.factors, surfaces, spec.origin_values):
        got = surface.value_at_origin()
        tally.check(
            abs(got - ref) <= ORIGIN_RTOL * abs(ref),
            f"k={k} origin value {got!r} is not the reference {ref!r} (rtol {ORIGIN_RTOL:g})",
        )

    policy = rfqmm.SurfacePolicy(surfaces[0], market)
    delta, ok = policy.quote_rows(
        0.0, inputs.rfq_q, inputs.rfq_asset, inputs.rfq_side, inputs.rfq_size
    )
    for i, answer in enumerate(quotes):
        same = answer.refused == (not ok[i]) and (
            answer.refused
            or abs(answer.delta - delta[i]) <= QUOTE_RTOL * max(1.0, abs(delta[i]))
        )
        tally.check(
            same,
            f"RFQ {i}: optimal_quote gives {answer.delta!r} ({answer.reason}), "
            f"quote_rows gives {delta[i]!r} (ok={bool(ok[i])})",
        )

    for sim, result in results:
        check_simulation(sim.label, result, tally)

    # correction_samples must rebuild the residual samples of an adjusted
    # quote bit for bit from a fresh simulation of the same seed and state;
    # one adjusted quote a round, as the rebuild costs a simulation; the
    # rounds take the places in their schedule in turn
    j = number % len(adjusts)
    fm = setup.models[spec.adjust_surface][0]
    q = adjusts[j][0]
    here = adjusted[j].correction_at_state
    run = rfqmm.simulate(
        setup.adjust, rfqmm.SurfacePolicy(surfaces[spec.adjust_surface], setup.adjust),
        here.n_paths, here.seed, keep_event_logs=True, start_inventory=q,
    )
    rebuilt = correction_samples(run, fm, start_inventory=q)
    tally.check(
        np.array_equal(rebuilt, here.samples),
        "correction_samples does not rebuild the residual samples bit for bit",
    )


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, if it is one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(dll, fn):
                getter = getattr(dll, fn)
                getter.argtypes, getter.restype = [], ctypes.c_int
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "processes": 1,
    }


def _pipeline_s(spans, first: int, last: int) -> float:
    """A round's time in the benchmark's own calls after set-up, leaving out
    the set-ups, the pause and the bookkeeping between the calls."""
    return sum(
        s.duration for s in spans[first:last] if s.parent == first and s.name != "setup"
    )


def round_samples(spans, rounds, setups) -> dict[str, list]:
    """Timings of the untraced set-ups, and of each untraced round."""
    out = {name: [] for name in ("setup", "solve", "rfq", "events_rate", "adjust", "run")}
    out["setup"] = [spans[i].duration for i, traced in setups if not traced]
    for first, last, traced in rounds:
        if traced:
            continue
        mine = [s for s in spans[first:last] if s.parent == first]
        out["run"].append(_pipeline_s(spans, first, last))
        out["solve"].append(sum(s.duration for s in mine if s.name == "solve"))
        thinning = [s for s in mine if s.name == "simulate" and s.attrs["engine"] == "thinning"]
        out["events_rate"].append(
            sum(s.attrs["arrivals"] for s in thinning) / sum(s.duration for s in thinning)
        )
        # every round quotes the same RFQs in the same order
        out["rfq"].append([s.duration for s in mine if s.name == "rfq"])
        out["adjust"].extend(s.duration for s in mine if s.name == "adjust")
    return out


#: the quantile each timing takes over a run's samples: the host is slow
#: for most of every run, so a high quantile reads its busy speed
BUSY_Q = 90
#: each RFQ's latency over the rounds; below the maximum from five rounds
#: on, so that a stall in one round does not reach it
RFQ_BUSY_Q = 75


def end_to_end_metrics(samples) -> dict[str, float]:
    """One value per metric from the untraced set-ups and rounds.

    The shared 2-core virtual machine (Intel Xeon) this was tuned on
    switched between a fast and a slow speed about 1.8x apart, each spell
    lasting from tens of milliseconds to seconds, in CPU time as much as in
    wall time.  The slow share of a run varied from run to run, so a mean or
    median moved with it, while the slow speed itself repeated: it held for
    most of every run.  So every timing after set-up is a high quantile over
    the run's samples (a low one for the event rate), which reads the slow
    speed.  The set-up time is the median of the run's many set-ups.
    Each RFQ is quoted once per round; its latency is a quantile over the
    rounds that leaves out the slowest, as stalls from outside the process
    (1.5-12 ms) hit single quotes, and the percentiles are taken over the
    RFQs.  A change that slows every call slows the busy speed with it.
    """

    def busy(name):
        return float(np.percentile(samples[name], BUSY_Q))

    per_rfq = np.percentile(np.array(samples["rfq"]), RFQ_BUSY_Q, axis=0)
    p50, p99 = np.percentile(per_rfq, [50, 99])
    return {
        "setup_s": statistics.median(samples["setup"]),
        "solve_s": busy("solve"),
        "rfq_quote_p50_us": 1e6 * p50,
        "rfq_quote_p99_us": 1e6 * p99,
        "sim_events_per_s": float(np.percentile(samples["events_rate"], 100 - BUSY_Q)),
        "adjust_quote_s": busy("adjust"),
        "peak_rss_mb": peak_rss_mb(),
        "run_s": busy("run"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer_metrics(spans, rounds, setups) -> dict[str, float]:
    """Medians over traced rounds, plus the tracing overhead."""
    per_round = [tracing.round_metrics(spans, a, b) for a, b, traced in rounds if traced]
    metrics = tracing.setup_metrics(spans, [i for i, traced in setups if traced])
    for name in per_round[0]:
        metrics[name] = statistics.median(m[name] for m in per_round)
    run = {
        flag: [_pipeline_s(spans, a, b) for a, b, t in rounds if t == flag] for flag in (False, True)
    }
    plain = statistics.median(run[False])
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(run[True]) - plain) / plain
    return metrics


def _report_self_times(spans, rounds) -> None:
    for root in ("solve", "simulate"):
        for first, last, traced in rounds:
            if not traced:
                continue
            parts = tracing.self_times(spans, first, last, root)
            total = sum(spans[i].duration for i in range(first, last) if spans[i].name == root)
            terms = " + ".join(
                f"{name} {secs:.3f}" for name, secs in sorted(parts.items(), key=lambda p: -p[1])
            )
            print(f"self time under {root} ({total:.3f} s, layers sum to "
                  f"{sum(parts.values()):.3f} s): {terms}")
            break


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    traced = bool(args.trace)
    machine = machine_record()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))

    tracer = tracing.Tracer()
    tally = Tally()
    setups, rounds = [], []  # (span index, traced) and (first, last, traced)
    rss = {}
    try:
        setup = set_up(spec)
        inputs = make_inputs(spec, setup.market, args.seed)
        # counted here, outside the timed rounds, for sim_events_per_s
        arrivals = {
            sim.label: thinning_arrivals(setup.market, sim.paths, inputs.sim_seed)
            for sim in spec.sims
            if sim.engine == "thinning"
        }

        start = time.perf_counter()
        lap = []
        while True:
            # traced runs alternate, starting untraced, so both kinds see the
            # same conditions and the overhead is a like-for-like difference
            trace_this = traced and len(rounds) % 2 == 1
            t0 = time.perf_counter()
            with tracing.layers(tracer) if trace_this else contextlib.nullcontext():
                # pairs of rounds share their RFQs to adjust, so a traced
                # round does the same work as the untraced one before it
                pair = len(rounds) // 2 * spec.adjusts
                adjusts = [inputs.adjusts[(pair + j) % ADJUST_POOL] for j in range(spec.adjusts)]
                first = len(tracer.spans)
                outputs, next_setup, setup_spans = run_round(
                    spec, setup, inputs, adjusts, arrivals, tracer, tally
                )
                setups += [(i, trace_this) for i in setup_spans]
                with tracer.paused():
                    check_round(spec, setup, inputs, adjusts, outputs, tally, len(rounds))
                setup = next_setup
            rounds.append((first, len(tracer.spans), trace_this))
            lap.append(time.perf_counter() - t0)
            left = args.seconds - spec.backtest_s - (time.perf_counter() - start)
            if len(rounds) >= MIN_ROUNDS and statistics.median(lap) > left:
                break
        outputs = None  # the back-test's peak should not include the last round's
        rss["rounds"] = peak_rss_mb()
        if spec.backtest_paths:
            run_backtest(spec, setup, inputs.sim_seed, tracer, tally)
            rss["back-test"] = peak_rss_mb()
    except Exception:  # noqa: BLE001 - any error is a failed operation
        traceback.print_exc()
        tally.failed += 1
        tally.attempted = max(tally.attempted, 1)
        rounds = []

    metrics, units = {}, {}
    if rounds and traced:
        metrics = per_layer_metrics(tracer.spans, rounds, setups)
        units = tracing.PER_LAYER_UNITS
        _report_self_times(tracer.spans, rounds)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "machine": machine})
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    elif rounds:
        samples = round_samples(tracer.spans, rounds, setups)
        print(f"rounds {len(samples['run'])} untraced, set-ups {len(samples['setup'])}, "
              f"adjusted quotes {len(samples['adjust'])}, RFQs {len(samples['rfq'][0])} "
              f"quoted once per round")
        metrics, units = end_to_end_metrics(samples), END_TO_END_UNITS
    if rss:
        print("peak RSS after " + ", after ".join(f"{k} {v:.1f} MB" for k, v in rss.items()))
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6g} {units[name]}")
    print(f"{'failed_ratio':<36} {tally.failed / max(tally.attempted, 1):>16.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1
