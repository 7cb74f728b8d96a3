"""Event-driven RFQ market simulation under any quote policy.

The default engine materialises every arrival at its constant bucket rate
and thins by the quoted fill probability, which keeps the consumed random
stream policy-independent (see the events module).  Two audit engines
cross-check it:

* ``collapsed`` draws competing exponential clocks at the state-dependent
  rates ``lambda * p * f(delta)`` directly, with no thinning step.  Fill
  statistics must agree with the default engine in distribution.
* ``price_paths`` runs the default event layout but simulates the full
  correlated price vector and an explicit cash account, so the identity
  pnl = spread_pnl + market_pnl is verified from two independent
  bookkeeping routes instead of holding by construction.

Between arrivals the inventory is constant, so the risk integral is summed
exactly and the mark-to-market increment is drawn as one Gaussian with
variance q'Sigma q * dt (exact in law; the price-path engine replaces this
with d correlated increments).

Paths are mutually independent; summary statistics use numpy reductions
(pairwise summation), so results do not depend on any parallel schedule.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import IO, List, Optional

import numpy as np

from .errors import ValidationError
from .events import SIDE_SIGNS, BucketTable, draw_path_events, path_generator
from .model import MarketSpec, fill_intensity
from .solver import FactorGrid

ENGINES = ("thinning", "collapsed", "price_paths")


class DegenerateRunWarning(RuntimeWarning):
    """The policy refuses every bucket at zero inventory; no fills can occur."""


@dataclass(frozen=True)
class TrajectoryStats:
    """Per-path outcome.

    ``pnl`` is spread_pnl + market_pnl in the scalar engines and the
    independently accumulated cash-plus-mark value in the price-path
    engine.  ``n_fills`` is indexed by arrival bucket.
    """

    pnl: float
    spread_pnl: float
    market_pnl: float
    risk_integral: float
    penalty_integral: float
    terminal_penalty: float
    objective: float
    n_fills: np.ndarray
    rejected_fills: int
    refused_quotes: int
    terminal_inventory: np.ndarray


@dataclass(frozen=True)
class SimulationSummary:
    n_paths: int
    mean_pnl: float
    stdev_pnl: float
    stdev_from_rfq: float
    objective: float
    mean_risk_integral: float
    se_mean_pnl: float
    se_stdev_pnl: float
    se_stdev_from_rfq: float
    se_objective: float


@dataclass(frozen=True, eq=False)
class SimulationResult:
    market: MarketSpec
    policy_kind: str
    engine: str
    seed: int
    buckets: BucketTable
    paths: List[TrajectoryStats]
    start_inventory: np.ndarray
    event_logs: Optional[list] = None
    _summary: SimulationSummary = field(init=False, repr=False, default=None)

    def summary(self) -> SimulationSummary:
        if self._summary is None:
            object.__setattr__(self, "_summary", _summarise(self.paths))
        return self._summary

    def to_ndjson(self, fp: IO[str]) -> None:
        """One sorted-key JSON object per path; byte-stable across reruns."""
        for i, p in enumerate(self.paths):
            fills = {
                self.buckets.label(b, self.market): int(p.n_fills[b])
                for b in range(len(self.buckets))
                if p.n_fills[b]
            }
            record = {
                "path": i,
                "pnl": p.pnl,
                "spread_pnl": p.spread_pnl,
                "market_pnl": p.market_pnl,
                "risk_integral": p.risk_integral,
                "penalty_integral": p.penalty_integral,
                "terminal_penalty": p.terminal_penalty,
                "objective": p.objective,
                "rejected_fills": p.rejected_fills,
                "refused_quotes": p.refused_quotes,
                "fills": fills,
                "terminal_inventory": list(p.terminal_inventory),
            }
            fp.write(json.dumps(record, sort_keys=True) + "\n")


def _summarise(paths: List[TrajectoryStats]) -> SimulationSummary:
    n = len(paths)
    pnl = np.array([p.pnl for p in paths])
    spread = np.array([p.spread_pnl for p in paths])
    risk = np.array([p.risk_integral for p in paths])
    objective = np.array([p.objective for p in paths])

    def se_of_stdev(x):
        if n < 2:
            return float("nan")
        centred = x - x.mean()
        s2 = centred.var(ddof=1)
        if s2 <= 0.0:
            return 0.0
        m4 = np.mean(centred**4)
        return float(np.sqrt(max(m4 - s2 * s2, 0.0) / (4.0 * s2 * n)))

    return SimulationSummary(
        n_paths=n,
        mean_pnl=float(pnl.mean()),
        stdev_pnl=float(pnl.std(ddof=1)) if n > 1 else 0.0,
        stdev_from_rfq=float(spread.std(ddof=1)) if n > 1 else 0.0,
        objective=float(objective.mean()),
        mean_risk_integral=float(risk.mean()),
        se_mean_pnl=float(pnl.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan"),
        se_stdev_pnl=se_of_stdev(pnl),
        se_stdev_from_rfq=se_of_stdev(spread),
        se_objective=float(objective.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan"),
    )


def total_variance_gap(result: SimulationResult):
    """Law-of-total-variance residual and its sampling standard error.

    Returns ``(gap, se)`` where gap = Var(pnl) - mean(risk_integral)
    - Var(spread_pnl); the standard error comes from the per-path influence
    values of that statistic.
    """
    pnl = np.array([p.pnl for p in result.paths])
    spread = np.array([p.spread_pnl for p in result.paths])
    risk = np.array([p.risk_integral for p in result.paths])
    n = pnl.size
    gap = pnl.var(ddof=1) - risk.mean() - spread.var(ddof=1)
    influence = (pnl - pnl.mean()) ** 2 - risk - (spread - spread.mean()) ** 2
    se = float(influence.std(ddof=1) / np.sqrt(n))
    return float(gap), se


def clean_inventory(market: MarketSpec, q) -> np.ndarray:
    """A fresh ``(assets,)`` inventory array: zeros for None, else finite ``q``."""
    d = market.n_assets
    if q is None:
        return np.zeros(d)
    arr = np.array(q, dtype=float)
    if arr.shape != (d,):
        raise ValidationError(f"inventory must have shape ({d},), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"inventory {arr.tolist()} must be finite")
    return arr


def _check_degenerate(policy, buckets: BucketTable, q0: np.ndarray) -> None:
    start = np.tile(q0, (len(buckets), 1))
    _, ok = policy.quote_rows(0.0, start, buckets.asset, buckets.side, buckets.size)
    if len(buckets) and not ok.any():
        warnings.warn(
            "policy refuses every bucket at the starting inventory; the run "
            "will complete with no fills",
            DegenerateRunWarning,
            stacklevel=3,
        )


def simulate(
    market: MarketSpec,
    policy,
    n_paths: int,
    seed: int,
    engine: str = "thinning",
    keep_event_logs: bool = False,
    quote_times: str = "stationary",
    start_inventory=None,
) -> SimulationResult:
    """Run ``n_paths`` independent trajectories.

    Paths start from ``start_inventory`` (zero by default).  ``quote_times``
    is "stationary" (every quote read at t = 0, the default and the right
    choice for final-slice surfaces) or "event" (quotes read at the arrival
    time, for surfaces storing all slices).
    """
    if engine not in ENGINES:
        raise ValidationError(f"engine must be one of {ENGINES}, got {engine!r}")
    if quote_times not in ("stationary", "event"):
        raise ValidationError(f"quote_times must be 'stationary' or 'event', got {quote_times!r}")
    if n_paths <= 0:
        raise ValidationError(f"n_paths must be positive, got {n_paths}")
    q0 = clean_inventory(market, start_inventory)
    q0.setflags(write=False)
    buckets = BucketTable.from_market(market)
    _check_degenerate(policy, buckets, q0)
    if engine == "collapsed":
        return _run_collapsed(market, policy, n_paths, seed, buckets, keep_event_logs, q0)
    return _run_thinning(
        market,
        policy,
        n_paths,
        seed,
        buckets,
        keep_logs=keep_event_logs,
        quote_times=quote_times,
        engine=engine,
        q0=q0,
    )


def _run_thinning(market, policy, n_paths, seed, buckets, keep_logs, quote_times, engine, q0):
    price_paths = engine == "price_paths"
    d = market.n_assets
    horizon = market.horizon
    sigma = market.covariance
    drawn = [
        draw_path_events(
            buckets, horizon, path_generator(seed, i), price_dims=d if price_paths else 0
        )
        for i in range(n_paths)
    ]
    n_ev = np.array([e.n_events for e in drawn], dtype=np.int64)
    max_ev = int(n_ev.max()) if n_paths else 0
    times = np.full((n_paths, max_ev), np.inf)
    bucket = np.zeros((n_paths, max_ev), dtype=np.int64)
    thin = np.zeros((n_paths, max_ev))
    if price_paths:
        normals = np.zeros((n_paths, max_ev + 1, d))
        chol = np.linalg.cholesky(sigma)
        prices = np.tile(np.array([a.s0 for a in market.assets]), (n_paths, 1))
        # Booking the starting position at its initial mark keeps the final
        # cash + q.S figure a wealth *change*, comparable across engines.
        cash = np.full(n_paths, -float(q0 @ prices[0]))
    else:
        normals = np.zeros((n_paths, max_ev + 1))
    for i, e in enumerate(drawn):
        k = n_ev[i]
        times[i, :k] = e.times
        bucket[i, :k] = e.bucket
        thin[i, :k] = e.thin
        normals[i, : k + 1] = e.normals

    q = np.tile(q0, (n_paths, 1))
    sq = np.tile(q0 @ sigma, (n_paths, 1))
    y = np.full(n_paths, float(q0 @ sigma @ q0))
    t_prev = np.zeros(n_paths)
    spread = np.zeros(n_paths)
    market_pnl = np.zeros(n_paths)
    risk_int = np.zeros(n_paths)
    pen_int = np.zeros(n_paths)
    fills = np.zeros((n_paths, len(buckets)), dtype=np.int64)
    rejected = np.zeros(n_paths, dtype=np.int64)
    refused = np.zeros(n_paths, dtype=np.int64)
    # per event step: filled rows, assets, signed sizes, times and buckets
    fill_steps = []
    signs_by_side = np.array(SIDE_SIGNS)
    running = market.penalty.running

    for j in range(max_ev):
        alive = np.nonzero(j < n_ev)[0]
        if alive.size == 0:
            break
        tj = times[alive, j]
        dt = tj - t_prev[alive]
        y_a = y[alive]
        risk_int[alive] += y_a * dt
        pen_int[alive] += running(y_a) * dt
        if price_paths:
            step = np.sqrt(dt)[:, None] * (normals[alive, j] @ chol.T)
            market_pnl[alive] += np.einsum("nd,nd->n", q[alive], step)
            prices[alive] += step
        else:
            market_pnl[alive] += np.sqrt(y_a * dt) * normals[alive, j]
        t_prev[alive] = tj

        b = bucket[alive, j]
        a_ix = buckets.asset[b]
        s_ix = buckets.side[b]
        z = buckets.size[b]
        t_quote = 0.0 if quote_times == "stationary" else tj
        delta, ok = policy.quote_rows(
            t_quote, q[alive], a_ix, s_ix, z, sq=sq[alive], risk=y[alive]
        )
        refused[alive] += ~ok
        exponent = buckets.alpha[b] + buckets.beta[b] * np.where(ok, delta, 0.0)
        prob = np.where(ok, fill_intensity(1.0, exponent), 0.0)
        fill = thin[alive, j] < prob
        signs = signs_by_side[s_ix]
        post, admissible = market.post_trade_risk(y[alive], sq[alive, a_ix], signs, z, a_ix)
        breach = fill & ~admissible
        rejected[alive] += breach
        fill &= ~breach
        rows = alive[fill]
        if rows.size:
            af = a_ix[fill]
            zf = z[fill]
            sf = signs[fill]
            df = delta[fill]
            q[rows, af] += sf * zf
            sq[rows] += (sf * zf)[:, None] * sigma[af]
            y[rows] = post[fill]
            spread[rows] += df * zf
            fills[rows, b[fill]] += 1
            if price_paths:
                cash[rows] -= sf * zf * (prices[rows, af] - sf * df)
            if keep_logs:
                fill_steps.append((rows, af, sf * zf, tj[fill], b[fill]))

    dt = horizon - t_prev
    risk_int += y * dt
    pen_int += running(y) * dt
    last = normals[np.arange(n_paths), n_ev]
    if price_paths:
        step = np.sqrt(dt)[:, None] * (last @ chol.T)
        market_pnl += np.einsum("nd,nd->n", q, step)
        prices += step
        # cash account plus terminal mark; the starting position was booked
        # at its initial price, so this is the wealth change over the run
        pnl = cash + np.einsum("nd,nd->n", q, prices)
    else:
        pnl = None
        market_pnl += np.sqrt(y * dt) * last

    terminal_pen = market.penalty.terminal(y)
    if pnl is None:
        pnl = spread + market_pnl
    objective = pnl - pen_int - terminal_pen
    paths = [
        TrajectoryStats(
            pnl=float(pnl[i]),
            spread_pnl=float(spread[i]),
            market_pnl=float(market_pnl[i]),
            risk_integral=float(risk_int[i]),
            penalty_integral=float(pen_int[i]),
            terminal_penalty=float(terminal_pen[i]),
            objective=float(objective[i]),
            n_fills=fills[i].copy(),
            rejected_fills=int(rejected[i]),
            refused_quotes=int(refused[i]),
            terminal_inventory=q[i].copy(),
        )
        for i in range(n_paths)
    ]
    return SimulationResult(
        market=market,
        policy_kind=policy.kind,
        engine=engine,
        seed=seed,
        buckets=buckets,
        paths=paths,
        start_inventory=q0,
        event_logs=_split_fills(fill_steps, n_paths) if keep_logs else None,
    )


def _split_fills(fill_steps, n_paths):
    """Per-path event logs from the per-step fill arrays, in time order."""
    rows, asset, dq, t, bucket = (
        [np.concatenate(col) for col in zip(*fill_steps)]
        if fill_steps
        else [np.empty(0, dtype=np.int64)] * 5
    )
    # steps run in time order, so a stable sort by path keeps each path's
    # fills in time order
    order = np.argsort(rows, kind="stable")
    cuts = np.cumsum(np.bincount(rows, minlength=n_paths))[:-1]
    columns = {"t": t, "asset": asset, "dq": dq, "bucket": bucket}
    split = {k: np.split(v[order], cuts) for k, v in columns.items()}
    return [{k: split[k][i].tolist() for k in columns} for i in range(n_paths)]


def _run_collapsed(market, policy, n_paths, seed, buckets, keep_logs, q0):
    """Competing state-dependent exponential clocks; audit engine.

    Per event the draw order is: one exponential (time step), one Gaussian
    (market increment over the elapsed interval), one uniform (bucket
    choice).  Buckets whose fill would breach the risk limit carry zero
    rate, so rejected fills never materialise here.
    """
    horizon = market.horizon
    sigma = market.covariance
    nb = len(buckets)
    signs = np.array(SIDE_SIGNS)[buckets.side]
    running = market.penalty.running
    paths = []
    logs = [] if keep_logs else None

    for i in range(n_paths):
        rng = path_generator(seed, i)
        t = 0.0
        q = q0.copy()
        sq = q0 @ sigma
        y = float(q0 @ sigma @ q0)
        spread = market_pnl = risk_int = pen_int = 0.0
        fills = np.zeros(nb, dtype=np.int64)
        log = {"t": [], "asset": [], "dq": [], "bucket": []} if keep_logs else None
        while True:
            delta, ok = policy.quote_rows(
                0.0, np.tile(q, (nb, 1)), buckets.asset, buckets.side, buckets.size
            )
            exponent = buckets.alpha + buckets.beta * np.where(ok, delta, 0.0)
            prob = np.where(ok, fill_intensity(1.0, exponent), 0.0)
            post, admissible = market.post_trade_risk(
                y, sq[buckets.asset], signs, buckets.size, buckets.asset
            )
            rates = buckets.arrival_rate * prob * admissible
            total = rates.sum()
            if total <= 0.0:
                dt = horizon - t
                risk_int += y * dt
                pen_int += float(running(y)) * dt
                market_pnl += np.sqrt(y * dt) * rng.standard_normal()
                break
            step = rng.exponential(1.0 / total)
            dt = min(step, horizon - t)
            risk_int += y * dt
            pen_int += float(running(y)) * dt
            market_pnl += np.sqrt(y * dt) * rng.standard_normal()
            t += step
            if t >= horizon:
                break
            u = rng.uniform(0.0, total)
            b = int(np.searchsorted(np.cumsum(rates), u, side="right"))
            a = int(buckets.asset[b])
            dz = signs[b] * buckets.size[b]
            q[a] += dz
            sq += dz * sigma[a]
            y = float(post[b])
            spread += float(delta[b]) * buckets.size[b]
            fills[b] += 1
            if keep_logs:
                log["t"].append(t)
                log["asset"].append(a)
                log["dq"].append(float(dz))
                log["bucket"].append(b)
        pnl = spread + market_pnl
        terminal_pen = float(market.penalty.terminal(y))
        paths.append(
            TrajectoryStats(
                pnl=float(pnl),
                spread_pnl=float(spread),
                market_pnl=float(market_pnl),
                risk_integral=float(risk_int),
                penalty_integral=float(pen_int),
                terminal_penalty=terminal_pen,
                objective=float(pnl - pen_int - terminal_pen),
                n_fills=fills,
                rejected_fills=0,
                refused_quotes=0,
                terminal_inventory=q.copy(),
            )
        )
        if keep_logs:
            logs.append(log)
    return SimulationResult(
        market=market,
        policy_kind=policy.kind,
        engine="collapsed",
        seed=seed,
        buckets=buckets,
        paths=paths,
        start_inventory=q0,
        event_logs=logs,
    )


def inventory_paths(result: SimulationResult):
    """Each path's piecewise-constant inventories and how long each is held.

    Yields ``(inventory, durations)`` per path: row 0 of ``inventory`` is the
    run's start inventory and row ``j`` the inventory after the ``j``-th
    logged fill; ``durations`` sum to the horizon.  Requires event logs
    (``keep_event_logs=True``).
    """
    if result.event_logs is None:
        raise ValidationError("inventory paths need keep_event_logs=True at simulate time")
    d = result.market.n_assets
    for log in result.event_logs:
        times = np.asarray(log["t"], dtype=float)
        m = times.size
        inventory = np.tile(result.start_inventory, (m + 1, 1))
        if m:
            steps = np.zeros((m, d))
            steps[np.arange(m), np.asarray(log["asset"], dtype=int)] = log["dq"]
            inventory[1:] += np.cumsum(steps, axis=0)
        yield inventory, np.diff(np.concatenate(([0.0], times, [result.market.horizon])))


def inventory_histogram(result: SimulationResult, grid: FactorGrid, loadings) -> np.ndarray:
    """Time-weighted occupancy of factor-space grid cells.

    Each piecewise-constant inventory segment contributes its duration to
    the cell of the nearest node of the factor image ``loadings' q``;
    counts are hours of occupancy, ready for log-scale plotting.  Requires
    event logs (``keep_event_logs=True``).
    """
    loadings = np.asarray(loadings, dtype=float)
    counts = np.zeros(grid.shape)
    shape = np.array(grid.shape)
    for inventory, durations in inventory_paths(result):
        factors = inventory @ loadings
        cells = np.rint((factors + grid.half_widths) / grid.spacing).astype(np.int64)
        cells = np.clip(cells, 0, shape - 1)
        np.add.at(counts, tuple(cells.T), durations)
    return counts


def occupancy_second_moment(result: SimulationResult, loadings) -> np.ndarray:
    """Time-weighted second moment of the factor image of inventory.

    Returns the k-by-k matrix E[f f'] with time as the weight, averaged
    over paths; the diagonal gives per-axis occupancy spread.
    """
    loadings = np.asarray(loadings, dtype=float)
    k = loadings.shape[1]
    acc = np.zeros((k, k))
    for inventory, durations in inventory_paths(result):
        factors = inventory @ loadings
        acc += np.einsum("n,nj,nk->jk", durations, factors, factors)
    return acc / (result.market.horizon * len(result.event_logs))
