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

Paths are mutually independent: path ``i`` draws from
``path_generator(seed, i)``, and the paths run in contiguous chunks of
:data:`PATH_CHUNK`.  Each chunk ends as a record array of its paths'
outcomes (:func:`path_dtype`), and a run's result holds its chunks' records
joined in path order, read-only.
:func:`simulate_starts` runs the same paths from several start inventories
in one event loop (:func:`simulate` is its one-start case).  A chunk then
holds one row per (start, path); each path's events are drawn once and read
by all of its rows, and only the rows' state (inventory, risk, accumulators)
grows with the start count.  Every product that mixes a path's components
is a fixed-order row-wise contraction, so a row's numbers do not depend on
the chunk size, on the other starts, or on how many rows are still alive in
a pass, and memory is bounded by one chunk whatever the path count.
Summary statistics use numpy reductions (pairwise summation), so results do
not depend on any parallel schedule.

The thinning loop steps every row through a window of its next
:data:`EVENT_WINDOW` events per pass: one ``quote_rows`` call quotes them
all at the row's current state, and the row keeps the events up to and
including its first fill that passes the risk gate, the first event that
changes its state.  Those events get the quotes, sums and fill a pass of one
event would give them, added in the same order, so a row's bits do not
depend on the window either; the window's later events are quoted again by
the next pass.  The ``quote_rows`` call takes each alive row's state once,
with an index from the window's events to it, so a pass holds no copy of
the state per event.

Given a factor model's ``residual_forms``, the thinning loop also takes the
residual-correction samples as it runs (:func:`simulate_starts`): each row
keeps the forms of its current inventory, the time they took effect and its
running cost, charges the ended segment at each fill that passes the risk
gate and recomputes the forms of the filled rows only.  A run then needs no
event logs for them; :func:`inventory_blocks` rebuilds the same inventory
paths from logs, for audits.
With ``keep_event_logs`` every engine's fills go through one builder,
:func:`_split_fills`: a path's log is a read-only view into its chunk's one
:data:`LOG_DTYPE` array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ValidationError
from .events import SIDE_SIGNS, BucketTable, draw_path_events, path_generator
from .model import MarketSpec, clean_inventory, fill_intensity

ENGINES = ("thinning", "collapsed", "price_paths")

#: paths simulated together; a chunk's padded events bound the memory of a run
PATH_CHUNK = 256

#: events each alive row is quoted for per pass of the thinning loop.  A pass
#: costs about the same for a few hundred rows as for one, so a window cuts
#: the passes (660 to 135 for 100 paths of the 30-asset benchmark, 282 to 64
#: for 200 of the 2-asset one) for about 1.6x the quoted rows, as the events
#: after a row's first fill are quoted again.  Of the windows 1 to 16 timed
#: on a 2-core Xeon VM, 5 to 10 were fastest, and 8 read the higher benchmark
#: event rate of 5 and 8
EVENT_WINDOW = 8

#: one fill of an event log: its time, asset, signed size and arrival bucket
LOG_DTYPE = np.dtype([("t", "f8"), ("asset", "i8"), ("dq", "f8"), ("bucket", "i8")])


class DegenerateRunWarning(RuntimeWarning):
    """The policy refuses every bucket at zero inventory; no fills can occur."""


def path_dtype(n_buckets: int, n_assets: int) -> np.dtype:
    """The record of one path's outcome, a row of ``SimulationResult.paths``.

    ``pnl`` is spread_pnl + market_pnl in the scalar engines and the
    independently accumulated cash-plus-mark value in the price-path
    engine; ``objective`` is pnl - penalty_integral - terminal_penalty.
    ``n_fills`` is indexed by arrival bucket.
    """
    totals = ("pnl", "spread_pnl", "market_pnl", "risk_integral", "penalty_integral",
              "terminal_penalty", "objective")
    return np.dtype(
        [(name, np.float64) for name in totals]
        + [
            ("n_fills", np.int64, (n_buckets,)),
            ("rejected_fills", np.int64),
            ("refused_quotes", np.int64),
            ("terminal_inventory", np.float64, (n_assets,)),
        ]
    )


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
    """One run's outcome.

    ``paths`` holds one record per path, in path order, as a read-only numpy
    record array (:func:`path_dtype`): ``paths.objective`` reads a column,
    ``paths[i].pnl`` a record's field.  ``event_logs`` holds, for runs with
    ``keep_event_logs``, each path's fills in time order as a read-only array
    of :data:`LOG_DTYPE` records.  ``residual_samples`` holds one
    residual-risk cost per path, read-only, for runs given
    ``residual_forms`` (see :func:`simulate_starts`).  Both are None otherwise.
    """

    market: MarketSpec
    policy_kind: str
    engine: str
    seed: int
    buckets: BucketTable
    paths: np.recarray
    start_inventory: np.ndarray
    event_logs: Optional[list] = None
    residual_samples: Optional[np.ndarray] = None
    _summary: SimulationSummary = field(init=False, repr=False, default=None)

    def summary(self) -> SimulationSummary:
        if self._summary is None:
            object.__setattr__(self, "_summary", _summarise(self.paths))
        return self._summary


class StartRuns(tuple):
    """The results of one multi-start run, one :class:`SimulationResult` per
    start, in start order.

    ``engine`` and ``paths`` read the run as a whole, every (start, path)
    row start by start, so per-run tallies of fills and refusals take it as
    they take a single result (``bench/tracing.py`` counts the residual
    estimates' runs this way).
    """

    @property
    def engine(self) -> str:
        return self[0].engine

    @property
    def paths(self) -> np.recarray:
        return _joined([run.paths for run in self])


def _joined(records) -> np.recarray:
    """Record arrays joined in order, as one read-only record array."""
    # concatenate gives plain structured elements; the view restores the
    # records' attribute access
    return _read_only(records).view(np.recarray)


def _read_only(arrays) -> np.ndarray:
    """Arrays joined in order, as one read-only array."""
    out = np.concatenate(arrays)
    out.setflags(write=False)
    return out


def standard_error(samples: np.ndarray) -> float:
    """Standard error of the mean of ``samples``; NaN below two samples."""
    n = len(samples)
    return float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan")


def _summarise(paths: np.recarray) -> SimulationSummary:
    n = len(paths)
    pnl, spread, objective = paths.pnl, paths.spread_pnl, paths.objective

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
        mean_risk_integral=float(paths.risk_integral.mean()),
        se_mean_pnl=standard_error(pnl),
        se_stdev_pnl=se_of_stdev(pnl),
        se_stdev_from_rfq=se_of_stdev(spread),
        se_objective=standard_error(objective),
    )


def total_variance_gap(result: SimulationResult):
    """Law-of-total-variance residual and its sampling standard error.

    Returns ``(gap, se)`` where gap = Var(pnl) - mean(risk_integral)
    - Var(spread_pnl); the standard error comes from the per-path influence
    values of that statistic.  Both variances need at least 2 paths.
    """
    paths = result.paths
    n = len(paths)
    if n < 2:
        raise ValidationError(f"total_variance_gap needs at least 2 paths, got {n}")
    pnl, spread, risk = paths.pnl, paths.spread_pnl, paths.risk_integral
    gap = pnl.var(ddof=1) - risk.mean() - spread.var(ddof=1)
    influence = (pnl - pnl.mean()) ** 2 - risk - (spread - spread.mean()) ** 2
    return float(gap), standard_error(influence)


def _check_degenerate(policy, buckets: BucketTable, starts) -> None:
    """Warn once if the policy refuses every bucket at some start inventory.

    Called two frames below the public entry point (:func:`simulate` or
    :func:`simulate_starts`, each a direct call of :func:`_simulate_starts`),
    so the warning names that entry point's caller.
    """
    n, nb = len(starts), len(buckets)
    # one call quotes every bucket at every start, each row reading its start
    _, ok = policy.quote_rows(
        0.0, np.stack(starts), np.tile(buckets.asset, n), np.tile(buckets.side, n),
        np.tile(buckets.size, n), state=np.repeat(np.arange(n), nb),
    )
    refused_all = [s for s, row in enumerate(ok.reshape(n, nb)) if nb and not row.any()]
    if refused_all:
        where = (
            "the starting inventory; the run"
            if n == 1
            else f"start inventories {refused_all} of {n}; their runs"
        )
        warnings.warn(
            f"policy refuses every bucket at {where} will complete with no fills",
            DegenerateRunWarning,
            stacklevel=4,
        )


def check_run_size(n_paths, seed) -> None:
    """Refuse an ``n_paths`` that is not a positive integer and a ``seed`` that
    is not a nonnegative one; numpy integers are integers."""
    for name, value, least in (("n_paths", n_paths, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValidationError(f"{name} must be an integer >= {least}, got {value}")


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
    time, for surfaces storing all slices; not with the ``collapsed``
    engine, whose clocks run at t = 0 rates).  Paths run in contiguous chunks
    of :data:`PATH_CHUNK`; the result's ``paths`` holds their records in
    path order.  This is the one-start case of :func:`simulate_starts`,
    without residual samples.
    """
    return _simulate_starts(
        market, policy, n_paths, seed, [start_inventory], engine, keep_event_logs, quote_times,
        None,
    )[0]


def simulate_starts(
    market: MarketSpec,
    policy,
    n_paths: int,
    seed: int,
    start_inventories,
    engine: str = "thinning",
    keep_event_logs: bool = False,
    quote_times: str = "stationary",
    residual_forms=None,
) -> StartRuns:
    """Run ``n_paths`` trajectories from each of several start inventories.

    Returns one result per start, each the one :func:`simulate` gives from
    that start alone, bit for bit.  Path ``i`` of every start replays
    ``path_generator(seed, i)``, so the starts' runs are common-random-number
    pairs; each path's events are drawn once and shared by all starts, which
    step through one event loop together.

    ``residual_forms`` (e.g. :meth:`rfqmm.factors.FactorModel.residual_forms`)
    maps ``(rows, d)`` inventories to their row-wise ``(f'Vf, q'Rq)``.  When
    given, each result's ``residual_samples`` holds every path's first-order
    residual-risk cost, taken inside the event loop with the market's
    penalty: ``-(sum of pen'(f'Vf) q'Rq dt over the segments between fills
    + term'(f'Vf) q'Rq at the horizon)``, the numbers
    :func:`rfqmm.residual.correction_samples` rebuilds from event logs, bit
    for bit.  The ``collapsed`` engine does not take them.
    """
    return _simulate_starts(
        market, policy, n_paths, seed, start_inventories, engine, keep_event_logs, quote_times,
        residual_forms,
    )


def _simulate_starts(
    market, policy, n_paths, seed, start_inventories, engine, keep_event_logs, quote_times,
    residual_forms,
) -> StartRuns:
    if engine not in ENGINES:
        raise ValidationError(f"engine must be one of {ENGINES}, got {engine!r}")
    if quote_times not in ("stationary", "event"):
        raise ValidationError(f"quote_times must be 'stationary' or 'event', got {quote_times!r}")
    if engine == "collapsed" and quote_times == "event":
        # constant-rate competing clocks cannot follow quotes that move in time
        raise ValidationError(
            "engine 'collapsed' reads every quote at t = 0; "
            "it cannot run quote_times='event' (use engine 'thinning' or 'price_paths')"
        )
    if engine == "collapsed" and residual_forms is not None:
        raise ValidationError(
            "engine 'collapsed' cannot take residual samples (residual_forms); "
            "use engine 'thinning' or 'price_paths'"
        )
    check_run_size(n_paths, seed)
    starts = [clean_inventory(market, q) for q in start_inventories]
    if not starts:
        raise ValidationError("simulate_starts needs at least one start inventory")
    buckets = BucketTable.from_market(market)
    for q0 in starts:
        q0.setflags(write=False)
    _check_degenerate(policy, buckets, starts)
    if engine == "collapsed":
        def run(chunk):
            return [
                _run_collapsed(market, policy, chunk, seed, buckets, keep_event_logs, q0)
                for q0 in starts
            ]
    else:
        def run(chunk):
            return _run_thinning(
                market, policy, chunk, seed, buckets, keep_event_logs, quote_times, engine, starts,
                residual_forms,
            )
    paths = [[] for _ in starts]
    logs = [[] for _ in starts]
    samples = [[] for _ in starts]
    for first in range(0, n_paths, PATH_CHUNK):
        chunk = range(first, min(first + PATH_CHUNK, n_paths))
        for s, (chunk_paths, chunk_logs, chunk_samples) in enumerate(run(chunk)):
            paths[s].append(chunk_paths)
            logs[s] += chunk_logs
            samples[s].append(chunk_samples)
    return StartRuns(
        SimulationResult(
            market=market,
            policy_kind=policy.kind,
            engine=engine,
            seed=seed,
            buckets=buckets,
            paths=_joined(paths[s]),
            start_inventory=q0,
            event_logs=logs[s] if keep_event_logs else None,
            residual_samples=None if residual_forms is None else _read_only(samples[s]),
        )
        for s, q0 in enumerate(starts)
    )


def _run_thinning(
    market, policy, paths, seed, buckets, keep_logs, quote_times, engine, starts, forms
):
    """One chunk of paths stepped together, a window of events per pass.

    Row ``s * len(paths) + i`` runs path ``paths[i]`` from ``starts[s]``.  A
    path's events are drawn once and read by each of its rows; only the
    rows' state grows with the start count.

    Each pass quotes the next :data:`EVENT_WINDOW` events of every alive row
    at the row's current state, in one ``quote_rows`` call, and thins them.
    A row's state changes only at a fill that passes the risk gate (refused
    quotes and rejected fills change nothing), so each of its events up to
    and including its first such fill is quoted exactly as a pass of one
    event would quote it.  Those events are confirmed; the window's later
    events are discarded and quoted again from the new state by the next
    pass.  Over the confirmed events the risk, penalty and market integrals
    (and the price-path ``w``) are running sums (:func:`_add_products`),
    which make the additions of one-event passes in the same order, and the
    fill is applied as such a pass applies it, so no output depends on the
    window.  Returns, per start, the chunk's path records, event logs (empty
    unless ``keep_logs``) and residual samples (None unless ``forms`` is
    given; see :func:`simulate_starts`) in path order.
    """
    price_paths = engine == "price_paths"
    n_paths = len(paths)
    n_rows = len(starts) * n_paths
    d = market.n_assets
    horizon = market.horizon
    sigma = market.covariance
    window = EVENT_WINDOW
    drawn = [
        draw_path_events(
            buckets, horizon, path_generator(seed, i), price_dims=d if price_paths else 0
        )
        for i in paths
    ]
    n_ev = np.array([e.n_events for e in drawn], dtype=np.int64)
    max_ev = int(n_ev.max())
    # A window reads up to window - 1 columns past a path's last event:
    # times at the horizon and thinning uniforms at +inf there quote at a
    # valid time and never fill.
    width = max_ev + window - 1
    times = np.full((n_paths, width), horizon)
    bucket = np.zeros((n_paths, width), dtype=np.int64)
    thin = np.full((n_paths, width), np.inf)
    for i, e in enumerate(drawn):
        k = n_ev[i]
        times[i, :k] = e.times
        bucket[i, :k] = e.bucket
        thin[i, :k] = e.thin
    # the paths' shocks end to end, interval j of path i at first_normal[i] + j
    # (unpadded: in price-path mode they are most of a chunk's memory)
    first_normal = np.cumsum(n_ev + 1) - (n_ev + 1)
    normals = np.concatenate([e.normals for e in drawn])

    # each row's path, and its event count
    path_of = np.tile(np.arange(n_paths), len(starts))
    row_ev = n_ev[path_of]

    # each row's start, row s * n_paths + i running path i from start s
    q = np.repeat(np.stack(starts), n_paths, axis=0)
    sq, y = market.risk_state(q)
    if price_paths:
        # Prices are s0 + chol w, with w the running sum of sqrt(dt) * z.
        # The mark-to-market increment q . (chol z) is booked as
        # (chol' q) . z, with chol' q updated on fills, so no event step
        # needs a d x d product.
        chol = np.linalg.cholesky(sigma)
        s0 = np.array([a.s0 for a in market.assets])
        w = np.zeros((n_rows, d))
        lq = np.einsum("nd,de->ne", q, chol)
        # Booking the starting position at its initial mark keeps the final
        # cash + q.S figure a wealth *change*, comparable across engines.
        cash = -np.einsum("nd,d->n", q, s0)

    t_prev = np.zeros(n_rows)
    spread = np.zeros(n_rows)
    market_pnl = np.zeros(n_rows)
    risk_int = np.zeros(n_rows)
    pen_int = np.zeros(n_rows)
    fills = np.zeros((n_rows, len(buckets)), dtype=np.int64)
    rejected = np.zeros(n_rows, dtype=np.int64)
    refused = np.zeros(n_rows, dtype=np.int64)
    pos = np.zeros(n_rows, dtype=np.int64)  # each row's next event
    # per pass: filled rows, assets, signed sizes, times and buckets
    fill_steps = []
    signs_by_side = np.array(SIDE_SIGNS)
    running = market.penalty.running
    steps = np.arange(window)[:, None]
    if forms is not None:
        # each row's residual forms at its current inventory, the time they
        # took effect, and the running cost accrued before it
        projected, leftover = forms(q)
        since = np.zeros(n_rows)
        cost = np.zeros(n_rows)
        slope = market.penalty.running_derivative

    while (alive := np.nonzero(pos < row_ev)[0]).size:
        n = alive.size
        cols = np.arange(n)
        ev = path_of[alive]
        start = pos[alive]
        end = row_ev[alive]
        # (window, n) arrays: entry [k, r] is event start[r] + k of alive row r
        at = start + steps
        flat = ev * width + at
        tw = times.take(flat)
        b = bucket.take(flat)
        # shocks past a path's end are read from its last one, and discarded
        zw = normals.take(first_normal[ev] + np.minimum(at, end), axis=0)
        y_a = y[alive]

        # every window event quoted at its row's current state
        a_ix = buckets.asset[b]
        s_ix = buckets.side[b]
        z = buckets.size[b]
        # a window's events read their row's state through an index, not
        # through a copy of it per event
        delta, ok = policy.quote_rows(
            0.0 if quote_times == "stationary" else tw.ravel(),
            q[alive], a_ix.ravel(), s_ix.ravel(), z.ravel(), sq=sq[alive], risk=y_a,
            state=np.tile(cols, window),
        )
        delta = delta.reshape(window, n)
        ok = ok.reshape(window, n)
        exponent = buckets.alpha[b] + buckets.beta[b] * np.where(ok, delta, 0.0)
        prob = np.where(ok, fill_intensity(1.0, exponent), 0.0)
        fill = thin.take(flat) < prob
        signs = signs_by_side[s_ix]
        post, admissible = market.post_trade_risk(y_a, sq[alive, a_ix], signs, z, a_ix)
        taken = fill & admissible
        first = taken.argmax(axis=0)
        filled = taken[first, cols]
        # confirmed: through the first taken fill, else the window or the path
        n_conf = np.where(filled, first + 1, np.minimum(window, end - start))
        confirmed = steps < n_conf
        refused[alive] += (confirmed & ~ok).sum(axis=0)
        rejected[alive] += (confirmed & fill & ~admissible).sum(axis=0)

        dt = np.diff(tw, axis=0, prepend=t_prev[alive][None])
        risk_int[alive] = _add_products(risk_int[alive], y_a, dt, n_conf)
        pen_int[alive] = _add_products(pen_int[alive], running(y_a), dt, n_conf)
        if price_paths:
            sdt = np.sqrt(dt)
            dots = np.einsum(
                "nd,nd->n", lq[np.tile(alive, window)], zw.reshape(-1, d)
            ).reshape(window, n)
            market_pnl[alive] = _add_products(market_pnl[alive], sdt, dots, n_conf)
            w[alive] = _add_products(w[alive], sdt[:, :, None], zw, n_conf)
        else:
            market_pnl[alive] = _add_products(market_pnl[alive], np.sqrt(y_a * dt), zw, n_conf)
        t_prev[alive] = tw[n_conf - 1, cols]
        pos[alive] += n_conf

        hit = np.nonzero(filled)[0]
        if hit.size:
            rows = alive[hit]
            k = first[hit]
            af = a_ix[k, hit]
            zf = z[k, hit]
            sf = signs[k, hit]
            df = delta[k, hit]
            bf = b[k, hit]
            q[rows, af] += sf * zf
            sq[rows] += (sf * zf)[:, None] * sigma[af]
            y[rows] = post[k, hit]
            spread[rows] += df * zf
            fills[rows, bf] += 1
            if price_paths:
                price = s0[af] + np.einsum("nd,nd->n", chol[af], w[rows])
                cash[rows] -= sf * zf * (price - sf * df)
                lq[rows] += (sf * zf)[:, None] * chol[af]
            if forms is not None:
                # the segment the fill ends is charged at the old forms
                tf = tw[k, hit]
                cost[rows] += slope(projected[rows]) * (leftover[rows] * (tf - since[rows]))
                since[rows] = tf
                projected[rows], leftover[rows] = forms(q[rows])
            if keep_logs:
                fill_steps.append((rows, af, sf * zf, tw[k, hit], bf))

    dt = horizon - t_prev
    risk_int += y * dt
    pen_int += running(y) * dt
    last = normals[first_normal[path_of] + row_ev]
    if price_paths:
        sdt = np.sqrt(dt)
        market_pnl += sdt * np.einsum("nd,nd->n", lq, last)
        w += sdt[:, None] * last
        # chol w row by row: a BLAS product may round a row differently
        # depending on how many rows share the call
        prices = s0 + np.einsum("nd,ed->ne", w, chol)
        # cash account plus terminal mark; the starting position was booked
        # at its initial price, so this is the wealth change over the run
        pnl = cash + np.einsum("nd,nd->n", q, prices)
    else:
        market_pnl += np.sqrt(y * dt) * last
        pnl = spread + market_pnl

    records = _path_records(
        market, pnl, spread, market_pnl, risk_int, pen_int, fills, rejected, refused, q, y
    )
    logs = _split_fills(fill_steps, n_rows) if keep_logs else []
    samples = None
    if forms is not None:
        # the last segment runs to the horizon; the terminal cost comes last
        cost += slope(projected) * (leftover * (horizon - since))
        samples = -(cost + market.penalty.terminal_derivative(projected) * leftover)
    return [
        (
            records[first : first + n_paths],
            logs[first : first + n_paths],
            None if samples is None else samples[first : first + n_paths],
        )
        for first in range(0, n_rows, n_paths)
    ]


def _path_records(market, pnl, spread, market_pnl, risk_int, pen_int, fills, rejected, refused,
                  q, y):
    """A chunk's path records from its per-row columns, ``y`` the rows'
    terminal risk; the one place the objective is formed."""
    terminal_pen = market.penalty.terminal(y)
    return np.rec.fromarrays(
        [pnl, spread, market_pnl, risk_int, pen_int, terminal_pen, pnl - pen_int - terminal_pen,
         fills, rejected, refused, q],
        dtype=path_dtype(fills.shape[1], q.shape[1]),
    )


def _add_products(total, a, b, count):
    """``total`` plus, per row, the first ``count`` of the increments ``a * b``
    (window steps along axis 0), added one at a time in order, as repeated
    ``total += a * b`` would add them.

    The running sums are built one window step at a time: on ``(window,
    rows, d)`` increments ``np.add.accumulate`` along axis 0 runs one short
    strided loop per (row, component) and took about 8x as long.
    """
    acc = np.empty((b.shape[0] + 1,) + total.shape)
    acc[0] = total
    np.multiply(a, b, out=acc[1:])
    for k in range(int(count.max())):
        np.add(acc[k + 1], acc[k], out=acc[k + 1])
    return acc[count, np.arange(total.shape[0])]


def _split_fills(fill_steps, n_rows):
    """Per-row event logs from fill steps ``(rows, asset, dq, t, bucket)``,
    appended in time order with one array or list per column: read-only
    views into one :data:`LOG_DTYPE` array sorted by row."""
    rows, asset, dq, t, bucket = (
        [np.concatenate(col) for col in zip(*fill_steps)]
        if fill_steps
        else [np.empty(0, dtype=np.int64)] * 5
    )
    # steps come in time order, so a stable sort by row keeps each row's
    # fills in time order
    order = np.argsort(rows, kind="stable")
    fills = np.empty(rows.size, dtype=LOG_DTYPE)
    for name, column in zip(LOG_DTYPE.names, (t, asset, dq, bucket)):
        fills[name] = column[order]
    fills.setflags(write=False)
    ends = np.cumsum(np.bincount(rows, minlength=n_rows)).tolist()
    return [fills[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _run_collapsed(market, policy, paths, seed, buckets, keep_logs, q0):
    """Competing state-dependent exponential clocks; audit engine.

    Per event the draw order is: one exponential (time step; none once every
    rate is zero), one Gaussian (market increment over the elapsed
    interval), one uniform (bucket choice).  Buckets whose fill would breach
    the risk limit carry zero rate, so rejected fills never materialise
    here.  Paths run one by one; returns their records and event logs like
    the thinning engine, and no residual samples.
    """
    horizon = market.horizon
    sigma = market.covariance
    sq0, y0 = market.risk_state(q0[None])
    nb = len(buckets)
    signs = np.array(SIDE_SIGNS)[buckets.side]
    running = market.penalty.running
    at_state = np.zeros(nb, dtype=np.intp)  # every bucket is quoted at the one state
    # per path: spread, market pnl, risk and penalty integrals, terminal risk
    totals = []
    fill_rows = []
    inventories = []
    fill_steps = []

    for row, i in enumerate(paths):
        rng = path_generator(seed, i)
        t = 0.0
        q = q0.copy()
        sq = sq0[0].copy()
        y = float(y0[0])
        spread = market_pnl = risk_int = pen_int = 0.0
        fills = np.zeros(nb, dtype=np.int64)
        while True:
            delta, ok = policy.quote_rows(
                0.0, q[None], buckets.asset, buckets.side, buckets.size,
                sq=sq[None], risk=np.array([y]), state=at_state,
            )
            exponent = buckets.alpha + buckets.beta * np.where(ok, delta, 0.0)
            prob = np.where(ok, fill_intensity(1.0, exponent), 0.0)
            post, admissible = market.post_trade_risk(
                y, sq[buckets.asset], signs, buckets.size, buckets.asset
            )
            rates = buckets.arrival_rate * prob * admissible
            total = rates.sum()
            step = rng.exponential(1.0 / total) if total > 0.0 else np.inf
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
                fill_steps.append(([row], [a], [dz], [t], [b]))
        totals.append((spread, market_pnl, risk_int, pen_int, y))
        fill_rows.append(fills)
        inventories.append(q)
    spread, market_pnl, risk_int, pen_int, y = np.array(totals).T
    none = np.zeros(len(paths), dtype=np.int64)
    records = _path_records(
        market, spread + market_pnl, spread, market_pnl, risk_int, pen_int, np.array(fill_rows),
        none, none, np.array(inventories), y,
    )
    return records, _split_fills(fill_steps, len(paths)) if keep_logs else [], None


def inventory_blocks(result: SimulationResult):
    """The run's inventory paths, rebuilt a block of paths at a time.

    Yields ``(inventory, durations, fills)`` per block of up to
    :data:`PATH_CHUNK` paths, in path order.  ``inventory`` has shape
    ``(segments, paths, d)``: ``inventory[0, i]`` is the run's start
    inventory and ``inventory[j, i]`` path ``i``'s inventory after its
    ``j``-th logged fill, held for ``durations[j, i]``; ``fills[i]`` is the
    path's fill count.  Segments past a path's last fill are padding: its
    final inventory held for zero time.  Requires event logs
    (``keep_event_logs=True``).

    The fills of a block are laid out as steps, zero on padding, and a
    running sum down the segment axis adds each path's fills in turn,
    ``((q0 + dq1) + dq2) ...``, as the engines do; a path's rows are the
    same bits whatever other paths share its block.  Memory is bounded by
    one block.
    """
    if result.event_logs is None:
        raise ValidationError("inventory paths need keep_event_logs=True at simulate time")
    d = result.market.n_assets
    logs = result.event_logs
    for first in range(0, len(logs), PATH_CHUNK):
        block = logs[first : first + PATH_CHUNK]
        n = len(block)
        fills = np.array([log.size for log in block])
        column = np.concatenate(block)
        # fill f of the block is number seg[f] (from 1) of path path[f]
        path = np.repeat(np.arange(n), fills)
        seg = np.arange(path.size) - np.repeat(np.cumsum(fills) - fills, fills) + 1
        segments = int(fills.max()) + 1
        steps = np.zeros((segments, n, d))
        steps[0] = result.start_inventory
        steps[seg, path, column["asset"]] = column["dq"]
        times = np.full((segments + 1, n), result.market.horizon)
        times[0] = 0.0
        times[seg, path] = column["t"]
        yield np.cumsum(steps, axis=0), np.diff(times, axis=0), fills
