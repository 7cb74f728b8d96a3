"""First-order price correction for risk the factor grid leaves out.

A surface solved on ``k < d`` factors prices only the projected risk
``f' V f``.  The discarded piece ``q' R q`` (``R`` the residual covariance
of the decomposition) still costs money through the running and terminal
penalties.  To first order that cost, as a function of the current state,
is the expected slope-weighted residual variance accumulated along the
inventory path the surface policy itself induces:

    correction(t, q) = E[ -c integral_t^T q_s' R q_s ds - e q_T' R q_T ]

with the expectation over fill arrivals quoted by the surface, and ``c``
and ``e`` the running and terminal penalties' slopes in ``y = q' Sigma q``
(:attr:`rfqmm.model.RiskPenalty.slopes`).  The estimator takes only
penalties whose slopes are constants: the quadratic forms, and a sqrt form
of zero weight.  A sqrt form of positive weight has an unbounded slope at
the zero risk a flat inventory reaches, and is refused.  This module
estimates it by Monte-Carlo and applies the difference of two estimates to
single RFQ quotes (:func:`adjusted_quote`).  The policies themselves quote
off the surface alone: the correction is priced per RFQ, not quoted by the
simulated policy.

Trajectories come from :func:`rfqmm.simulator.simulate_starts` under a
:class:`rfqmm.quotes.SurfacePolicy`, so a seeded estimate is event-for-event
identical to the corresponding simulator run.  Because that engine draws all
arrival times and acceptance uniforms before any state is touched, two
estimates differing only in the starting inventory replay the same
randomness; differences of such estimates (the quote adjustment) are
common-random-number pairs, which is what makes them usable at realistic
path counts.  :func:`residual_corrections` runs all the inventories it is
given as starts of one event loop that draws each path's events once, and
:func:`adjusted_quotes` prices the RFQs of one state with all their arms in
one such run.

The integral is computed exactly: inventory is piecewise constant between
fills, so each path contributes a finite sum of segment terms, not a
quadrature.  The event loop takes those sums as it runs, from each row's
leftover risk (:meth:`rfqmm.factors.FactorModel.residual_risk`) at its
fills, so an estimate keeps no event logs and its memory does not grow with
the fills.  :func:`correction_samples` is the audit route: it rebuilds the
same samples, bit for bit, from a logged run's inventory paths in array
passes over blocks of paths (:func:`rfqmm.simulator.inventory_blocks`).  Both
routes use fixed-order row-wise contractions and add each path's terms in
segment order; no step calls BLAS, so a sample is the same bits whatever
paths share its block or its pass and whichever BLAS build numpy uses.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .events import SIDE_SIGNS
from .factors import FactorModel
from .hamiltonian import quote_offset
from .model import SIDES, MarketSpec, clean_inventory
from .quotes import SurfacePolicy, optimal_quote
from .simulator import SimulationResult, check_run_size, inventory_blocks, standard_error
# the estimates' runs go through the name ``simulate``, as the single-start
# runs did, so bench/tracing.py times them as the residual layer's simulations
from .simulator import simulate_starts as simulate
from .solver import ValueSurface


@dataclass(frozen=True)
class ResidualCorrection:
    """Monte-Carlo estimate of the first-order residual-risk cost.

    ``value`` is the estimated correction (a cost, hence <= 0 for
    nondecreasing penalties and positive semidefinite residual covariance),
    ``stderr`` its sample standard error (NaN for one path, by
    :func:`rfqmm.simulator.standard_error`), and ``samples`` the per-path
    contributions the two are computed from.  A given ``(seed, inputs)``
    pair reproduces all three bit-exactly.
    """

    value: float
    stderr: float
    n_paths: int
    seed: int
    samples: np.ndarray = dataclasses.field(repr=False)

    def __post_init__(self):
        self.samples.setflags(write=False)


@dataclass(frozen=True)
class AdjustedQuote:
    """A surface quote with the residual-risk correction applied.

    ``delta`` is NaN when the underlying quote is refused (``reason`` says
    why); in that case no simulation is run and the correction fields are
    None.  ``shift`` is the per-unit reservation change
    ``(correction(q) - correction(q'))/size`` with ``q'`` the post-trade
    inventory, and ``shift_stderr`` its paired standard error (NaN for one
    path).
    """

    asset: int
    side: str
    size: float
    delta: float
    reason: str
    base_delta: float
    base_reservation: float
    adjusted_reservation: float
    shift: float
    shift_stderr: float
    correction_at_state: ResidualCorrection | None
    correction_after_trade: ResidualCorrection | None

    @property
    def refused(self) -> bool:
        return self.reason != "ok"


def _check_estimation_inputs(market: MarketSpec, t: float, n_paths: int, seed: int) -> None:
    market.penalty.slopes  # refuses a penalty without constant slopes
    if not 0.0 <= t < market.horizon:
        raise ValidationError(
            f"t must lie in [0, horizon={market.horizon}), got {t}"
        )
    check_run_size(n_paths, seed)


def correction_samples(
    result: SimulationResult, factor_model: FactorModel, start_inventory=None
) -> np.ndarray:
    """Per-path residual-risk costs recomputed from a simulation's event logs.

    The audit route: :func:`residual_correction` takes its samples inside
    the event loop and keeps no logs, and running this on a logged
    surface-policy run with the same seed reproduces its ``samples`` array
    bit for bit, from the trajectories the fill simulator records.  Paths
    start from the run's recorded start inventory; a given
    ``start_inventory`` must equal it.

    The samples are taken a block of paths at a time, from the padded
    ``(segments, paths, d)`` inventories of
    :func:`rfqmm.simulator.inventory_blocks`.  Every segment's leftover risk
    is taken by :meth:`~rfqmm.factors.FactorModel.residual_risk`, the rule
    the loop uses; a path's running cost adds its segment terms in segment
    order, padding (held for zero time) adding exact zeros, and the terminal
    cost is added last.
    """
    if start_inventory is not None and not np.array_equal(
        clean_inventory(result.market, start_inventory), result.start_inventory
    ):
        raise ValidationError(
            f"start_inventory {np.asarray(start_inventory).tolist()} is not the run's "
            f"start inventory {result.start_inventory.tolist()}"
        )
    slope, terminal_slope = result.market.penalty.slopes
    out = []
    for inventory, durations, fills in inventory_blocks(result):
        leftover = factor_model.residual_risk(inventory.reshape(-1, inventory.shape[-1]))
        leftover = leftover.reshape(durations.shape)
        # a running sum adds a path's terms in segment order whatever the
        # block (np.add.reduce would add a one-path block pairwise)
        running_cost = np.cumsum(slope * (leftover * durations), axis=0)[-1]
        terminal_cost = terminal_slope * leftover[fills, np.arange(fills.size)]
        out.append(-(running_cost + terminal_cost))
    return np.concatenate(out)


def residual_corrections(
    surface: ValueSurface,
    market: MarketSpec,
    inventories,
    t: float = 0.0,
    n_paths: int = 500,
    seed: int = 0,
) -> list[ResidualCorrection]:
    """Estimate the residual-risk cost of standing at each of ``inventories`` at ``t``.

    Returns one estimate per inventory, in order, each bit for bit the one
    :func:`residual_correction` gives for that inventory alone; the
    inventories are the starts of shared runs (see there).
    """
    starts = [clean_inventory(market, q) for q in inventories]
    if not starts:
        _check_estimation_inputs(market, t, n_paths, seed)
        return []
    return residual_correction(surface, market, np.stack(starts), t, n_paths, seed)


def residual_correction(
    surface: ValueSurface,
    market: MarketSpec,
    q=None,
    t: float = 0.0,
    n_paths: int = 500,
    seed: int = 0,
) -> ResidualCorrection | list[ResidualCorrection]:
    """Estimate the residual-risk cost of standing at inventory ``q`` at ``t``.

    Simulates the surface policy's fill process from ``q`` over the
    remaining horizon and averages the exact pathwise slope-weighted
    integral of the leftover quadratic risk.  A full-rank factor model has a
    zero residual, making the integrand identically zero; that case returns
    exact zeros, with zero standard error from two paths on, and runs no
    simulation.

    ``q`` may also be a 2-D array with one inventory per row; a list with one
    estimate per row comes back.  The rows run as the starts of one event
    loop, and path ``i`` replays ``path_generator(seed, i)`` from every row,
    so the estimates are common-random-number pairs and each is bit for bit
    the one its row gets alone.  The loop takes the samples as it runs
    (``residual_risk`` of :func:`rfqmm.simulator.simulate_starts`) and
    keeps no event logs.
    """
    _check_estimation_inputs(market, t, n_paths, seed)
    stacked = np.ndim(q) == 2
    starts = [clean_inventory(market, row) for row in q] if stacked else [clean_inventory(market, q)]
    fm = surface.factor_model
    if not fm.residual_cov.any():
        samples = [np.zeros(n_paths) for _ in starts]
    else:
        run_market = (
            market if t == 0.0 else dataclasses.replace(market, horizon=market.horizon - t)
        )
        runs = simulate(
            run_market,
            SurfacePolicy(surface, run_market),
            n_paths,
            seed,
            starts,
            engine="thinning",
            keep_event_logs=False,
            quote_times="stationary",
            residual_risk=fm.residual_risk,
        )
        samples = [run.residual_samples for run in runs]
    out = [ResidualCorrection(float(x.mean()), standard_error(x), n_paths, seed, x) for x in samples]
    return out if stacked else out[0]


def adjusted_quotes(
    surface: ValueSurface,
    market: MarketSpec,
    q,
    rfqs,
    t: float = 0.0,
    n_paths: int = 500,
    seed: int = 0,
) -> tuple[ResidualCorrection, list[AdjustedQuote]]:
    """Adjusted quotes for several RFQs ``(asset, side, size)`` at one state.

    Every arm (the state ``q`` and the post-trade inventory of each priced
    RFQ) is a start of the :func:`residual_corrections` runs on the per-path
    streams of ``seed``.
    Returns the correction at ``q`` and one :class:`AdjustedQuote` per RFQ,
    in order; a refused RFQ gets no arm (see :func:`adjusted_quote`).
    """
    q0 = clean_inventory(market, q)
    bases = [optimal_quote(surface, market, q0, *rfq, t=t) for rfq in rfqs]
    return _priced(surface, market, q0, rfqs, bases, t, n_paths, seed)


def _priced(surface, market, q0, rfqs, bases, t, n_paths, seed):
    """:func:`adjusted_quotes` for the RFQs' base quotes ``bases`` at ``q0``."""
    # the state, then each priced RFQ's post-trade inventory
    starts = [q0]
    for (asset, side, size), base in zip(rfqs, bases):
        if not base.refused:
            starts.append(q0.copy())
            starts[-1][asset] += SIDE_SIGNS[SIDES.index(side)] * size
    arms = iter(residual_corrections(surface, market, starts, t=t, n_paths=n_paths, seed=seed))
    here = next(arms)
    quotes = [
        _adjusted(market, rfq, base, None, None)
        if base.refused
        else _adjusted(market, rfq, base, here, next(arms))
        for rfq, base in zip(rfqs, bases)
    ]
    return here, quotes


def _adjusted(market, rfq, base, here, there) -> AdjustedQuote:
    """The base quote with its reservation shifted by the paired arms'
    per-unit difference; a refused base (no arms) is returned as-is."""
    asset, side, size = rfq
    if base.refused:
        shift = shift_stderr = adjusted_reservation = delta = float("nan")
    else:
        diffs = (here.samples - there.samples) / size
        shift = float(diffs.mean())
        shift_stderr = standard_error(diffs)
        adjusted_reservation = base.reservation + shift
        _, alpha, beta = market.intensity_table[asset, SIDES.index(side)]
        delta = float(
            quote_offset(np.array([adjusted_reservation]), alpha, beta, market.quote_floor)[0]
        )
    return AdjustedQuote(
        asset=asset,
        side=side,
        size=float(size),
        delta=delta,
        reason=base.reason,
        base_delta=base.delta,
        base_reservation=base.reservation,
        adjusted_reservation=adjusted_reservation,
        shift=shift,
        shift_stderr=shift_stderr,
        correction_at_state=here,
        correction_after_trade=there,
    )


def adjusted_quote(
    surface: ValueSurface,
    market: MarketSpec,
    q,
    asset: int,
    side: str,
    size: float,
    t: float = 0.0,
    n_paths: int = 500,
    seed: int = 0,
) -> AdjustedQuote:
    """Quote with the reservation level corrected for residual risk.

    The correction to the reservation is the per-unit difference of two
    cost estimates, one from the current inventory and one from the
    post-trade inventory.  Both are starts of one run on the per-path
    streams of ``seed``, so the difference is a paired estimator.

    A refused base quote is returned as-is (NaN delta, the refusal reason,
    no simulation).
    """
    rfq = (asset, side, size)
    base = optimal_quote(surface, market, q, *rfq, t=t)
    if base.refused:
        return _adjusted(market, rfq, base, None, None)
    q0 = clean_inventory(market, q)
    return _priced(surface, market, q0, [rfq], [base], t, n_paths, seed)[1][0]
