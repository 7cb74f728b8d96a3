"""First-order price correction for risk the factor grid leaves out.

A surface solved on ``k < d`` factors prices only the projected risk
``f' V f``.  The discarded piece ``q' R q`` (``R`` the residual covariance
of the decomposition) still costs money through the running and terminal
penalties.  To first order that cost, as a function of the current state,
is the expected penalty-derivative-weighted residual variance accumulated
along the inventory path the surface policy itself induces:

    correction(t, q) = E[ -integral_t^T pen'(f_s' V f_s) q_s' R q_s ds
                          - term'(f_T' V f_T) q_T' R q_T ]

with the expectation over fill arrivals quoted by the surface.  This module
estimates it by Monte-Carlo and applies the difference of two estimates to
single RFQ quotes (:func:`adjusted_quote`); the simulator's policies quote
off the surface alone, so no correction runs inside the event loop.

Trajectories come from :func:`rfqmm.simulator.simulate` under a
:class:`rfqmm.quotes.SurfacePolicy`, so a seeded run here is event-for-event
identical to the corresponding simulator run.  Because that engine draws all
arrival times and acceptance uniforms before any state is touched, two
estimates differing only in the starting inventory replay the same
randomness; differences of such estimates (the quote adjustment) are
common-random-number pairs, which is what makes them usable at realistic
path counts.

The integral is computed exactly: inventory is piecewise constant between
fills, so each path contributes a finite sum of segment terms, not a
quadrature.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .events import SIDE_SIGNS
from .factors import FactorModel
from .hamiltonian import batch_quote_kernel
from .model import SIDES, MarketSpec
from .quotes import SurfacePolicy, optimal_quote
from .simulator import SimulationResult, clean_inventory, inventory_paths, simulate
from .solver import ValueSurface

# Seed offset for the deliberately de-paired control arm of variance
# studies.  Far enough from any plausible user seed range to never collide
# with a shared-randomness run.
_INDEPENDENT_STREAM_OFFSET = 2**48


@dataclass(frozen=True)
class ResidualCorrection:
    """Monte-Carlo estimate of the first-order residual-risk cost.

    ``value`` is the estimated correction (a cost, hence <= 0 for
    nondecreasing penalties and positive semidefinite residual covariance),
    ``stderr`` the sample standard error, and ``samples`` the per-path
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
    inventory, and ``shift_stderr`` its paired standard error.
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


def _check_estimation_inputs(market: MarketSpec, t: float, n_paths: int) -> None:
    if not market.penalty.is_smooth:
        raise ValidationError(
            "the residual correction needs differentiable penalties; the sqrt "
            "form has an unbounded derivative at zero risk, which a flat "
            "inventory reaches"
        )
    if not 0.0 <= t < market.horizon:
        raise ValidationError(
            f"t must lie in [0, horizon={market.horizon}), got {t}"
        )
    if n_paths <= 0:
        raise ValidationError(f"n_paths must be positive, got {n_paths}")


def correction_samples(
    result: SimulationResult, factor_model: FactorModel, start_inventory=None
) -> np.ndarray:
    """Per-path residual-risk costs recomputed from a simulation's event logs.

    Exposed so audits can check that :func:`residual_correction` prices
    exactly the trajectories the fill simulator produces: running this on a
    surface-policy run with the same seed reproduces its ``samples`` array
    bit for bit.  Paths start from the run's recorded start inventory; a
    given ``start_inventory`` must equal it.
    """
    if start_inventory is not None and not np.array_equal(
        clean_inventory(result.market, start_inventory), result.start_inventory
    ):
        raise ValidationError(
            f"start_inventory {np.asarray(start_inventory).tolist()} is not the run's "
            f"start inventory {result.start_inventory.tolist()}"
        )
    beta = factor_model.loadings
    V = factor_model.factor_cov
    R = factor_model.residual_cov
    penalty = result.market.penalty

    out = np.empty(len(result.paths))
    for i, (inventory, durations) in enumerate(inventory_paths(result)):
        factors = inventory @ beta
        # Both quadratic forms are nonnegative by construction; the clamp
        # only removes round-off dust so the pathwise sign guarantee of the
        # estimate survives floating point.
        projected = np.maximum(np.einsum("sk,kl,sl->s", factors, V, factors), 0.0)
        leftover = np.maximum(np.einsum("sd,de,se->s", inventory, R, inventory), 0.0)
        running_cost = float(penalty.running_derivative(projected) @ (leftover * durations))
        terminal_cost = float(penalty.terminal_derivative(projected[-1]) * leftover[-1])
        out[i] = -(running_cost + terminal_cost)
    return out


def _summarise_samples(samples: np.ndarray, n_paths: int, seed: int) -> ResidualCorrection:
    value = float(samples.mean())
    stderr = float(samples.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return ResidualCorrection(value, stderr, n_paths, seed, samples)


def residual_correction(
    surface: ValueSurface,
    market: MarketSpec,
    q=None,
    t: float = 0.0,
    n_paths: int = 500,
    seed: int = 0,
) -> ResidualCorrection:
    """Estimate the residual-risk cost of standing at inventory ``q`` at ``t``.

    Simulates the surface policy's fill process from ``q`` over the
    remaining horizon and averages the exact pathwise penalty-derivative
    integral of the leftover quadratic risk.  A full-rank factor model has a
    zero residual, making the integrand identically zero; that case returns
    an exact zero with zero standard error and runs no simulation.
    """
    _check_estimation_inputs(market, t, n_paths)
    fm = surface.factor_model
    q0 = clean_inventory(market, q)
    if not fm.residual_cov.any():
        return _summarise_samples(np.zeros(n_paths), n_paths, seed)

    run_market = (
        market if t == 0.0 else dataclasses.replace(market, horizon=market.horizon - t)
    )
    policy = SurfacePolicy(surface, run_market)
    run = simulate(
        run_market,
        policy,
        n_paths,
        seed,
        engine="thinning",
        keep_event_logs=True,
        quote_times="stationary",
        start_inventory=q0,
    )
    samples = correction_samples(run, fm, start_inventory=q0)
    return _summarise_samples(samples, n_paths, seed)


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
    shared_randomness: bool = True,
    here: ResidualCorrection | None = None,
) -> AdjustedQuote:
    """Quote with the reservation level corrected for residual risk.

    The correction to the reservation is the per-unit difference of two
    cost estimates, one from the current inventory and one from the
    post-trade inventory.  With ``shared_randomness`` (the default and the
    recommended setting) both estimates run on the same per-path streams,
    so the difference is a paired estimator; disabling it exists for
    variance studies and uses a far-offset seed for the second arm.

    ``here`` is the correction at ``q`` already estimated with ``seed``,
    for callers pricing several RFQs from one state; when None it is
    estimated here, and only if the base quote is priced.

    A refused base quote is returned as-is (NaN delta, the refusal reason,
    no simulation).
    """
    seed_post = seed if shared_randomness else seed + _INDEPENDENT_STREAM_OFFSET
    q0 = clean_inventory(market, q)
    base = optimal_quote(surface, market, q0, asset, side, size, t=t)
    if base.refused:
        return AdjustedQuote(
            asset=asset,
            side=side,
            size=float(size),
            delta=float("nan"),
            reason=base.reason,
            base_delta=base.delta,
            base_reservation=base.reservation,
            adjusted_reservation=float("nan"),
            shift=float("nan"),
            shift_stderr=float("nan"),
            correction_at_state=None,
            correction_after_trade=None,
        )

    if here is None:
        here = residual_correction(surface, market, q0, t=t, n_paths=n_paths, seed=seed)
    q_post = q0.copy()
    q_post[asset] += SIDE_SIGNS[SIDES.index(side)] * size
    there = residual_correction(surface, market, q_post, t=t, n_paths=n_paths, seed=seed_post)
    diffs = (here.samples - there.samples) / size
    shift = float(diffs.mean())
    shift_stderr = float(diffs.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0

    adjusted_reservation = base.reservation + shift
    lam, alpha, beta = market.intensity_table[asset, SIDES.index(side)]
    delta_arr, _, _ = batch_quote_kernel(
        np.array([adjusted_reservation]), lam, alpha, beta, market.quote_floor
    )
    return AdjustedQuote(
        asset=asset,
        side=side,
        size=float(size),
        delta=float(delta_arr[0]),
        reason=base.reason,
        base_delta=base.delta,
        base_reservation=base.reservation,
        adjusted_reservation=adjusted_reservation,
        shift=shift,
        shift_stderr=shift_stderr,
        correction_at_state=here,
        correction_after_trade=there,
    )
