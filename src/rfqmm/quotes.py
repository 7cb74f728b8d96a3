"""Executable quotes on top of a solved value surface.

The quoting rule prices a bid (ask) for ``z`` units of asset ``i`` off the
per-unit value change the fill would cause: ``p = (theta(f) - theta(f'))/z``
with ``f' = f + z*e_i`` for a bid and ``f - z*e_i`` for an ask, where ``e_i``
is the factor image of one unit of the asset.  The offset that maximises
expected spread revenue against that reservation level is then the
optimizer of :func:`rfqmm.hamiltonian.quote_offset`.

Two situations yield no quote at all: the shifted factor point would leave
the grid box, or the post-trade inventory would breach the quadratic risk
limit.  Both are reported as refusals rather than as very wide quotes so
that downstream consumers can treat them as zero fill probability.

:func:`surface_quotes` is the one implementation of the rule; single RFQs
(:func:`optimal_quote`), tables (:func:`quote_table`), the simulator
(:meth:`SurfacePolicy.quote_rows`) and the residual-adjusted quote all call
it, so a row gets the same bits whichever way it is asked.  It is row-wise
over arrays and reads the surface once per call for the current and the
shifted points together.  That read is also the one box test of each point:
:meth:`~rfqmm.solver.ValueSurface.value_many` returns NaN exactly off the
box, which raises for a current point and refuses a shifted one.  Most of a
call's cost is fixed (numpy dispatch on small arrays), so many rows in one
call cost little more than one.

Admissible inventories always map inside the box: ``f = B'q`` satisfies
``f'Vf = q'(Sigma - R)q <= q'Sigma q`` for a positive semidefinite residual,
so a risk-admissible ``q`` cannot trigger the out-of-domain error below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

import numpy as np

from .errors import OutOfDomainError, ValidationError
from .events import SIDE_SIGNS
from .hamiltonian import quote_offset
from .model import SIDES, LogisticIntensity, MarketSpec, clean_inventory
from .solver import ValueSurface, check_time

REASON_OK = "ok"
REASON_BOX = "factor_out_of_grid"
REASON_RISK = "risk_limit"

#: reasons by the codes :func:`surface_quotes` returns
REASONS = (REASON_OK, REASON_BOX, REASON_RISK)

_SIGNS = np.array(SIDE_SIGNS)


def myopic_quote(intensity: LogisticIntensity, quote_floor: float = 1.0) -> float:
    """Inventory-blind offset maximising instantaneous expected revenue.

    This is the optimal offset at zero reservation level; the arrival rate
    cancels out of the first-order condition, so only the shape parameters
    matter.
    """
    return float(quote_offset(0.0, intensity.alpha, intensity.beta, quote_floor))


@dataclass(frozen=True)
class QuoteResult:
    """One priced (or refused) RFQ answer."""

    delta: float
    reason: str
    reservation: float

    @property
    def refused(self) -> bool:
        return self.reason != REASON_OK


def _check_size(size: float) -> None:
    if not 0.0 < size < np.inf:
        raise ValidationError(f"trade size must be positive and finite, got {size}")


def optimal_quote(
    surface: ValueSurface,
    market: MarketSpec,
    q,
    asset: int,
    side: str,
    size: float,
    t: float = 0.0,
) -> QuoteResult:
    """Feedback quote for one RFQ at inventory ``q``.

    Raises OutOfDomainError when the current factor point is outside the
    grid box (the model has nothing to say there); returns a refusal marker
    when only the post-trade state is bad.
    """
    if not 0 <= asset < market.n_assets:
        raise ValidationError(f"asset index {asset} out of range for {market.n_assets} assets")
    if side not in SIDES:
        raise ValidationError(f"side must be one of {SIDES}, got {side!r}")
    _check_size(size)
    check_time(t)
    delta, reason, reservation = surface_quotes(
        surface, market, t, clean_inventory(market, q)[None],
        np.array([asset]), np.array([SIDES.index(side)]), np.array([float(size)]), None, None,
    )
    return QuoteResult(float(delta[0]), REASONS[reason[0]], float(reservation[0]))


def surface_quotes(surface, market, t, inventories, asset_ix, side_ix, sizes, sq, risk, state=None):
    """The quoting rule, row by row: inventory, asset, side (0 bid, 1 ask) and size.

    ``sq`` (inventories @ Sigma) and ``risk`` (current q'Sigma q) may be
    passed in together by callers that maintain them incrementally; both
    are recomputed when ``sq`` is None.  ``state``, when given, indexes the
    rows of ``inventories``, ``sq`` and ``risk`` by quote row, so quote rows
    that share a state (the simulator's window of events, a start's
    buckets) read it without copies; None means one state per quote row.
    Returns ``(delta, reason, reservation)`` per quote row: ``reason`` holds
    indices into :data:`REASONS`, and ``delta`` and ``reservation`` are NaN
    on refused rows.
    """
    fm = surface.factor_model
    n = len(asset_ix)
    points = fm.factor_coordinates(inventories)
    here = points if state is None else points[state]
    signs = _SIGNS[side_ix]
    shifted = here + (signs * sizes)[:, None] * fm.shift_directions[asset_ix]

    # one interpolation pass over both point sets, which is also the one box
    # test of each point: value_many returns NaN exactly off the box.  Reads
    # do not depend on what else shares the batch, so at one quote time a
    # state's point is read once for all its rows.
    stationary = np.ndim(t) == 0
    now = points if stationary else here
    m = len(now)
    values = surface.value_many(
        t if stationary else np.concatenate([t, t]),
        np.concatenate([now, shifted]),
    )
    off_box = np.isnan(values)
    if off_box[:m].any():
        i = int(off_box[:m].argmax())
        row = i if stationary or state is None else state[i]
        raise OutOfDomainError(
            f"inventory {inventories[row].tolist()} is out of domain: its factor point "
            f"{now[i].tolist()} lies outside the grid box "
            f"(half widths {surface.grid.half_widths.tolist()})"
        )
    value_now = values[:m] if state is None or not stationary else values[state]
    value_shifted, inside = values[m:], ~off_box[m:]

    if sq is None:
        sq, risk = market.risk_state(inventories)
    if state is None:
        state = np.arange(n)
    else:
        risk = risk[state]
    _, admissible = market.post_trade_risk(risk, sq[state, asset_ix], signs, sizes, asset_ix)
    ok = inside & admissible

    # refused rows price a zero level; NaN arithmetic raises no warning
    reservation = np.where(ok, (value_now - value_shifted) / sizes, 0.0)
    _, alpha, beta = market.intensity_table[asset_ix, side_ix].T
    delta = quote_offset(reservation, alpha, beta, market.quote_floor)
    reason = np.where(ok, 0, np.where(inside, 2, 1))
    return np.where(ok, delta, np.nan), reason, np.where(ok, reservation, np.nan)


@dataclass(frozen=True, eq=False)
class MyopicPolicy:
    """Always answers the same offset per (asset, side); ignores inventory.

    The offsets are the optimal offsets at zero reservation level, computed
    once at construction, so quoting is a table lookup.  The policy itself
    never refuses; risk limits are enforced by whoever executes the fills.
    """

    market: MarketSpec
    kind: ClassVar[str] = "myopic"
    _array: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        _, alpha, beta = np.moveaxis(self.market.intensity_table, -1, 0)
        delta = quote_offset(np.zeros(alpha.shape), alpha, beta, self.market.quote_floor)
        object.__setattr__(self, "_array", delta)

    def quote_rows(self, t, inventories, asset_ix, side_ix, sizes, sq=None, risk=None,
                   state=None):
        delta = self._array[asset_ix, side_ix]
        return delta, np.ones(delta.shape, dtype=bool)


@dataclass(frozen=True, eq=False)
class SurfacePolicy:
    """Feedback quotes read off a solved surface by :func:`surface_quotes`.

    Quotes price the factor-grid risk only; the residual-risk correction
    applies to single RFQs (:func:`rfqmm.residual.adjusted_quote`).
    """

    surface: ValueSurface
    market: MarketSpec
    kind: ClassVar[str] = "surface"

    def quote_rows(self, t, inventories, asset_ix, side_ix, sizes, sq=None, risk=None,
                   state=None):
        """Per-row (asset, side, size) quoting for the event loop; ``state``
        indexes the inventories by row (see :func:`surface_quotes`).

        Returns ``(delta, ok)``; ``delta`` is NaN where the policy refuses.
        """
        delta, reason, _ = surface_quotes(
            self.surface, self.market, t,
            np.asarray(inventories, dtype=float), asset_ix, side_ix, sizes, sq, risk, state,
        )
        return delta, reason == 0


def quote_table(
    surface: ValueSurface,
    market: MarketSpec,
    inventories,
    sizes: Optional[Sequence[float]] = None,
):
    """Materialise quotes over a set of inventories at t = 0.

    Rows follow the input inventory order, then asset index, then side
    (bid before ask), then increasing size, so the output is deterministic.
    Each row is ``(q tuple, asset id, side, size, delta or None, reason)``,
    of plain Python values.
    """
    qs = np.reshape([clean_inventory(market, q) for q in inventories], (-1, market.n_assets))
    keys = [
        (i, s, float(z))
        for i, spec in enumerate(market.assets)
        for s, side in enumerate(SIDES)
        for z in (sizes if sizes is not None else spec.sizes(side).sizes)
    ]
    for _, _, z in keys:
        _check_size(z)
    if not keys:
        return []
    asset_ix, side_ix, row_sizes = (np.tile(col, len(qs)) for col in zip(*keys))
    q_rows = np.repeat(qs, len(keys), axis=0)
    delta, reason, _ = surface_quotes(
        surface, market, 0.0, q_rows, asset_ix, side_ix, row_sizes, None, None
    )
    return [
        (tuple(q), market.assets[i].asset_id, SIDES[s], z, None if r else d, REASONS[r])
        for q, (i, s, z), d, r in zip(q_rows.tolist(), keys * len(qs), delta.tolist(), reason)
    ]

