"""Market model primitives for size-aware RFQ market making.

This module defines the immutable inputs everything else consumes:

* :func:`fill_intensity` - the logistic fill intensity, the one evaluation of
  the curve that the quote kernel, the simulator and
  :class:`LogisticIntensity` share.
* :class:`LogisticIntensity` - arrival intensity of fillable quote requests as
  a function of the quoted spread, logistic in the quote.
* :class:`GammaSpec` / :class:`SizeDistribution` - trade size law and its
  discretization onto a finite set of size atoms.
* :class:`RiskPenalty` - running and terminal inventory penalties expressed as
  functions of the aggregate risk level y = q' Sigma q.
* :class:`AssetSpec` / :class:`MarketSpec` - per-asset quote dynamics and the
  joint market description (correlation, covariance, horizon, risk limit).
* :func:`build_covariance`, :func:`discretize_gamma`, :func:`clean_inventory`,
  :func:`validate_hypotheses` - assembly and validation helpers.

The paper's hypotheses on each intensity curve hold in closed form for
every curve that the construction checks of :class:`LogisticIntensity`
accept; :func:`validate_hypotheses` states the proof.

All container types are frozen dataclasses; arrays they carry are marked
read-only so instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal, Sequence, get_args

import numpy as np
from scipy import special

from .errors import ValidationError

#: relative tolerance for the positive-semidefiniteness gate on covariances
PSD_TOL = 1e-10

#: absolute tolerance for size-atom probabilities summing to one
PROB_TOL = 1e-12

#: relative slack on the risk limit, so a post-trade risk that lands on the
#: limit up to round-off is still admissible
RISK_SLACK = 1.0 + 1e-12

Side = Literal["bid", "ask"]
SIDES: tuple[Side, Side] = ("bid", "ask")


def _check_scalar(name: str, value, positive: bool = True) -> None:
    """Refuse ``value``, naming it ``name``, unless it is finite and positive
    (nonnegative when ``positive`` is false)."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        sign = "positive" if positive else "nonnegative"
        raise ValidationError(f"{name} must be {sign} and finite, got {value!r}")


def fill_intensity(lam, u):
    """Logistic fill intensity ``lam / (1 + exp(u))`` at ``u = alpha + beta * delta``.

    The one evaluation of the curve: the quote kernel, the simulator (with
    ``lam = 1``, a fill probability) and :class:`LogisticIntensity` all call
    it.  Capping ``u`` at 700 keeps ``exp`` finite at very wide quotes.
    """
    return lam / (1.0 + np.exp(np.minimum(u, 700.0)))


@dataclass(frozen=True)
class LogisticIntensity:
    """Intensity of filled requests as a function of the quoted spread.

    The arrival rate of requests is ``lambda_rfq`` (per day) and a request
    quoted at spread ``delta`` is filled with probability
    ``1 / (1 + exp(alpha + beta * delta))``, so the fill intensity is

        Lambda(delta) = lambda_rfq / (1 + exp(alpha + beta * delta)).

    ``beta`` has units of one over currency and controls how quickly fills
    decay as quotes widen; ``alpha`` sets the fill probability at zero spread.
    """

    lambda_rfq: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("lambda_rfq", "alpha", "beta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"intensity parameter {name!r} must be finite, got {value!r}")
        if self.lambda_rfq < 0.0:
            raise ValidationError(
                f"lambda_rfq must be nonnegative (got {self.lambda_rfq}); "
                "zero is allowed and means requests never arrive"
            )
        if self.beta <= 0.0:
            raise ValidationError(
                f"beta must be positive (got {self.beta}); "
                "fill probability must decrease in the quoted spread"
            )

    def __call__(self, delta):
        """Fill intensity Lambda(delta), per day."""
        return fill_intensity(self.lambda_rfq, self.alpha + self.beta * np.asarray(delta, dtype=float))


@dataclass(frozen=True)
class GammaSpec:
    """Gamma law for request sizes, parameterized by shape and rate."""

    shape: float
    rate: float

    def __post_init__(self):
        _check_scalar("gamma size law shape", self.shape)
        _check_scalar("gamma size law rate", self.rate)

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def stdev(self) -> float:
        return math.sqrt(self.shape) / self.rate


@dataclass(frozen=True)
class SizeDistribution:
    """Finite distribution of request sizes.

    ``sizes`` must be strictly increasing and positive; ``probabilities`` must
    be nonnegative and sum to one within ``PROB_TOL``.
    """

    sizes: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        if len(self.sizes) == 0:
            raise ValidationError("size distribution needs at least one atom")
        if len(self.sizes) != len(self.probabilities):
            raise ValidationError(
                f"{len(self.sizes)} sizes but {len(self.probabilities)} probabilities"
            )
        prev = 0.0
        for z in self.sizes:
            if not math.isfinite(z) or z <= prev:
                raise ValidationError(
                    f"sizes must be positive, finite and strictly increasing, got {self.sizes}"
                )
            prev = z
        for p in self.probabilities:
            if not math.isfinite(p) or p < 0.0:
                raise ValidationError(f"probabilities must be nonnegative, got {self.probabilities}")
        total = math.fsum(self.probabilities)
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(
                f"size probabilities sum to {total!r}, expected 1 within {PROB_TOL}"
            )


DiscretizationRule = Literal["midpoint_cdf", "pdf_weights"]


def discretize_gamma(
    spec: GammaSpec,
    n_atoms: int,
    z_max_sigmas: float = 3.0,
    rule: DiscretizationRule = "midpoint_cdf",
    z_max: float | None = None,
) -> SizeDistribution:
    """Project a gamma size law onto ``n_atoms`` equally spaced atoms.

    The atoms are ``z_k = k * z_max / n_atoms`` for ``k = 1..n_atoms`` with
    ``z_max = mean + z_max_sigmas * stdev`` unless ``z_max`` is given
    explicitly.  Two weighting rules are supported:

    ``midpoint_cdf``
        Atom ``k`` receives the gamma probability mass of the interval
        bounded by the midpoints to its neighbours (first interval starts at
        0, last extends to infinity), then weights are renormalized.

    ``pdf_weights``
        Atom ``k`` receives weight proportional to the gamma density at
        ``z_k``.  This is the rule that reproduces the bundled reference
        scenarios' published probabilities.

    A single atom (``n_atoms == 1``) is placed at the gamma mean with unit
    mass whichever the rule; an unknown rule is refused all the same.
    """
    if rule not in get_args(DiscretizationRule):
        raise ValidationError(f"unknown discretization rule {rule!r}")
    if n_atoms < 1:
        raise ValidationError(f"n_atoms must be >= 1, got {n_atoms}")
    if n_atoms == 1:
        return SizeDistribution(sizes=(spec.mean,), probabilities=(1.0,))
    top = float(z_max) if z_max is not None else spec.mean + z_max_sigmas * spec.stdev
    if top <= 0.0:
        raise ValidationError(f"size-grid upper bound must be positive, got {top}")
    step = top / n_atoms
    atoms = step * np.arange(1, n_atoms + 1)

    if rule == "midpoint_cdf":
        inner_edges = 0.5 * (atoms[:-1] + atoms[1:])
        cdf = special.gammainc(spec.shape, spec.rate * inner_edges)
        masses = np.diff(np.concatenate(([0.0], cdf, [1.0])))
    else:
        x = spec.rate * atoms
        log_pdf = (spec.shape - 1.0) * np.log(x) - x
        masses = np.exp(log_pdf - log_pdf.max())

    weights = masses / masses.sum()
    return SizeDistribution(sizes=tuple(float(z) for z in atoms), probabilities=tuple(float(w) for w in weights))


@dataclass(frozen=True)
class RiskPenalty:
    """Running and terminal inventory penalties.

    Both penalties are functions of the aggregate risk level
    ``y = q' Sigma q``.  The running penalty drains value at rate
    ``running(y)`` per day; the terminal penalty charges ``terminal(y)`` once
    at the horizon.  Supported forms:

    * running: ``quadratic`` gives ``gamma / 2 * y``; ``sqrt`` gives
      ``gamma * sqrt(y)``.
    * terminal: ``zero``; ``quadratic`` gives ``zeta / 2 * y``; ``sqrt``
      gives ``zeta * sqrt(y)``.

    Note the quadratic running form is linear in y: y is already a quadratic
    form of the inventory.
    """

    running_form: Literal["quadratic", "sqrt"] = "quadratic"
    gamma: float = 0.0
    terminal_form: Literal["zero", "quadratic", "sqrt"] = "zero"
    zeta: float = 0.0

    def __post_init__(self):
        if self.running_form not in ("quadratic", "sqrt"):
            raise ValidationError(f"unknown running penalty form {self.running_form!r}")
        if self.terminal_form not in ("zero", "quadratic", "sqrt"):
            raise ValidationError(f"unknown terminal penalty form {self.terminal_form!r}")
        _check_scalar("penalty gamma", self.gamma, positive=False)
        _check_scalar("penalty zeta", self.zeta, positive=False)

    def running(self, y):
        y = np.asarray(y, dtype=float)
        if self.running_form == "quadratic":
            return 0.5 * self.gamma * y
        return self.gamma * np.sqrt(y)

    def running_derivative(self, y):
        """d running / dy.  Undefined at y = 0 for the sqrt form with
        ``gamma > 0``; a zero weight has derivative 0 everywhere."""
        y = np.asarray(y, dtype=float)
        if self.running_form == "quadratic" or self.gamma == 0.0:
            return np.full_like(y, 0.5 * self.gamma)
        return 0.5 * self.gamma / np.sqrt(y)

    def terminal(self, y):
        y = np.asarray(y, dtype=float)
        if self.terminal_form == "zero":
            return np.zeros_like(y)
        if self.terminal_form == "quadratic":
            return 0.5 * self.zeta * y
        return self.zeta * np.sqrt(y)

    def terminal_derivative(self, y):
        """d terminal / dy.  Undefined at y = 0 for the sqrt form with
        ``zeta > 0``; a zero weight has derivative 0 everywhere."""
        y = np.asarray(y, dtype=float)
        if self.terminal_form == "zero":
            return np.zeros_like(y)
        if self.terminal_form == "quadratic" or self.zeta == 0.0:
            return np.full_like(y, 0.5 * self.zeta)
        return 0.5 * self.zeta / np.sqrt(y)

    @property
    def is_smooth(self) -> bool:
        """True when both penalty forms are differentiable in y at zero."""
        if self.running_form == "sqrt" and self.gamma > 0.0:
            return False
        if self.terminal_form == "sqrt" and self.zeta > 0.0:
            return False
        return True


@dataclass(frozen=True)
class AssetSpec:
    """One tradable asset: reference price, volatility and per-side flow."""

    asset_id: str
    s0: float
    sigma: float
    bid_intensity: LogisticIntensity
    ask_intensity: LogisticIntensity
    bid_sizes: SizeDistribution
    ask_sizes: SizeDistribution

    def __post_init__(self):
        _check_scalar(f"asset {self.asset_id!r}: s0", self.s0)
        _check_scalar(f"asset {self.asset_id!r}: sigma", self.sigma)

    def intensity(self, side: Side) -> LogisticIntensity:
        return self.bid_intensity if side == "bid" else self.ask_intensity

    def sizes(self, side: Side) -> SizeDistribution:
        return self.bid_sizes if side == "bid" else self.ask_sizes


def build_covariance(sigmas: Sequence[float], correlation: np.ndarray) -> np.ndarray:
    """Assemble Sigma_ij = rho_ij * sigma_i * sigma_j and validate it.

    Checks: the correlation matrix is square, symmetric, has a unit diagonal,
    entries within [-1, 1], and the resulting covariance passes a
    positive-semidefiniteness gate (smallest eigenvalue above
    ``-PSD_TOL * trace``).  Raises :class:`ValidationError` naming the most
    negative eigenvalue otherwise.
    """
    sig = np.asarray(sigmas, dtype=float)
    rho = np.asarray(correlation, dtype=float)
    d = sig.shape[0]
    if np.any(sig <= 0.0):
        raise ValidationError(f"volatilities must be positive, got {sig.tolist()}")
    if rho.shape != (d, d):
        raise ValidationError(f"correlation shape {rho.shape} does not match {d} assets")
    if not np.allclose(rho, rho.T, rtol=0.0, atol=1e-12):
        raise ValidationError("correlation matrix is not symmetric")
    if not np.allclose(np.diag(rho), 1.0, rtol=0.0, atol=1e-12):
        raise ValidationError(f"correlation diagonal must be 1, got {np.diag(rho).tolist()}")
    if np.any(np.abs(rho) > 1.0 + 1e-12):
        bad = float(np.max(np.abs(rho)))
        raise ValidationError(f"correlation entries must lie in [-1, 1], largest magnitude {bad}")
    cov = rho * np.outer(sig, sig)
    cov = 0.5 * (cov + cov.T)
    eigenvalues = np.linalg.eigvalsh(cov)
    floor = -PSD_TOL * float(np.trace(cov))
    if eigenvalues[0] < floor:
        raise ValidationError(
            "covariance is not positive semidefinite: "
            f"most negative eigenvalue {eigenvalues[0]:.6e} is below the tolerance {floor:.6e}"
        )
    cov.setflags(write=False)
    return cov


@dataclass(frozen=True, eq=False)
class MarketSpec:
    """Joint description of the quoting problem.

    ``horizon`` is in days, matching the per-day request intensities.
    ``risk_limit`` bounds the admissible aggregate risk q' Sigma q.
    ``quote_floor`` is the largest admissible price improvement: quotes are
    constrained to delta >= -quote_floor.
    """

    assets: tuple[AssetSpec, ...]
    correlation: np.ndarray
    horizon: float
    risk_limit: float
    penalty: RiskPenalty
    quote_floor: float = 1.0
    covariance: np.ndarray = field(init=False)

    def __post_init__(self):
        if len(self.assets) == 0:
            raise ValidationError("market needs at least one asset")
        ids = [a.asset_id for a in self.assets]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate asset ids: {ids}")
        _check_scalar("horizon", self.horizon)
        _check_scalar("risk_limit", self.risk_limit)
        _check_scalar("quote_floor", self.quote_floor)
        rho = np.array(self.correlation, dtype=float)
        rho.setflags(write=False)
        object.__setattr__(self, "correlation", rho)
        cov = build_covariance([a.sigma for a in self.assets], rho)
        object.__setattr__(self, "covariance", cov)

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @cached_property
    def intensity_table(self) -> np.ndarray:
        """(assets, 2, 3) array: ``lambda_rfq, alpha, beta`` by (asset, side)."""
        table = np.array(
            [
                [[lam.lambda_rfq, lam.alpha, lam.beta] for lam in map(a.intensity, SIDES)]
                for a in self.assets
            ]
        )
        table.setflags(write=False)
        return table

    def risk_state(self, q):
        """``(Sigma q, q'Sigma q)`` of ``(rows, assets)`` inventories, the one
        rule for a state's risk: row-wise contractions, not BLAS products, so
        a row's bits do not depend on the other rows or the BLAS build."""
        sq = np.einsum("nd,ed->ne", q, self.covariance)
        return sq, np.einsum("nd,nd->n", q, sq)

    def post_trade_risk(self, risk, sq_own, sign, size, asset):
        """Risk ``q'Sigma q`` after a fill of ``sign * size`` units of ``asset``.

        ``risk`` is the current ``q'Sigma q`` and ``sq_own`` the current
        ``(Sigma q)_asset``; all arguments broadcast.  Returns the post-trade
        risk and whether it stays within the risk limit.  The update can round
        below zero when a fill returns the inventory to flat, so the risk is
        clamped at 0, where the simulators take its square root.
        """
        post = risk + 2.0 * sign * size * sq_own + size * size * self.covariance[asset, asset]
        post = np.maximum(post, 0.0)
        return post, post <= self.risk_limit * RISK_SLACK

    def intensity_sum_at_floor(self) -> float:
        """Sum over assets and sides of the fill intensity at the quote floor.

        This is the Lipschitz budget that caps the explicit solver's step.
        """
        return float(
            sum(a.intensity(side)(-self.quote_floor) for a in self.assets for side in SIDES)
        )


def clean_inventory(market: MarketSpec, q) -> np.ndarray:
    """A fresh ``(assets,)`` inventory array: zeros for None, else finite ``q``."""
    d = market.n_assets
    if q is None:
        return np.zeros(d)
    arr = np.array(q, dtype=float)
    if arr.shape != (d,):
        raise ValidationError(
            f"inventory has shape {arr.shape}; a market of {d} assets needs {d} components"
        )
    if not np.isfinite(arr).all():
        raise ValidationError(f"inventory {arr.tolist()} must be finite")
    return arr


@dataclass(frozen=True)
class HypothesisReport:
    """The outcome of :func:`validate_hypotheses`: every curve passes."""

    @property
    def passed(self) -> bool:
        return True

    def failures(self) -> list[str]:
        return []


def validate_hypotheses(market: MarketSpec) -> HypothesisReport:
    """Check each intensity curve against the paper's hypotheses on Lambda.

    The hypotheses: Lambda is smooth and decreasing, vanishes at wide quotes,
    and sup Lambda * Lambda'' / Lambda'^2 < 2.  For the logistic curve
    Lambda(delta) = lambda_rfq * s with s = 1 / (1 + exp(alpha + beta * delta))
    they hold in closed form (Gueant, Appl. Math. Finance 24(2), 2017):

    * Lambda is infinitely differentiable, and Lambda -> 0 as delta -> inf;
    * Lambda' = -lambda_rfq * beta * s * (1 - s) < 0;
    * Lambda * Lambda'' / Lambda'^2 = (1 - 2s) / (1 - s) < 1,

    for every lambda_rfq > 0 and beta > 0, since 0 < s < 1.  A side with
    ``lambda_rfq == 0`` never trades, so it has no shape to check.
    :class:`LogisticIntensity` refuses every other parameter (non-finite
    values, lambda_rfq < 0, beta <= 0) at construction, so no curve can
    fail here and nothing is evaluated: the report passes.
    """
    return HypothesisReport()
