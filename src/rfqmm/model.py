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
* :func:`build_covariance`, :func:`discretize_gamma`,
  :func:`validate_hypotheses` - assembly and validation helpers.

All container types are frozen dataclasses; arrays they carry are marked
read-only so instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Literal, Sequence

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

    def _exponent(self, delta):
        return self.alpha + self.beta * np.asarray(delta, dtype=float)

    def fill_probability(self, delta):
        """Probability that a request quoted at ``delta`` is filled."""
        return fill_intensity(1.0, self._exponent(delta))

    def __call__(self, delta):
        """Fill intensity Lambda(delta), per day."""
        return fill_intensity(self.lambda_rfq, self._exponent(delta))

    def derivative(self, delta):
        """d Lambda / d delta, always negative."""
        s = self.fill_probability(delta)
        return -self.lambda_rfq * self.beta * s * (1.0 - s)

    def second_derivative(self, delta):
        s = self.fill_probability(delta)
        return self.lambda_rfq * self.beta**2 * s * (1.0 - s) * (1.0 - 2.0 * s)

    def curvature_ratio(self, delta):
        """Lambda * Lambda'' / Lambda'^2, analytically 1 - exp(-(alpha + beta delta)).

        Strictly below 1 everywhere, hence below the bound of 2 required for
        the quote optimization to be well posed.
        """
        return 1.0 - np.exp(np.minimum(-self._exponent(delta), 700.0))


@dataclass(frozen=True)
class GammaSpec:
    """Gamma law for request sizes, parameterized by shape and rate."""

    shape: float
    rate: float

    def __post_init__(self):
        if self.shape <= 0.0 or self.rate <= 0.0:
            raise ValidationError(
                f"gamma size law needs positive shape and rate, got shape={self.shape}, rate={self.rate}"
            )

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

    @property
    def n_atoms(self) -> int:
        return len(self.sizes)

    @property
    def mean(self) -> float:
        return math.fsum(z * p for z, p in zip(self.sizes, self.probabilities))

    @property
    def mean_square(self) -> float:
        return math.fsum(z * z * p for z, p in zip(self.sizes, self.probabilities))


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
    mass regardless of the rule.
    """
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
    elif rule == "pdf_weights":
        x = spec.rate * atoms
        log_pdf = (spec.shape - 1.0) * np.log(x) - x
        masses = np.exp(log_pdf - log_pdf.max())
    else:
        raise ValidationError(f"unknown discretization rule {rule!r}")

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
        if self.gamma < 0.0 or self.zeta < 0.0:
            raise ValidationError(
                f"penalty weights must be nonnegative, got gamma={self.gamma}, zeta={self.zeta}"
            )

    def running(self, y):
        y = np.asarray(y, dtype=float)
        if self.running_form == "quadratic":
            return 0.5 * self.gamma * y
        return self.gamma * np.sqrt(y)

    def running_derivative(self, y):
        """d running / dy.  Undefined at y = 0 for the sqrt form."""
        y = np.asarray(y, dtype=float)
        if self.running_form == "quadratic":
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
        y = np.asarray(y, dtype=float)
        if self.terminal_form == "zero":
            return np.zeros_like(y)
        if self.terminal_form == "quadratic":
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
        if self.s0 <= 0.0:
            raise ValidationError(f"asset {self.asset_id!r}: s0 must be positive, got {self.s0}")
        if self.sigma <= 0.0:
            raise ValidationError(f"asset {self.asset_id!r}: sigma must be positive, got {self.sigma}")

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
        if self.horizon <= 0.0:
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        if self.risk_limit <= 0.0:
            raise ValidationError(f"risk_limit must be positive, got {self.risk_limit}")
        if self.quote_floor <= 0.0:
            raise ValidationError(f"quote_floor must be positive, got {self.quote_floor}")
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

    def post_trade_risk(self, risk, sq_own, sign, size, asset):
        """Risk ``q'Sigma q`` after a fill of ``sign * size`` units of ``asset``.

        ``risk`` is the current ``q'Sigma q`` and ``sq_own`` the current
        ``(Sigma q)_asset``; all arguments broadcast.  Returns the post-trade
        risk and whether it stays within the risk limit.
        """
        post = risk + 2.0 * sign * size * sq_own + size * size * self.covariance[asset, asset]
        return post, post <= self.risk_limit * RISK_SLACK

    def intensity_sum_at_floor(self) -> float:
        """Sum over assets and sides of the fill intensity at the quote floor.

        This is the Lipschitz budget that caps the explicit solver's step.
        """
        return float(
            sum(a.intensity(side)(-self.quote_floor) for a in self.assets for side in SIDES)
        )


@dataclass(frozen=True)
class SideCheck:
    """Validation result for one (asset, side) intensity curve."""

    asset_id: str
    side: Side
    max_curvature_ratio: float
    max_slope: float
    tail_mass: float
    messages: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return len(self.messages) == 0


@dataclass(frozen=True)
class HypothesisReport:
    """Aggregate of per-side intensity checks."""

    checks: tuple[SideCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[str]:
        out = []
        for c in self.checks:
            out.extend(f"{c.asset_id}/{c.side}: {m}" for m in c.messages)
        return out


def validate_hypotheses(market: MarketSpec, n_probes: int = 100) -> HypothesisReport:
    """Check each intensity curve supports a well-posed quote optimization.

    For each (asset, side) the curve is probed at ``n_probes`` quotes:

    * the finite-difference slope must be strictly negative,
    * the curvature ratio Lambda * Lambda'' / Lambda'^2 (finite differences)
      must stay below 2 where the intensity is numerically supported,
    * the intensity must have decayed to numerical zero at the upper probe.

    Positivity of ``beta`` is enforced at construction time; the probes here
    guard the shape conditions.  A side with ``lambda_rfq == 0`` never
    trades, so it has no shape to check: it is reported with no messages and
    NaN statistics, unprobed.
    """
    checks = []
    for asset in market.assets:
        for side in SIDES:
            lam = asset.intensity(side)
            if lam.lambda_rfq == 0.0:
                nan = float("nan")
                checks.append(SideCheck(asset.asset_id, side, nan, nan, nan, messages=()))
                continue
            messages: list[str] = []
            h = 1e-4 / lam.beta

            def window(width):
                # probe where the curve is numerically active; outside
                # |alpha + beta*delta| <= width the intensity saturates and
                # finite differences of it are rounding noise
                hi = (width - lam.alpha) / lam.beta
                lo = max(-market.quote_floor, (-width - lam.alpha) / lam.beta)
                if hi <= lo:
                    hi = lo + 1.0
                return np.linspace(lo, hi, n_probes)

            deltas = window(18.0)
            slope = (lam(deltas + h) - lam(deltas - h)) / (2.0 * h)
            max_slope = float(slope.max())
            if max_slope >= 0.0:
                messages.append(f"intensity is not strictly decreasing (max slope {max_slope:.3e})")

            # The curvature ratio needs second differences, which drown in
            # rounding error once the curve saturates; its supremum is
            # approached at the wide-quote end of the active window, so the
            # tighter window loses nothing.
            deltas = window(8.0)
            up, dn, mid = lam(deltas + h), lam(deltas - h), lam(deltas)
            slope = (up - dn) / (2.0 * h)
            curvature = (up - 2.0 * mid + dn) / (h * h)
            ratio = mid * curvature / slope**2
            max_ratio = float(ratio.max())
            if max_ratio >= 2.0:
                messages.append(f"curvature ratio reaches {max_ratio:.6f}, must stay below 2")
            tail = float(lam((40.0 - lam.alpha) / lam.beta) / lam.lambda_rfq)
            if tail > 1e-12:
                messages.append(f"intensity does not vanish at wide quotes (tail mass {tail:.3e})")
            checks.append(
                SideCheck(
                    asset_id=asset.asset_id,
                    side=side,
                    max_curvature_ratio=max_ratio,
                    max_slope=max_slope,
                    tail_mass=tail,
                    messages=tuple(messages),
                )
            )
    return HypothesisReport(checks=tuple(checks))
