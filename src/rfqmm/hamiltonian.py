"""Exact quote optimization kernels for logistic fill intensities.

Quoting a spread d against a reservation level p earns Lambda(d) * (d - p)
per unit time.  For the logistic intensity the supremum over d >= -floor has
a scalar first-order condition which, after substituting x = alpha + beta*d,
reads

    x - exp(-x) = c,      c = beta*p + alpha + 1.

The left side is strictly increasing, so the root is unique.  It has a
closed form in the Wright omega function (Lawrence, Corless & Jeffrey, ACM
TOMS 2012): with y = omega(-c) the root satisfies exp(-x) = y, so

    x = c + y          for c >= 0,
    x = -log(y)        for c < 0.

The two branches are the same root; each is taken where it is free of
cancellation.  For c >= 0, y lies in (0, omega(0)] and may underflow to 0
(c above about 745), which leaves x = c exactly.  For c < 0, y exceeds
omega(0) and c + y would cancel as c goes to -inf.

Derived quantities at the optimizer d*(p):

    H(p)  = Lambda(d*) * (d* - p)        (positive, decreasing, convex)
    H'(p) = -Lambda(d*)                  (so |H'| <= Lambda(-floor))

Below the clamp point, where the unconstrained optimizer would violate the
floor, H is affine with slope -Lambda(-floor).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import wrightomega

from .model import LogisticIntensity


def solve_offset_equation(c):
    """Solve x - exp(-x) = c elementwise; scalars in, float out."""
    c = np.asarray(c, dtype=float)
    y = wrightomega(-c)
    with np.errstate(divide="ignore"):
        x = np.where(c >= 0.0, c + y, -np.log(y))
    return float(x) if x.ndim == 0 else x


def batch_quote_kernel(p, lam, alpha, beta, floor):
    """Vectorized optimizer and envelope for per-element intensity parameters.

    Returns ``(delta, value, slope)`` where ``delta`` maximizes
    Lambda(d) * (d - p) over d >= -floor and ``value``/``slope`` are the
    envelope and its derivative in p.  All of ``p, lam, alpha, beta``
    broadcast elementwise.
    """
    p = np.asarray(p, dtype=float)
    x = solve_offset_equation(beta * p + alpha + 1.0)
    delta = np.maximum((x - alpha) / beta, -floor)
    u = alpha + beta * delta
    # Lambda(delta) without overflow for large u
    lam_d = lam / (1.0 + np.exp(np.minimum(u, 700.0)))
    value = lam_d * (delta - p)
    slope = -lam_d
    return delta, value, slope


@dataclass(frozen=True)
class HamiltonianOps:
    """Quote optimizer bound to one intensity curve and one quote floor.

    ``lipschitz_bound`` is Lambda(-floor), the uniform bound on the envelope
    slope; the explicit solver's step budget is built from it.
    """

    intensity: LogisticIntensity
    quote_floor: float
    lipschitz_bound: float = field(init=False)

    def __post_init__(self):
        if self.quote_floor <= 0.0:
            raise ValueError(f"quote floor must be positive, got {self.quote_floor}")
        object.__setattr__(self, "lipschitz_bound", float(self.intensity(-self.quote_floor)))

    def _kernel(self, p):
        lam = self.intensity
        return batch_quote_kernel(p, lam.lambda_rfq, lam.alpha, lam.beta, self.quote_floor)

    def unconstrained_quote(self, p):
        """Optimizer ignoring the floor (the root of the first-order condition)."""
        lam = self.intensity
        x = solve_offset_equation(lam.beta * np.asarray(p, dtype=float) + lam.alpha + 1.0)
        return (x - lam.alpha) / lam.beta

    def delta_star(self, p):
        """Floor-clamped optimal quote."""
        return self._kernel(p)[0]

    def hamiltonian(self, p):
        """Envelope value sup_{d >= -floor} Lambda(d) * (d - p)."""
        return self._kernel(p)[1]

    def hamiltonian_derivative(self, p):
        """Envelope slope, equal to -Lambda(delta_star(p))."""
        return self._kernel(p)[2]
