"""The quote optimizer for logistic fill intensities.

:func:`batch_quote_kernel` is the one optimizer: the solver's sweep, the
quoting rule, the myopic quote and the residual-adjusted quote all call it,
and it reads Lambda through :func:`rfqmm.model.fill_intensity`.

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

import numpy as np
from scipy.special import wrightomega

from .model import fill_intensity


#: smallest normal float; floors the discarded argument of the log branch
_TINY = np.finfo(float).tiny


def solve_offset_equation(c):
    """Solve x - exp(-x) = c elementwise; scalars in, float out.

    Both branches are evaluated everywhere.  The log branch is kept only for
    c < 0, where y > omega(0) ~ 0.567, so flooring y at the smallest normal
    float changes no kept element; it spares log(0) where y underflows.
    """
    c = np.asarray(c, dtype=float)
    y = wrightomega(-c)
    x = np.where(c >= 0.0, c + y, -np.log(np.maximum(y, _TINY)))
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
    lam_d = fill_intensity(lam, alpha + beta * delta)
    value = lam_d * (delta - p)
    slope = -lam_d
    return delta, value, slope
