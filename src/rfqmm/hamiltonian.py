"""The quote optimizer for logistic fill intensities.

Quoting a spread d against a reservation level p earns Lambda(d) * (d - p)
per unit time.  For the logistic intensity the supremum over d >= -floor has
a scalar first-order condition which, after substituting x = alpha + beta*d,
reads

    x - exp(-x) = c,      c = beta*p + alpha + 1.

The left side is strictly increasing, so the root is unique.  It has a
closed form in the Wright omega function (Lawrence, Corless & Jeffrey, ACM
TOMS 2012): with y = omega(-c) the root satisfies exp(-x) = y, and at the
optimizer d*(p) (Gueant, "Optimal market making", Appl. Math. Finance
24(2), 2017)

    Lambda(d*) = lam * y / (1 + y),    d* - p = (1 + y) / beta,
    H(p)  = Lambda(d*) * (d* - p) = lam * y / beta
    H'(p) = -Lambda(d*)           = -lam * y / (1 + y)

so H is positive, decreasing and convex with |H'| <= Lambda(-floor).  Below
the clamp point, where the unconstrained optimizer would violate the floor,
H is affine with slope -Lambda(-floor).

The module has two entries, one per kind of caller:

* :func:`batch_quote_kernel` is the sweep's envelope: H on blocks of about
  2^16 elements, with H' beside it, which the sweep does not read and
  acceptance criterion 3 checks.  Both come through :func:`wright_omega`, a
  numpy evaluation of omega that costs about a third of scipy's
  ``wrightomega`` per element there (31 against 87 ns on a 2-core Xeon VM).  It computes no quote, no
  log and no intensity per element, and it runs its full-size steps in
  place: on a block a fresh temporary per operation costs more than the
  arithmetic.
* :func:`quote_offset` is the quoting rule's offset d*: the quotes, the
  myopic policy and the residual-adjusted quote call it on one to a few
  hundred rows, where scipy's ``wrightomega`` has the far smaller fixed
  cost per call (0.4 against 41 us on the same VM).

Against mpmath both omegas stay within 4 ulp on z in [-3.5, 0.9], which
holds every -c the sweep reads on the bundled markets, and :func:`wright_omega`
stays within scipy's own worst case (30 ulp) on [-60, 60]; at the extremes
the two agree within 2 ulp (``tests/test_hamiltonian.py``).  A surface swept
through either differs by rounding only.
"""

from __future__ import annotations

import numpy as np
from scipy.special import wrightomega

from .model import fill_intensity


#: smallest normal float; floors the discarded argument of the log branch
_TINY = np.finfo(float).tiny

def wright_omega(z):
    """Real Wright omega, omega + log(omega) = z, elementwise over an array.

    The starting guess of Lawrence, Corless & Jeffrey (ACM TOMS 2012) --
    ``exp(min(z, 2(z - 1)/3))`` below z = 1 and ``z - log z + log z / z``
    from there -- followed by two Fritsch-Shafer-Crowley steps, each of
    fourth order, which reach full double precision from that guess.  As in
    scipy, ``exp(z)`` is the answer below z = -50 and ``z`` above 1e20; the
    steps run on z clipped into that range, so every real z, and +-inf, gives
    a finite or exact result with no floating-point warning.  NaN stays NaN.
    Returns an array of z's shape, 0-d for a scalar.

    The steps work in place on five full-size buffers: on a sweep block a
    fresh temporary per operation would cost more than the arithmetic.
    They are one allocation, not five.  glibc gives the free top of its
    heap back to the system once it exceeds twice the largest allocation
    freed so far through mmap.  With five separate buffers of a sweep
    block's size, a fresh process gave memory back at every block and
    faulted it in again: a 2-asset 81^2 solve took 1.3 million page faults
    and about 1.4 times the wall time.  One buffer five times as large
    raises that bound above what a block frees.
    """
    z = np.asarray(z, dtype=float)
    shape, z = z.shape, z.ravel()
    x, w, r, q, e = np.empty((5, z.size))
    np.maximum(z, -50.0, out=x)
    np.minimum(x, 1e20, out=x)
    np.minimum(x, 1.0, out=w)
    np.subtract(w, 1.0, out=r)
    r *= 2.0 / 3.0
    np.minimum(w, r, out=w)
    np.exp(w, out=w)
    big = x >= 1.0
    if big.any():
        xb = x[big]
        lb = np.log(xb)
        w[big] = xb - lb + lb / xb
    for _ in range(2):
        # w *= 1 + e,  e = r/(w+1) * (q - r)/(q - 2r),
        # q = 2(w+1)(w+1 + 2r/3),  r = x - w - log w
        np.log(w, out=r)
        np.subtract(x, r, out=r)
        r -= w
        np.add(w, 1.0, out=e)
        np.multiply(r, 2.0 / 3.0, out=q)
        q += e
        q *= e
        q *= 2.0
        q -= r
        np.divide(r, e, out=e)
        e *= q
        q -= r
        e /= q
        e *= w
        w += e
    low = z < -50.0
    if low.any():
        w[low] = np.exp(z[low])
    high = z > 1e20
    if high.any():
        w[high] = z[high]
    return w.reshape(shape)


def batch_quote_kernel(p, lam, alpha, beta, floor):
    """The envelope H(p) and its slope H'(p), elementwise; the sweep's kernel.

    Returns ``(value, slope)``: the supremum of Lambda(d) * (d - p) over
    d >= -floor and its derivative in p.  All of ``p, lam, alpha, beta``
    broadcast elementwise.  Off the clamp both come from y = omega(-c)
    (module docstring); on it, c < c_f = x_f - exp(-x_f) with
    x_f = alpha - beta*floor, H is the affine Lambda(-floor) * (-floor - p).
    Intensity and clamp point are computed at the broadcast shape of the
    curve parameters only, which in the sweep is one per row.  Full-size
    steps run in place, as in :func:`wright_omega`.
    """
    p = np.asarray(p, dtype=float)
    x_f = alpha - beta * floor
    # the cap keeps exp finite; it moves c_f only where x_f < -700, below
    # any c a finite reservation level reaches
    c_f = x_f - np.exp(np.minimum(-x_f, 700.0))
    c = np.multiply(beta, p, out=np.empty(np.broadcast(p, lam, alpha, beta).shape))
    c += alpha
    c += 1.0
    clamped = c < c_f
    np.negative(c, out=c)
    value = wright_omega(c)
    slope = np.add(value, 1.0, out=c)
    value *= lam
    np.divide(value, slope, out=slope)
    np.negative(slope, out=slope)
    value /= beta
    if clamped.any():
        lam_f = fill_intensity(lam, x_f)
        np.subtract(-floor, p, out=value, where=clamped)
        np.multiply(lam_f, value, out=value, where=clamped)
        np.negative(lam_f, out=slope, where=clamped)
    return value[()], slope[()]


def solve_offset_equation(c):
    """Solve x - exp(-x) = c elementwise; scalars in, float out.

    With y = omega(-c) from scipy, the root is x = c + y for c >= 0 and
    x = -log(y) for c < 0.  The two branches are the same root; each is
    taken where it is free of cancellation.  For c >= 0, y lies in
    (0, omega(0)] and may underflow to 0 (c above about 745), which leaves
    x = c exactly.  For c < 0, y exceeds omega(0) and c + y would cancel as
    c goes to -inf.

    Both branches are evaluated everywhere.  The log branch is kept only for
    c < 0, where y > omega(0) ~ 0.567, so flooring y at the smallest normal
    float changes no kept element; it spares log(0) where y underflows.
    """
    c = np.asarray(c, dtype=float)
    y = wrightomega(-c)
    x = np.where(c >= 0.0, c + y, -np.log(np.maximum(y, _TINY)))
    return float(x) if x.ndim == 0 else x


def quote_offset(p, alpha, beta, floor):
    """The optimal offset d*(p) >= -floor, elementwise; the quoting rule's.

    The root of :func:`solve_offset_equation` mapped back to a spread and
    clamped at the floor.  ``p, alpha, beta`` broadcast elementwise.
    """
    p = np.asarray(p, dtype=float)
    x = solve_offset_equation(beta * p + alpha + 1.0)
    return np.maximum((x - alpha) / beta, -floor)
