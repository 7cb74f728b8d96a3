"""Shared builders for test markets.

Two reference scenarios recur across the suite: a 2-asset market with one
liquid and one less liquid bond, and a 30-asset market split into two blocks
of 15 assets with high within-block correlation.  Builders default to those
parameterizations; individual tests override what they need.
"""

from __future__ import annotations

import numpy as np

from rfqmm.events import PathEvents
from rfqmm.hamiltonian import quote_offset
from rfqmm.model import (
    AssetSpec,
    GammaSpec,
    LogisticIntensity,
    MarketSpec,
    RiskPenalty,
    SizeDistribution,
    fill_intensity,
)

# size atoms and weights used by the reference scenarios
REFERENCE_SIZES = (6250.0, 12500.0, 18750.0, 25000.0)
REFERENCE_PROBS = (0.53, 0.35, 0.10, 0.02)

REFERENCE_GAMMA = GammaSpec(shape=4.0, rate=4.0e-4)


def make_intensity(lam: float = 30.0, alpha: float = 0.7, beta: float = 30.0) -> LogisticIntensity:
    return LogisticIntensity(lambda_rfq=lam, alpha=alpha, beta=beta)


def make_sizes(sizes=REFERENCE_SIZES, probs=REFERENCE_PROBS) -> SizeDistribution:
    return SizeDistribution(sizes=tuple(sizes), probabilities=tuple(probs))


def make_asset(
    asset_id: str = "A0",
    sigma: float = 1.2,
    lam: float = 30.0,
    alpha: float = 0.7,
    beta: float = 30.0,
    sizes: SizeDistribution | None = None,
    s0: float = 100.0,
) -> AssetSpec:
    intensity = make_intensity(lam, alpha, beta)
    dist = sizes if sizes is not None else make_sizes()
    return AssetSpec(
        asset_id=asset_id,
        s0=s0,
        sigma=sigma,
        bid_intensity=intensity,
        ask_intensity=intensity,
        bid_sizes=dist,
        ask_sizes=dist,
    )


def make_market_2asset(
    horizon: float = 12.0,
    gamma: float = 8.0e-7,
    risk_limit: float = 2.4e10,
    rho: float = 0.9,
    lam: float = 30.0,
    sigmas=(1.2, 0.6),
    quote_floor: float = 1.0,
    penalty: RiskPenalty | None = None,
    alpha: float = 0.7,
) -> MarketSpec:
    assets = tuple(
        make_asset(asset_id=f"A{i}", sigma=s, lam=lam, alpha=alpha) for i, s in enumerate(sigmas)
    )
    correlation = np.array([[1.0, rho], [rho, 1.0]])
    pen = penalty if penalty is not None else RiskPenalty(running_form="quadratic", gamma=gamma)
    return MarketSpec(
        assets=assets,
        correlation=correlation,
        horizon=horizon,
        risk_limit=risk_limit,
        penalty=pen,
        quote_floor=quote_floor,
    )


def block_correlation(sizes=(15, 15), within=(0.9, 0.9), across: float = 0.2) -> np.ndarray:
    d = sum(sizes)
    rho = np.full((d, d), across)
    start = 0
    for n, w in zip(sizes, within):
        rho[start : start + n, start : start + n] = w
        start += n
    np.fill_diagonal(rho, 1.0)
    return rho


def make_market_30asset(
    horizon: float = 2.0,
    gamma: float = 8.0e-7,
    risk_limit: float = 5.0e10,
    lam: float = 10.0,
) -> MarketSpec:
    assets = tuple(
        make_asset(asset_id=f"A{i}", sigma=1.2 if i < 15 else 0.6, lam=lam) for i in range(30)
    )
    return MarketSpec(
        assets=assets,
        correlation=block_correlation(),
        horizon=horizon,
        risk_limit=risk_limit,
        penalty=RiskPenalty(running_form="quadratic", gamma=gamma),
    )


def reference_quote_kernel(p, lam, alpha, beta, floor):
    """``(value, slope)`` of the envelope through scipy's Wright omega.

    The sweep's kernel before it took the closed form: the optimal offset
    from the quoting rule's :func:`rfqmm.hamiltonian.quote_offset`, then
    ``Lambda(d*) * (d* - p)`` and ``-Lambda(d*)``.  It shares no omega with
    ``batch_quote_kernel`` and takes the same arguments, so it can stand in
    for it in the solver.
    """
    p = np.asarray(p, dtype=float)
    delta = quote_offset(p, alpha, beta, floor)
    lam_d = fill_intensity(lam, alpha + beta * delta)
    return lam_d * (delta - p), -lam_d


def quote_kernel(intensity: LogisticIntensity, p, floor: float = 1.0):
    """``(value, slope)`` of :func:`reference_quote_kernel` for one curve."""
    return reference_quote_kernel(
        p, intensity.lambda_rfq, intensity.alpha, intensity.beta, floor
    )


def reference_draw_path_events(buckets, horizon, rng, price_dims=0) -> PathEvents:
    """Per-bucket loop drawing the stream ``events.draw_path_events`` draws.

    One Poisson count per bucket; then, bucket by bucket in table order,
    ``rng.uniform(0.0, horizon)`` arrival times and ``rng.uniform(0.0, 1.0)``
    thinning uniforms; then the normals.  The production draw must match it
    byte for byte.
    """
    counts = rng.poisson(buckets.arrival_rate * horizon)
    times, bucket_ix, thin = [], [], []
    for b, n in enumerate(counts):
        times.append(rng.uniform(0.0, horizon, size=n))
        thin.append(rng.uniform(0.0, 1.0, size=n))
        bucket_ix.append(np.full(n, b, dtype=np.int64))
    times = np.concatenate(times) if times else np.empty(0)
    thin = np.concatenate(thin) if thin else np.empty(0)
    bucket_ix = np.concatenate(bucket_ix) if bucket_ix else np.empty(0, dtype=np.int64)
    order = np.argsort(times, kind="stable")
    n_events = times.size
    if price_dims:
        normals = rng.standard_normal((n_events + 1) * price_dims).reshape(
            n_events + 1, price_dims
        )
    else:
        normals = rng.standard_normal(n_events + 1)
    return PathEvents(
        times=times[order], bucket=bucket_ix[order], thin=thin[order], normals=normals
    )


def replay_correction_samples(result, factor_model) -> list[float]:
    """Per-path residual-risk costs replayed from a run's event logs in plain
    Python floats: ``residual.correction_samples`` must match them exactly.

    Each fill is added to the inventory component by component (``x + 0.0``
    off its asset, as a running sum of steps adds it), the quadratic form
    ``q'Rq`` is summed in index order from 0.0 with products taken left to
    right, and a path's running terms are summed in segment order.  No numpy
    product or reduction is used; the slopes are the penalty's own.
    """
    R = factor_model.residual_cov.tolist()
    slope, terminal_slope = result.market.penalty.slopes

    def form(x, m):
        acc = 0.0
        for i in range(len(x)):
            for j in range(len(x)):
                acc += x[i] * m[i][j] * x[j]
        return max(acc, 0.0)

    out = []
    for log in result.event_logs:
        q = result.start_inventory.tolist()
        times = [0.0, *log["t"], result.market.horizon]
        running = 0.0
        for j in range(len(times) - 1):
            if j:
                asset, dq = log["asset"][j - 1], log["dq"][j - 1]
                q = [x + (dq if c == asset else 0.0) for c, x in enumerate(q)]
            leftover = form(q, R)
            running += slope * (leftover * (times[j + 1] - times[j]))
        out.append(-(running + terminal_slope * leftover))
    return out


def rk4_lattice_reference(market, grid, n_steps: int) -> np.ndarray:
    """Classical RK4 integration of the single-asset lattice dynamics.

    Only valid when every size atom is an integer multiple of the grid
    spacing, so shifted reads land exactly on nodes.  Independent of the
    production stepper: plain index shifts, fixed-step RK4.
    """
    assert grid.ndim == 1
    asset = market.assets[0]
    nodes = grid.axes[0]
    n = nodes.shape[0]
    spacing = grid.spacing[0]
    risk = nodes**2 * asset.sigma**2
    drain = np.asarray(market.penalty.running(risk), dtype=float)

    def rhs(theta):
        out = -drain.copy()
        for side, sign in (("bid", 1), ("ask", -1)):
            dist = asset.sizes(side)
            for z, p in zip(dist.sizes, dist.probabilities):
                m = int(round(z / spacing))
                assert abs(z / spacing - m) < 1e-9, "atom off the lattice"
                shifted = np.arange(n) + sign * m
                ok = (shifted >= 0) & (shifted < n)
                values = theta[np.clip(shifted, 0, n - 1)]
                p_res = (theta - values) / z
                h, _ = quote_kernel(asset.intensity(side), p_res, market.quote_floor)
                out = out + np.where(ok, p * z * h, 0.0)
        return out

    theta = -np.asarray(market.penalty.terminal(risk), dtype=float)
    dt = market.horizon / n_steps
    for _ in range(n_steps):
        k1 = rhs(theta)
        k2 = rhs(theta + 0.5 * dt * k1)
        k3 = rhs(theta + 0.5 * dt * k2)
        k4 = rhs(theta + dt * k3)
        theta = theta + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return theta


def make_market_1asset(
    sigma: float = 1.2,
    horizon: float = 1.0,
    gamma: float = 0.0,
    risk_limit: float = 1.0e18,
    lam: float = 30.0,
    sizes: SizeDistribution | None = None,
    terminal_form: str = "zero",
    zeta: float = 0.0,
) -> MarketSpec:
    return MarketSpec(
        assets=(make_asset(asset_id="A0", sigma=sigma, lam=lam, sizes=sizes),),
        correlation=np.array([[1.0]]),
        horizon=horizon,
        risk_limit=risk_limit,
        penalty=RiskPenalty(
            running_form="quadratic", gamma=gamma, terminal_form=terminal_form, zeta=zeta
        ),
    )
