"""Acceptance gate: ten numbered criteria, one test (one pass/fail line) each.

Run with ``pytest -v tests/test_acceptance.py`` to get the per-criterion
lines.  The expensive inputs (reference surfaces on production-size grids,
2000-path simulations) are module-scoped fixtures shared across criteria;
the whole module takes a few minutes.

Reference targets are the published statistics for the two bundled
scenarios: a 2-asset market (one liquid, one less liquid name, correlation
0.9) and a 30-asset market of two 15-name blocks.  Monte-Carlo criteria run
at the frozen reproduction seed the CLI also uses; the stated bands cover
sampling noise at 2000 paths.
"""

import time

import numpy as np
import pytest

from rfqmm.cli import REPRODUCTION_SEED
from rfqmm.factors import build_factor_model, inventory_factor_model, jacobi_eigendecomposition
from rfqmm.model import LogisticIntensity
from rfqmm.quotes import MyopicPolicy, SurfacePolicy, myopic_quote, optimal_quote
from rfqmm.residual import residual_correction
from rfqmm.simulator import simulate, total_variance_gap
from rfqmm.solver import FactorGrid, SolverConfig, solve

from helpers import (
    make_asset,
    make_market_1asset,
    make_market_2asset,
    make_sizes,
    rk4_lattice_reference,
)
from rfqmm.hamiltonian import batch_quote_kernel
from rfqmm.model import MarketSpec, RiskPenalty


@pytest.fixture(scope="module")
def walls():
    return {}


@pytest.fixture(scope="module")
def surface2_full(market_2asset, walls):
    fm = build_factor_model(market_2asset.covariance, 2)
    grid = FactorGrid.from_factor_model(fm, market_2asset.risk_limit, 141)
    t0 = time.perf_counter()
    # the one-day snapshot feeds the stationarity check below at no extra cost
    surface = solve(market_2asset, fm, grid, SolverConfig(snapshot_times=(1.0,)))
    walls["2asset_k2"] = time.perf_counter() - t0
    return surface


@pytest.fixture(scope="module")
def surface2_one(market_2asset):
    fm = build_factor_model(market_2asset.covariance, 1)
    grid = FactorGrid.from_factor_model(fm, market_2asset.risk_limit, 141)
    return solve(market_2asset, fm, grid)


@pytest.fixture(scope="module")
def surface30(market_30asset, walls):
    fm = build_factor_model(market_30asset.covariance, 2)
    grid = FactorGrid.from_factor_model(fm, market_30asset.risk_limit, 71)
    t0 = time.perf_counter()
    surface = solve(market_30asset, fm, grid)
    walls["30asset_k2"] = time.perf_counter() - t0
    return surface


@pytest.fixture(scope="module")
def table_runs(market_2asset, market_30asset, surface2_full, surface2_one, surface30):
    """The four reference 2000-path simulations at the frozen seed."""
    runs = {}
    for label, market, policy in (
        ("optimal_2asset", market_2asset, SurfacePolicy(surface2_full, market_2asset)),
        ("myopic_2asset", market_2asset, MyopicPolicy(market_2asset)),
        ("one_factor_2asset", market_2asset, SurfacePolicy(surface2_one, market_2asset)),
        ("optimal_30asset", market_30asset, SurfacePolicy(surface30, market_30asset)),
    ):
        runs[label] = simulate(market, policy, 2000, seed=REPRODUCTION_SEED)
    return runs


def test_criterion_01_covariance_eigenstructure(market_2asset, market_30asset):
    t0 = time.perf_counter()
    two = jacobi_eigendecomposition(market_2asset.covariance)
    thirty = jacobi_eigendecomposition(market_30asset.covariance)
    wall = time.perf_counter() - t0

    np.testing.assert_allclose(two.eigenvalues, [1.744, 0.056], rtol=0.0, atol=1e-3)
    np.testing.assert_allclose(
        two.eigenvectors[:, 0], [0.906, 0.424], rtol=0.0, atol=1e-3
    )
    np.testing.assert_allclose(
        thirty.eigenvalues[:2], [19.895060, 4.584941], rtol=0.0, atol=1e-4
    )
    assert np.all(thirty.eigenvalues[2:] < 0.15)
    assert thirty.eigenvalues.shape == (30,)
    assert wall < 1.0
    print(
        f"criterion 1: eigenvalues 2-asset {two.eigenvalues.round(6).tolist()}, "
        f"30-asset top-2 {thirty.eigenvalues[:2].round(6).tolist()}, wall {wall:.3f}s"
    )


def test_criterion_02_myopic_quote_reference():
    target = 0.03854
    for lam in (30.0, 10.0):
        delta = myopic_quote(LogisticIntensity(lambda_rfq=lam, alpha=0.7, beta=30.0))
        assert delta == pytest.approx(target, abs=1e-4)
    myopic_quote(LogisticIntensity(lambda_rfq=30.0, alpha=0.7, beta=30.0))  # warm
    t0 = time.perf_counter()
    reps = 100
    for _ in range(reps):
        myopic_quote(LogisticIntensity(lambda_rfq=30.0, alpha=0.7, beta=30.0))
    per_call = (time.perf_counter() - t0) / reps
    assert per_call < 1e-3
    print(f"criterion 2: myopic offset {delta:.6f} (target {target}), {per_call * 1e6:.0f}us/call")


def test_criterion_03_hamiltonian_against_grid_search():
    curve = LogisticIntensity(lambda_rfq=30.0, alpha=0.7, beta=30.0)
    rng = np.random.default_rng(20260814)
    ps = rng.uniform(-2.0, 2.0, size=100)
    # route two: exhaustive grid at 1e-6 over [-floor, floor + 5], wide
    # enough to contain the unconstrained maximiser for every sampled p
    grid = np.arange(-1.0, 6.0 + 1e-6, 1e-6)
    lam_grid = np.asarray(curve(grid))
    args = curve.lambda_rfq, curve.alpha, curve.beta, 1.0
    values, slopes = batch_quote_kernel(ps, *args)
    worst = 0.0
    for p, val in zip(ps, values):
        brute = float(np.max(lam_grid * (grid - p)))
        worst = max(worst, abs(val - brute) / abs(brute))
        assert val == pytest.approx(brute, rel=1e-8)
    h = 1e-6
    fd = (batch_quote_kernel(ps + h, *args)[0] - batch_quote_kernel(ps - h, *args)[0]) / (2 * h)
    np.testing.assert_allclose(slopes, fd, rtol=1e-6)
    print(f"criterion 3: 100 points, worst envelope deviation {worst:.2e} (band 1e-8)")


def test_criterion_04_surface_values_at_origin(surface2_full, surface30, walls):
    got2 = surface2_full.value_at_origin()
    got30 = surface30.value_at_origin()
    assert got2 == pytest.approx(69174.0, rel=0.02)
    assert got30 == pytest.approx(60156.0, rel=0.02)
    assert walls["2asset_k2"] < 600.0
    assert walls["30asset_k2"] < 600.0
    print(
        f"criterion 4: value at origin 2-asset {got2:.1f} (target 69174 +-2%), "
        f"30-asset {got30:.1f} (target 60156 +-2%); solve walls "
        f"{walls['2asset_k2']:.0f}s / {walls['30asset_k2']:.0f}s"
    )


def test_criterion_05_one_dimensional_oracle():
    # spacing equals the base atom, so shifted reads land on nodes and the
    # comparison isolates the time stepping
    sizes = make_sizes(sizes=(10000.0, 20000.0), probs=(0.7, 0.3))
    sigma = 1.2
    risk_limit = (10 * 10000.0) ** 2 * sigma**2
    market = make_market_1asset(
        sigma=sigma, horizon=1.0, gamma=8e-7, risk_limit=risk_limit, lam=30.0, sizes=sizes
    )
    fm = build_factor_model(market.covariance, 1)
    grid = FactorGrid.from_factor_model(fm, risk_limit, 21)
    surface = solve(market, fm, grid, SolverConfig(dt=0.002))
    reference = rk4_lattice_reference(market, grid, n_steps=4000)
    err = np.max(np.abs(surface.values[0].ravel() - reference)) / np.max(np.abs(reference))
    assert err < 2e-3
    print(f"criterion 5: max deviation from dense RK4 {err:.2e} (band 2e-3)")


def test_criterion_06_representation_invariance():
    # same control problem solved in eigen coordinates and directly in
    # inventory coordinates must agree wherever both grids resolve it;
    # nodes within 10% of the risk limit are excluded because there each
    # scheme's own domain-boundary closure dominates
    market = make_market_2asset(horizon=2.0)
    cov = market.covariance
    limit = market.risk_limit
    fm = build_factor_model(cov, 2)
    inv = inventory_factor_model(cov)
    surf_f = solve(market, fm, FactorGrid.from_factor_model(fm, limit, 81))
    surf_q = solve(market, inv, FactorGrid.from_factor_model(inv, limit, (81, 161)))

    nodes = surf_q.grid.node_coordinates()
    vals_q = surf_q.slice_values(0.0).ravel()
    vals_f = surf_f.value_many(0.0, nodes @ fm.loadings)
    risk = np.einsum("nd,de,ne->n", nodes, cov, nodes)
    mask = np.isfinite(vals_f) & (risk <= 0.9 * limit)
    assert mask.sum() > 3000
    scale = np.max(np.abs(vals_q[mask]))
    err = np.max(np.abs(vals_f[mask] - vals_q[mask])) / scale
    assert err < 5e-3
    print(f"criterion 6: {mask.sum()} mapped nodes, max deviation {err:.2e} (band 5e-3)")


REFERENCE_TABLES = {
    "optimal_2asset": (72081.0, 80432.0, 5959.0, 69293.0),
    "myopic_2asset": (73410.0, 265906.0, 6211.0, 43953.0),
    "one_factor_2asset": (72523.0, 96746.0, 6033.0, 68567.0),
    "optimal_30asset": (61471.0, 64911.0, 5338.0, 59765.0),
}


def test_criterion_07_simulation_tables(table_runs):
    lines = []
    for label, target in REFERENCE_TABLES.items():
        s = table_runs[label].summary()
        got = (s.mean_pnl, s.stdev_pnl, s.stdev_from_rfq, s.objective)
        bands = (0.05, 0.10, 0.10, 0.05)
        for name, g, ref, band in zip(("mean", "stdev", "rfq-stdev", "objective"), got, target, bands):
            assert g == pytest.approx(ref, rel=band), (
                f"{label} {name}: got {g:.0f}, target {ref:.0f}, band {band:.0%}"
            )
        lines.append(f"  {label}: " + " ".join(f"{g:.0f}/{r:.0f}" for g, r in zip(got, target)))

    objective = {k: table_runs[k].summary().objective for k in table_runs}
    assert objective["optimal_2asset"] > objective["one_factor_2asset"] > objective["myopic_2asset"]
    ratio = (
        table_runs["myopic_2asset"].summary().stdev_pnl
        / table_runs["optimal_2asset"].summary().stdev_pnl
    )
    assert ratio > 2.5
    print("criterion 7: got/target per run\n" + "\n".join(lines) + f"\n  stdev ratio {ratio:.2f} (> 2.5)")


def test_criterion_08_variance_decomposition(table_runs):
    gap, se = total_variance_gap(table_runs["optimal_2asset"])
    assert abs(gap) <= 3.0 * se
    print(f"criterion 8: total-variance gap {gap:.3e} within {abs(gap) / se:.2f} SE (band 3)")


def test_criterion_09_residual_correction(surface30, market_30asset, surface2_full, market_2asset):
    rc = residual_correction(surface30, market_30asset, n_paths=500, seed=REPRODUCTION_SEED)
    assert abs(rc.value - (-643.0)) <= 3.0 * rc.stderr
    corrected = surface30.value_at_origin() + rc.value
    assert corrected == pytest.approx(59513.0, rel=0.02)

    # a full-rank model has no residual; the estimator must shortcut to an
    # exact zero rather than average simulation noise
    exact = residual_correction(surface2_full, market_2asset, n_paths=64, seed=0)
    assert exact.value == 0.0
    assert exact.stderr == 0.0
    print(
        f"criterion 9: correction {rc.value:.1f} +- {rc.stderr:.1f} (target -643), "
        f"corrected value {corrected:.1f} (target 59513 +-2%), zero-residual exact"
    )


def test_full_horizon_quote_profile_is_stationary(surface2_full):
    # far from the terminal date the quoting state is steady: the value
    # accrues at a constant rate while its shape around the origin freezes,
    # and only the shape enters the quotes
    day0 = surface2_full.slice_values(0.0)
    day1 = surface2_full.slice_values(1.0)
    assert float(surface2_full.times[0]) == 0.0
    assert abs(float(surface2_full.times[-1]) - 1.0) < surface2_full.dt
    center = surface2_full.grid.nodes_per_axis[0] // 2
    profile0 = day0 - day0[center, center]
    profile1 = day1 - day1[center, center]
    drift = float(np.max(np.abs(profile0 - profile1)))
    budget = 1e-3 * abs(day0[center, center])
    assert drift < budget
    print(f"stationarity: centered-profile drift {drift:.1f} vs budget {budget:.1f}")


def _random_market(rng):
    d = int(rng.integers(1, 6))
    a = rng.normal(size=(d, d))
    cov_raw = a @ a.T + d * np.eye(d)
    scale = np.sqrt(np.diag(cov_raw))
    correlation = cov_raw / np.outer(scale, scale)
    sizes = make_sizes(sizes=(5000.0, 15000.0), probs=(0.8, 0.2))
    assets = tuple(
        make_asset(
            asset_id=f"A{i}",
            sigma=float(rng.uniform(0.4, 1.5)),
            lam=float(rng.uniform(8.0, 30.0)),
            alpha=float(rng.uniform(0.3, 1.0)),
            beta=float(rng.uniform(20.0, 40.0)),
            sizes=sizes,
        )
        for i in range(d)
    )
    return MarketSpec(
        assets=assets,
        correlation=correlation,
        horizon=float(rng.uniform(0.25, 0.5)),
        risk_limit=float(rng.uniform(0.5, 2.0)) * 1.0e10,
        penalty=RiskPenalty(running_form="quadratic", gamma=8.0e-7),
    )


def test_criterion_10_property_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(914)
    for rep in range(3):
        market = _random_market(rng)
        d = market.n_assets
        k = min(2, d)
        fm = build_factor_model(market.covariance, k)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
        surface = solve(market, fm, grid)
        policy = SurfacePolicy(surface, market)

        # Hamiltonian: strictly decreasing, slope bounded by the intensity
        # at the floor
        curve = market.assets[0].intensity("bid")
        lipschitz_bound = float(curve(-market.quote_floor))
        ps = np.sort(rng.uniform(-3.0, 3.0, size=200))
        hs, _ = batch_quote_kernel(
            ps, curve.lambda_rfq, curve.alpha, curve.beta, market.quote_floor
        )
        assert np.all(np.diff(hs) < 0.0)
        assert np.all(
            np.abs(np.diff(hs)) <= lipschitz_bound * np.diff(ps) * (1.0 + 1e-9)
        )

        # bid/ask antisymmetry and bid monotonicity along each axis
        half_box = np.array(
            [np.abs(fm.shift_directions[:, j]).sum() for j in range(k)]
        )
        q_scale = 0.4 * np.min(surface.grid.half_widths / np.maximum(half_box, 1e-12))
        for i in range(d):
            span = np.linspace(-q_scale, q_scale, 9)
            deltas = []
            for c in span:
                q = np.zeros(d)
                q[i] = c
                bid = optimal_quote(surface, market, q, i, "bid", 5000.0)
                ask = optimal_quote(surface, market, -q, i, "ask", 5000.0)
                assert not bid.refused and not ask.refused
                assert bid.delta == pytest.approx(ask.delta, rel=1e-9, abs=1e-12)
                deltas.append(bid.delta)
            # The surface is multilinear per cell, so a scan along an
            # oblique inventory line picks up a whisker of cross-term
            # curvature near cell boundaries.  Measured dips stay below
            # 1.1e-3 of the line's total upward skew; a real monotonicity
            # break would rival the rises themselves.
            diffs = np.diff(deltas)
            net = deltas[-1] - deltas[0]
            assert net > 0.0
            assert np.all(diffs >= -0.02 * net)

        # seed determinism, bitwise
        a = simulate(market, policy, 40, seed=5)
        b = simulate(market, policy, 40, seed=5)
        assert [p.pnl for p in a.paths] == [p.pnl for p in b.paths]
        assert [p.objective for p in a.paths] == [p.objective for p in b.paths]

        # pnl decomposition on the marked-price engine, where cash + mark
        # accounting must reconstruct spread plus market moves
        r = simulate(market, policy, 60, seed=rep, engine="price_paths")
        for p in r.paths:
            assert p.pnl == pytest.approx(p.spread_pnl + p.market_pnl, rel=1e-8, abs=1e-6)
            assert p.objective == pytest.approx(
                p.pnl - p.penalty_integral - p.terminal_penalty, rel=1e-12, abs=1e-9
            )
    wall = time.perf_counter() - t0
    assert wall < 300.0
    print(f"criterion 10: 3 randomized markets (d<=5, k<=2) swept in {wall:.1f}s (budget 300s)")
