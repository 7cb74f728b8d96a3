"""Backward sweep checks: closed forms, an independent ODE oracle, scheme
safety rails and interpolation access."""

import dataclasses
import json
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from helpers import (
    make_market_1asset,
    make_market_2asset,
    make_market_30asset,
    make_sizes,
    reference_quote_kernel,
    rk4_lattice_reference,
)
from rfqmm.cli import _bundled_config
from rfqmm.config_io import load_config
from rfqmm import solver
from rfqmm.errors import OutOfDomainError, SolverError, StabilityError, ValidationError
from rfqmm.factors import build_factor_model
from rfqmm.hamiltonian import batch_quote_kernel
from rfqmm.model import RiskPenalty
from rfqmm.solver import (
    FactorGrid,
    SolverConfig,
    ValueSurface,
    _axis_reads,
    _envelope_rows,
    _read_shifted,
    _shift_rows,
    solve,
    solver_fingerprint,
)

H_AT_ZERO = 0.15625648530094234  # envelope value at zero reservation, lam 30


def small_surface(horizon=1.5, gamma=8e-7, nodes=41, n_factors=2, dt=None, **market_kw):
    market = make_market_2asset(horizon=horizon, gamma=gamma, **market_kw)
    fm = build_factor_model(market.covariance, n_factors)
    grid = FactorGrid.from_factor_model(fm, market.risk_limit, nodes)
    cfg = SolverConfig(dt=dt)
    return market, fm, grid, solve(market, fm, grid, cfg)


class TestClosedForms:
    def test_zero_penalty_gives_flat_accrual_at_center(self):
        # With no penalty the exact solution is theta(t, f) =
        # (T - t) * sum over sides and atoms of p * z * H(0).  The drop rule
        # starves boundary nodes, and the deficit creeps inward by at most
        # the largest shift stencil per step, so with 4 steps and a 41-node
        # grid the center is untouched and must match to round-off.
        market = make_market_2asset(horizon=0.03, gamma=0.0)
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 41)
        surface = solve(market, fm, grid)
        assert surface.n_steps == 4
        mean_size = 0.53 * 6250 + 0.35 * 12500 + 0.10 * 18750 + 0.02 * 25000
        expected = 0.03 * 4 * H_AT_ZERO * mean_size
        assert surface.value_at_origin() == pytest.approx(expected, rel=1e-12)

    def test_terminal_slice_equals_negative_terminal_penalty(self):
        market = make_market_2asset(
            horizon=0.05,
            penalty=RiskPenalty(
                running_form="quadratic", gamma=8e-7, terminal_form="quadratic", zeta=3e-6
            ),
        )
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
        surface = solve(market, fm, grid, SolverConfig(store_policy="all_slices"))
        assert surface.times[-1] == market.horizon
        terminal = surface.values[-1].ravel()
        expected = -1.5e-6 * grid.risk_levels()
        np.testing.assert_allclose(terminal, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())


class TestAgainstRK4:
    def test_one_dimensional_lattice_oracle(self):
        # grid spacing equals the base atom so interpolation is exact and the
        # only discrepancy is time stepping; 0.2% is the acceptance band
        sizes = make_sizes(sizes=(10000.0, 20000.0), probs=(0.7, 0.3))
        sigma = 1.2
        risk_limit = (10 * 10000.0) ** 2 * sigma**2
        market = make_market_1asset(
            sigma=sigma, horizon=1.0, gamma=8e-7, risk_limit=risk_limit, lam=30.0, sizes=sizes
        )
        fm = build_factor_model(market.covariance, 1)
        grid = FactorGrid.from_factor_model(fm, risk_limit, 21)
        np.testing.assert_allclose(grid.spacing, [10000.0], rtol=1e-12)
        surface = solve(market, fm, grid, SolverConfig(dt=0.002))
        reference = rk4_lattice_reference(market, grid, n_steps=4000)
        err = np.max(np.abs(surface.values[0].ravel() - reference)) / np.max(np.abs(reference))
        assert err < 2e-3


class TestAgainstScipyKernel:
    @pytest.mark.parametrize("target, nodes", [("paper-2asset", 21), ("paper-30asset", 9)])
    def test_surfaces_match_the_scipy_route(self, monkeypatch, target, nodes):
        # the sweep's numpy omega against the old kernel through scipy's
        # omega and the quote offset: the same scheme, so the surfaces
        # differ by rounding only
        market, _ = load_config(_bundled_config(target))
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, nodes)
        surface = solve(market, fm, grid)
        monkeypatch.setattr(solver, "batch_quote_kernel", reference_quote_kernel)
        reference = solve(market, fm, grid)
        np.testing.assert_allclose(surface.values, reference.values, rtol=1e-13, atol=0.0)


class TestSafetyRails:
    def test_stability_refusal_names_required_step(self):
        market = make_market_2asset(horizon=1.0)
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
        with pytest.raises(StabilityError, match="required dt"):
            solve(market, fm, grid, SolverConfig(dt=0.5))

    def test_non_finite_abort_names_slice(self):
        market = make_market_2asset(horizon=1.0, gamma=1e308)
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
        with np.errstate(over="ignore"), pytest.raises(SolverError, match="step 1 of"):
            solve(market, fm, grid)

    def test_factor_rank_must_match_grid(self):
        market = make_market_2asset(horizon=1.0)
        fm = build_factor_model(market.covariance, 1)
        grid_2d = FactorGrid(
            factor_cov=np.diag([1.0, 1.0]),
            half_widths=np.array([1.0, 1.0]),
            nodes_per_axis=(5, 5),
            risk_limit=1.0,
        )
        with pytest.raises(ValidationError, match="axes"):
            solve(market, fm, grid_2d)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SolverConfig(store_policy="everything")
        with pytest.raises(ValidationError):
            SolverConfig(dt=-0.1)
        for dt in (math.nan, math.inf, 0.0):
            with pytest.raises(ValidationError, match=f"dt must be positive and finite, got {dt}"):
                SolverConfig(dt=dt)
        for s in (math.nan, math.inf, -1.0):
            with pytest.raises(ValidationError, match=f"snapshot times .* got {s}"):
                SolverConfig(snapshot_times=(0.01, s))

    def test_snapshot_beyond_the_horizon_is_refused(self):
        market = make_market_2asset(horizon=0.05)
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 5)
        with pytest.raises(ValidationError, match="snapshot time 0.5 lies beyond the horizon"):
            solve(market, fm, grid, SolverConfig(snapshot_times=(0.5,)))
        # the horizon itself is a slice
        surface = solve(market, fm, grid, SolverConfig(snapshot_times=(0.05,)))
        assert surface.times.tolist() == [0.0, 0.05]


class TestGrid:
    def test_axis_construction(self):
        grid = FactorGrid(
            factor_cov=np.diag([4.0]),
            half_widths=np.array([10.0]),
            nodes_per_axis=(5,),
            risk_limit=400.0,
        )
        np.testing.assert_allclose(grid.axes[0], [-10.0, -5.0, 0.0, 5.0, 10.0])
        np.testing.assert_allclose(grid.spacing, [5.0])
        assert grid.n_nodes == 5

    @pytest.mark.parametrize("nodes", [21, 41, 71])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("target", ["paper-2asset", "paper-30asset"])
    def test_axes_are_exact_and_symmetric(self, target, k, nodes):
        market, _ = load_config(_bundled_config(target))
        fm = build_factor_model(market.covariance, k)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, nodes)
        for axis, a in zip(grid.axes, grid.half_widths):
            assert axis[nodes // 2] == 0.0
            assert axis[0] == -a and axis[-1] == a
            np.testing.assert_array_equal(axis, -axis[::-1])

    def test_half_widths_from_risk_limit(self):
        market = make_market_2asset()
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 41)
        expected = np.sqrt(market.risk_limit / np.diag(fm.factor_cov))
        np.testing.assert_allclose(grid.half_widths, expected, rtol=1e-12)

    def test_admissibility_mask(self):
        grid = FactorGrid(
            factor_cov=np.diag([1.0]),
            half_widths=np.array([2.0]),
            nodes_per_axis=(5,),
            risk_limit=1.0,
        )
        # nodes at -2,-1,0,1,2 with risk f^2; admissible iff |f| <= 1
        np.testing.assert_array_equal(
            grid.admissible_mask(), [False, True, True, True, False]
        )

    def test_validation(self):
        with pytest.raises(ValidationError, match="odd"):
            FactorGrid(np.diag([1.0]), np.array([1.0]), (4,), 1.0)
        with pytest.raises(ValidationError, match="1 to 3"):
            FactorGrid(np.eye(4), np.ones(4), (3, 3, 3, 3), 1.0)
        with pytest.raises(ValidationError, match="positive"):
            FactorGrid(np.diag([1.0]), np.array([-1.0]), (3,), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_non_finite_inputs(self, bad):
        # NaN passes a plain `x <= 0` test, so each field needs its own check
        with pytest.raises(ValidationError, match="half widths must be positive and finite"):
            FactorGrid(np.diag([1.0]), np.array([bad]), (3,), 1.0)
        with pytest.raises(ValidationError, match="risk limit must be positive and finite"):
            FactorGrid(np.diag([1.0]), np.array([1.0]), (3,), bad)
        with pytest.raises(ValidationError, match="factor covariance must be finite"):
            FactorGrid(np.diag([bad]), np.array([1.0]), (3,), 1.0)


@pytest.fixture(scope="module")
def surface():
    return small_surface(horizon=0.5, nodes=21)[3]


class TestEvaluate:
    def test_nodes_are_exact(self, surface):
        grid = surface.grid
        nodes = grid.node_coordinates()
        flat = surface.values[0].ravel()
        got = surface.value_many(0.0, nodes)
        np.testing.assert_allclose(got, flat, rtol=0.0, atol=1e-12 * np.abs(flat).max())

    def test_cell_midpoint_in_one_dimension(self):
        surface = small_surface(horizon=0.5, nodes=21, n_factors=1)[3]
        axis = surface.grid.axes[0]
        flat = surface.values[0]
        mid = 0.5 * (axis[3] + axis[4])
        expected = 0.5 * (flat[3] + flat[4])
        assert surface.value(0.0, [mid]) == pytest.approx(expected, rel=1e-12)

    def test_interpolation_respects_cell_bounds(self, surface):
        grid = surface.grid
        values = surface.values[0]
        rng = np.random.default_rng(11)
        pts = rng.uniform(-0.9, 0.9, size=(50, 2)) * grid.half_widths
        got = surface.value_many(0.0, pts)
        spacing = grid.spacing
        for point, val in zip(pts, got):
            u = (point + grid.half_widths) / spacing
            lo = np.minimum(np.floor(u).astype(int), np.array(grid.shape) - 2)
            cell = values[lo[0] : lo[0] + 2, lo[1] : lo[1] + 2]
            assert cell.min() - 1e-9 <= val <= cell.max() + 1e-9

    def test_out_of_box_modes(self, surface):
        far = np.array([[surface.grid.half_widths[0] * 1.5, 0.0]])
        with pytest.raises(OutOfDomainError, match="outside the grid box"):
            surface.value_many(0.0, far)
        vals = surface.value_many(0.0, far, out_of_box="nan")
        assert np.isnan(vals[0])
        # an unknown mode is refused with every point inside the box as well
        for point in (far, far / 3.0):
            with pytest.raises(ValueError, match="unknown out_of_box mode 'bogus'"):
                surface.value_many(0.0, point, out_of_box="bogus")

    def test_nearest_slice_selection(self):
        market = make_market_2asset(horizon=1.0)
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
        surface = solve(market, fm, grid, SolverConfig(snapshot_times=(0.5,)))
        assert len(surface.times) == 2
        assert surface.times[1] == pytest.approx(0.5, abs=surface.dt)
        assert surface.slice_index(0.49) == 1
        assert surface.slice_index(0.1) == 0
        # default storage keeps only the final slice plus snapshots
        assert 0.0 == surface.times[0]

    def test_all_slices_store_everything(self):
        market = make_market_2asset(horizon=0.05)
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
        surface = solve(market, fm, grid, SolverConfig(store_policy="all_slices"))
        assert len(surface.times) == surface.n_steps + 1
        assert surface.times[0] == 0.0
        assert surface.times[-1] == market.horizon

    def test_all_slices_are_stored_once(self):
        # each kept slice is written once into the stored array; stacking a
        # list of slices at the end would peak at about twice the stored bytes
        market = make_market_2asset(horizon=4.0)
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 61)
        tracemalloc.start()
        try:
            surface = solve(market, fm, grid, SolverConfig(store_policy="all_slices"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * surface.values.nbytes

    def test_kept_slices(self):
        market = make_market_2asset(horizon=0.05)
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 11)
        every = solve(market, fm, grid, SolverConfig(store_policy="all_slices"))
        n, dt = every.n_steps, every.dt
        assert n >= 4
        # 0, the horizon, and two times that round to the same step
        snaps = (0.0, market.horizon, market.horizon - 2 * dt, market.horizon - 2.2 * dt)
        for policy in ("final_slice_only", "all_slices"):
            surface = solve(market, fm, grid, SolverConfig(store_policy=policy, snapshot_times=snaps))
            times = surface.times
            assert (np.diff(times) > 0.0).all()
            assert times[0] == 0.0 and times[-1] == market.horizon
            if policy == "all_slices":
                assert len(times) == n + 1
            else:
                assert len(times) == 3
            for t, values in zip(times, surface.values):
                m = int(np.flatnonzero(every.times == t)[0])
                np.testing.assert_array_equal(bits(values), bits(every.values[m]))


def value_many_by_axis(surface, t, pts):
    """Reference for ``value_many``: one clip, floor and ravel per axis, the
    slice by ``argmin``; the library's single vectorised pass must give the
    same bits."""
    grid = surface.grid
    m, k = pts.shape
    lo, frac = [], []
    for j, (a, h, n) in enumerate(zip(grid.half_widths, grid.spacing, grid.shape)):
        u = np.clip((pts[:, j] + a) / h, 0.0, n - 1.0)
        lo.append(np.minimum(np.floor(u), n - 2).astype(np.int64))
        frac.append(u - lo[-1])
    slices = np.argmin(np.abs(surface.times - np.expand_dims(t, -1)), axis=-1)
    base = np.ravel_multi_index((slices, *lo), surface.values.shape)
    corners = np.ravel_multi_index(np.indices((2,) * k).reshape(k, -1), grid.shape)
    cell = surface.values.take(base[:, None] + corners).reshape((m,) + (2,) * k)
    for j in reversed(range(k)):
        w = frac[j].reshape((m,) + (1,) * j)
        cell = cell[..., 0] * (1.0 - w) + cell[..., 1] * w
    return cell


class TestAgainstScipy:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_value_many_matches_regular_grid_interpolator(self, k):
        # axes of unequal length so a stride mix-up shows; three stored
        # slices so per-row times pick different ones
        market = make_market_30asset()
        fm = build_factor_model(market.covariance, k)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, (11, 9, 7)[:k])
        rng = np.random.default_rng(17)
        times = np.array([0.0, 0.5, 1.0])
        values = rng.uniform(1.0, 2.0, size=(len(times),) + grid.shape)
        surface = ValueSurface(
            grid=grid, factor_model=fm, times=times, values=values,
            horizon=1.0, dt=0.5, n_steps=2,
        )
        pts = rng.uniform(-1.0, 1.0, size=(300, k)) * grid.half_widths
        reference = [RegularGridInterpolator(grid.axes, v, method="linear") for v in values]

        at_once = surface.value_many(0.3, pts)
        np.testing.assert_allclose(at_once, reference[1](pts), rtol=1e-12, atol=0.0)

        row_times = rng.uniform(0.0, 1.0, size=len(pts))
        per_row = surface.value_many(row_times, pts)
        slices = surface.slice_index(row_times)
        assert set(slices.tolist()) == {0, 1, 2}
        expected = [reference[s](p[None])[0] for s, p in zip(slices, pts)]
        np.testing.assert_allclose(per_row, expected, rtol=1e-12, atol=0.0)

        for t, p, batched in zip(row_times, pts, per_row):
            assert surface.value_many(t, p[None])[0] == batched

        # bit for bit the per-axis loop, in and just off the box
        np.testing.assert_array_equal(at_once, value_many_by_axis(surface, 0.3, pts))
        np.testing.assert_array_equal(per_row, value_many_by_axis(surface, row_times, pts))
        edge = pts * 1.2
        got = surface.value_many(row_times, edge, out_of_box="nan")
        inside = grid.contains(edge)
        assert 0 < inside.sum() < len(edge)
        np.testing.assert_array_equal(np.isnan(got), ~inside)
        np.testing.assert_array_equal(got[inside], value_many_by_axis(surface, row_times, edge)[inside])


class TestShiftedReads:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("make_market", [make_market_2asset, make_market_30asset])
    def test_reads_match_surface_interpolation(self, make_market, k):
        # the sweep's separable reads against value_many at node + shift,
        # on every term the sweep keeps
        market = make_market()
        fm = build_factor_model(market.covariance, k)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
        rng = np.random.default_rng(5)
        theta = rng.uniform(1.0, 2.0, size=grid.shape)
        surface = ValueSurface(
            grid=grid, factor_model=fm, times=np.array([0.0]), values=theta[None],
            horizon=market.horizon, dt=market.horizon, n_steps=1,
        )
        lo, frac, dropped, *_ = _shift_rows(market, fm, grid)
        reads = _read_shifted(theta, _axis_reads(lo, frac)).reshape(dropped.shape)
        nodes = grid.node_coordinates()
        row = 0
        for i, asset in enumerate(market.assets):
            for side, sign in (("bid", 1.0), ("ask", -1.0)):
                for z in asset.sizes(side).sizes:
                    kept = ~dropped[row]
                    shifted = nodes[kept] + sign * z * fm.shift_directions[i]
                    expected = surface.value_many(0.0, shifted)
                    np.testing.assert_allclose(reads[row, kept], expected, rtol=1e-13, atol=0.0)
                    row += 1
        assert row == dropped.shape[0]
        assert (~dropped).any(axis=1).all()

    @staticmethod
    def assert_drops_follow_contains(market, fm, grid):
        dropped = _shift_rows(market, fm, grid)[2]
        nodes = grid.node_coordinates()
        row = 0
        for i, asset in enumerate(market.assets):
            for side, sign in (("bid", 1.0), ("ask", -1.0)):
                for z in asset.sizes(side).sizes:
                    shifted = nodes + sign * z * fm.shift_directions[i]
                    np.testing.assert_array_equal(dropped[row], ~grid.contains(shifted))
                    row += 1
        assert row == dropped.shape[0]

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("target", ["paper-2asset", "paper-30asset"])
    def test_dropped_terms_are_the_grids_box_test(self, target, k):
        market, _ = load_config(_bundled_config(target))
        fm = build_factor_model(market.covariance, k)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
        self.assert_drops_follow_contains(market, fm, grid)

    def test_a_trade_in_the_box_slack_is_kept(self):
        # the one size atom moves node 19 of 21 half a BOX_TOL past the edge:
        # inside the slack, so the bid there and the ask at node 1 are kept
        risk_limit = 1e5**2 * 1.44
        fm = build_factor_model(make_market_1asset(risk_limit=risk_limit).covariance, 1)
        grid = FactorGrid.from_factor_model(fm, risk_limit, 21)
        half, node = grid.half_widths[0], grid.axes[0][19]
        z = half * (1.0 + solver.BOX_TOL / 2) - node
        market = make_market_1asset(risk_limit=risk_limit, sizes=make_sizes((z,), (1.0,)))
        self.assert_drops_follow_contains(market, fm, grid)
        dropped = _shift_rows(market, fm, grid)[2]
        assert not dropped[0, 19] and dropped[0, 20]
        assert not dropped[1, 1] and dropped[1, 0]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestBlockedStep:
    @pytest.mark.parametrize(
        "target, k",
        [("paper-2asset", 1), ("paper-2asset", 2), ("paper-30asset", 1),
         ("paper-30asset", 2), ("paper-30asset", 3)],
    )
    def test_blocks_match_the_unblocked_step(self, target, k):
        market, _ = load_config(_bundled_config(target))
        fm = build_factor_model(market.covariance, k)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, (11, 9, 7) if k == 3 else 21)
        theta = np.random.default_rng(29).uniform(-5e3, 5e3, size=grid.shape)
        lo, frac, dropped, lam, alpha, beta, z, _ = _shift_rows(market, fm, grid)
        inv_z = 1.0 / z
        floor = market.quote_floor

        # the whole-batch step
        shifted = _read_shifted(theta, _axis_reads(lo, frac)).reshape(dropped.shape)
        p = (theta.reshape(1, -1) - shifted) * inv_z
        p[dropped] = 0.0
        expected = batch_quote_kernel(p, lam, alpha, beta, floor)[0]
        expected[dropped] = 0.0

        rows = dropped.shape[0]
        for size in (1, 7, rows):
            out = np.full(dropped.shape, np.nan)
            for r in range(0, rows, size):
                block = slice(r, r + size)
                _envelope_rows(
                    theta, floor, block, _axis_reads(lo, frac, block), dropped,
                    lam, alpha, beta, inv_z, out,
                )
            np.testing.assert_array_equal(bits(out), bits(expected))

    def test_update_is_the_row_order_sum(self):
        # one step of a 30-asset sweep against its update written out as a
        # sum over the rows in order: the sweep calls no BLAS, whose
        # summation order would depend on the build and its thread count
        market, _ = load_config(_bundled_config("paper-30asset"))
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
        surface = solve(dataclasses.replace(market, horizon=1e-4), fm, grid)
        assert surface.n_steps == 1

        lo, frac, dropped, lam, alpha, beta, z, zp = _shift_rows(market, fm, grid)
        risk = grid.risk_levels()
        theta = -market.penalty.terminal(risk)
        envelope = np.empty(dropped.shape)
        _envelope_rows(
            theta.reshape(grid.shape), market.quote_floor, slice(None), _axis_reads(lo, frac),
            dropped, lam, alpha, beta, 1.0 / z, envelope,
        )
        total = zp[0] * envelope[0]
        for r in range(1, len(zp)):
            total += zp[r] * envelope[r]
        expected = theta + surface.dt * (-market.penalty.running(risk) + total)
        np.testing.assert_array_equal(bits(surface.values[0].ravel()), bits(expected))

    def test_values_do_not_depend_on_workers_or_blocks(self, monkeypatch):
        market = make_market_2asset(horizon=0.1)
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
        reference = solve(market, fm, grid)  # 16 rows on 441 nodes: one block

        caller = threading.current_thread()
        runners, sizes = [], set()

        def spy(p, *args):
            runners.append(threading.current_thread())
            sizes.add(p.size)
            return batch_quote_kernel(p, *args)

        monkeypatch.setattr(solver, "batch_quote_kernel", spy)
        # 2 rows a block, 8 blocks; 3 rows a block, 6 blocks, the last of 1 row;
        # up to 3 workers on however many cores, switching threads often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for elems, blocks in ((1000, [2] * 8), (1400, [3] * 5 + [1])):
                monkeypatch.setattr(solver, "_BLOCK_ELEMS", elems)
                for workers in (1, 2, 3):
                    monkeypatch.setattr(solver, "_worker_count", lambda: workers)
                    runners.clear()
                    sizes.clear()
                    before = threading.active_count()
                    surface = solve(market, fm, grid)
                    assert threading.active_count() == before
                    np.testing.assert_array_equal(bits(surface.values), bits(reference.values))
                    assert len(runners) == len(blocks) * surface.n_steps
                    assert sizes == {rows * grid.n_nodes for rows in blocks}
                    on_caller = sum(t is caller for t in runners)
                    assert on_caller == (len(runners) if workers == 1 else 0)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_caller_error_state_holds_in_workers(self, monkeypatch, workers):
        # an infinite terminal penalty makes the first step's differences
        # inf - inf inside the blocks; the caller silences that with
        # np.errstate, which must reach the worker threads as well
        penalty = RiskPenalty(
            running_form="quadratic", gamma=8e-7, terminal_form="quadratic", zeta=1e308
        )
        market = make_market_2asset(horizon=0.1, penalty=penalty)
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
        monkeypatch.setattr(solver, "_BLOCK_ELEMS", 1000)
        monkeypatch.setattr(solver, "_worker_count", lambda: workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"), pytest.raises(SolverError, match="step 1 of"):
                solve(market, fm, grid)


class TestStructuralProperties:
    def test_value_peaks_at_zero_risk(self):
        _, _, grid, surface = small_surface(horizon=1.5)
        flat = surface.values[0].ravel()
        admissible = grid.admissible_mask()
        origin = surface.value_at_origin()
        assert origin >= flat[admissible].max() - 1e-9 * abs(origin)

    def test_one_factor_value_dominates_two_factor(self):
        market = make_market_2asset(horizon=1.5)
        fm1 = build_factor_model(market.covariance, 1)
        fm2 = build_factor_model(market.covariance, 2)
        grid1 = FactorGrid.from_factor_model(fm1, market.risk_limit, 41)
        grid2 = FactorGrid.from_factor_model(fm2, market.risk_limit, 41)
        s1 = solve(market, fm1, grid1)
        s2 = solve(market, fm2, grid2)
        rng = np.random.default_rng(3)
        qs = rng.uniform(-1.0, 1.0, size=(40, 2)) * 60000.0
        risk = np.einsum("nj,jk,nk->n", qs, market.covariance, qs)
        qs = qs[risk <= 0.5 * market.risk_limit]
        v1 = s1.value_many(0.0, fm1.factor_coordinates(qs))
        v2 = s2.value_many(0.0, fm2.factor_coordinates(qs))
        assert np.all(v1 >= v2 - 1e-6 * np.abs(v2))

    def test_centered_profile_settles_far_from_horizon(self):
        # the origin-centered profile drives the quotes; far from the horizon
        # an extra day of runway shifts the level but not the profile.  Box
        # corners relax slowest (roughly e-fold per day of runway), so the
        # small-grid check asserts decay globally and smallness at the core.
        market = make_market_2asset(horizon=8.0)
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 41)
        surface = solve(market, fm, grid, SolverConfig(snapshot_times=(1.0, 4.0)))
        origin = abs(surface.value_at_origin())

        def centered(k):
            s = surface.values[k]
            return s - s[20, 20]

        drift_long_runway = np.abs(centered(0) - centered(1)).max()
        drift_short_runway = np.abs(centered(0) - centered(2)).max()
        assert drift_long_runway < 0.25 * drift_short_runway
        core = (slice(15, 26), slice(15, 26))
        core_drift = np.abs(centered(0)[core] - centered(1)[core]).max()
        assert core_drift < 1e-3 * origin


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        _, fm, grid, surface = small_surface(horizon=0.5, nodes=21)
        surface.fingerprint = {**surface.fingerprint, "config_hash": "abc123"}
        path = tmp_path / "surface.npz"
        surface.save(path)
        loaded = ValueSurface.load(path)
        np.testing.assert_array_equal(loaded.values, surface.values)
        np.testing.assert_array_equal(loaded.times, surface.times)
        np.testing.assert_array_equal(loaded.grid.half_widths, surface.grid.half_widths)
        np.testing.assert_array_equal(loaded.factor_model.loadings, fm.loadings)
        assert loaded.fingerprint == surface.fingerprint
        assert loaded.fingerprint == {**solver_fingerprint(SolverConfig()), "config_hash": "abc123"}
        assert loaded.n_steps == surface.n_steps
        assert loaded.horizon == surface.horizon

    def test_loads_archives_that_carry_intensity_budget(self, tmp_path):
        # earlier builds of format 2 also stored the floor-intensity sum
        _, _, _, surface = small_surface(horizon=0.5, nodes=21)
        surface.save(tmp_path / "surface.npz")
        with np.load(tmp_path / "surface.npz") as data:
            arrays = dict(data)
        np.savez_compressed(tmp_path / "older.npz", intensity_budget=1.0, **arrays)
        loaded = ValueSurface.load(tmp_path / "older.npz")
        np.testing.assert_array_equal(loaded.values, surface.values)

    def test_interrupted_save_leaves_nothing(self, tmp_path, monkeypatch):
        _, _, _, surface = small_surface(horizon=0.5, nodes=21)

        def torn(fh, **arrays):
            fh.write(b"PK\x03\x04 truncated")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", torn)
        with pytest.raises(OSError, match="disk full"):
            surface.save(tmp_path / "surface.npz")
        assert list(tmp_path.iterdir()) == []

    # format 1 surfaces came from the iterative root and precomputed stencils
    @pytest.mark.parametrize("version", [1, 99])
    def test_rejects_unknown_format(self, tmp_path, version):
        _, _, _, surface = small_surface(horizon=0.5, nodes=21)
        path = tmp_path / "surface.npz"
        surface.save(path)
        data = dict(np.load(path, allow_pickle=False))
        data["meta"] = json.dumps({"format_version": version, "config_hash": ""})
        np.savez_compressed(path, **data)
        with pytest.raises(ValidationError, match="format"):
            ValueSurface.load(path)

    def test_csv_export(self, tmp_path):
        _, _, grid, surface = small_surface(horizon=0.5, nodes=21)
        out = tmp_path / "surface.csv"
        with open(out, "w", newline="") as fp:
            surface.to_csv(fp)
        lines = out.read_text().splitlines()
        assert lines[0] == "f1,f2,value,admissible"
        assert len(lines) == 1 + grid.n_nodes
        first = lines[1].split(",")
        assert float(first[0]) == -grid.half_widths[0]
