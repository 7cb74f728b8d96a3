"""Residual-risk correction: closed-form oracle, seeded identity with the
fill simulator, error handling, and the adjusted quotes built on it."""

import dataclasses
import math

import numpy as np
import pytest

import rfqmm.residual
from helpers import make_market_1asset, make_market_2asset, make_sizes
from rfqmm.errors import ValidationError
from rfqmm.factors import FactorModel, build_factor_model
from rfqmm.model import RiskPenalty
from rfqmm.quotes import SurfacePolicy, optimal_quote
from rfqmm.residual import (
    adjusted_quote,
    adjusted_quotes,
    correction_samples,
    residual_correction,
    residual_corrections,
)
from rfqmm.simulator import simulate
from rfqmm.solver import FactorGrid, solve

MYOPIC_REFERENCE = 0.038541882843364745  # frozen root of x - exp(-x) = 1.7, mapped back

# Closed-form expectation for the flat-surface configuration below.  With a
# constant-in-space surface the policy quotes the inventory-blind offset
# everywhere, so fills are two independent Poisson streams (one per side)
# with rate lambda times the fill probability at the myopic offset, and the
# inventory is a difference of compound Poisson processes with
# E[q_t^2] = q0^2 + K E[z^2] t where K is the summed effective rate.
# Integrating the quadratic penalty derivatives against that growth gives,
# from inventory q0 at time t:
#
#   value = -(gamma/2) r [ q0^2 (T-t) + K E[z^2] (T-t)^2 / 2 ]
#           -(zeta/2)  r [ q0^2 + K E[z^2] (T-t) ]
#
# with r the residual variance of the one-asset split Sigma = v + r.
GAMMA = 8.0e-7
ZETA = 1.0e-6
SIGMA = 1.2
RESIDUAL_SHARE = 0.4


def flat_surface_setup():
    market = make_market_1asset(
        sigma=SIGMA,
        horizon=1.0,
        gamma=0.0,
        risk_limit=1.0e18,
        lam=30.0,
    )
    total = SIGMA * SIGMA
    r = RESIDUAL_SHARE * total
    v = total - r
    fm = FactorModel(
        covariance=market.covariance,
        loadings=np.array([[1.0]]),
        factor_cov=np.array([[v]]),
        residual_cov=np.array([[r]]),
        eigenvalues=np.array([total]),
    )
    grid = FactorGrid.from_factor_model(fm, market.risk_limit, 5)
    surface = solve(market, fm, grid)
    priced = make_market_1asset(
        sigma=SIGMA,
        horizon=1.0,
        gamma=GAMMA,
        risk_limit=1.0e18,
        lam=30.0,
        terminal_form="quadratic",
        zeta=ZETA,
    )
    return surface, priced, r


def expected_flat_value(r: float, q0: float, t: float, horizon: float = 1.0) -> float:
    sizes = make_sizes()
    second_moment = float(
        np.dot(np.asarray(sizes.probabilities), np.asarray(sizes.sizes) ** 2)
    )
    fill_prob = 1.0 / (1.0 + np.exp(0.7 + 30.0 * MYOPIC_REFERENCE))
    rate = 2.0 * 30.0 * fill_prob
    left = horizon - t
    running = 0.5 * GAMMA * r * (q0 * q0 * left + rate * second_moment * left * left / 2.0)
    terminal = 0.5 * ZETA * r * (q0 * q0 + rate * second_moment * left)
    return -(running + terminal)


@pytest.fixture(scope="module")
def flat_setup():
    return flat_surface_setup()


@pytest.fixture(scope="module")
def two_asset_setup():
    market = make_market_2asset(horizon=2.0)
    fm2 = build_factor_model(market.covariance, 2)
    grid2 = FactorGrid.from_factor_model(fm2, market.risk_limit, 41)
    surface2 = solve(market, fm2, grid2)
    fm1 = build_factor_model(market.covariance, 1)
    grid1 = FactorGrid.from_factor_model(fm1, market.risk_limit, 141)
    surface1 = solve(market, fm1, grid1)
    return market, surface1, surface2


class TestClosedFormOracle:
    def test_value_from_flat_inventory(self, flat_setup):
        surface, priced, r = flat_setup
        est = residual_correction(surface, priced, n_paths=400, seed=11)
        target = expected_flat_value(r, q0=0.0, t=0.0)
        assert est.stderr > 0.0
        assert abs(est.value - target) < 3.0 * est.stderr
        # the band itself must be meaningful, not vacuously wide
        assert est.stderr < 0.1 * abs(target)

    def test_value_from_standing_inventory(self, flat_setup):
        surface, priced, r = flat_setup
        q0 = 40000.0
        est = residual_correction(surface, priced, [q0], n_paths=400, seed=12)
        target = expected_flat_value(r, q0=q0, t=0.0)
        assert abs(est.value - target) < 3.0 * est.stderr

    def test_value_from_later_start(self, flat_setup):
        surface, priced, r = flat_setup
        est = residual_correction(surface, priced, t=0.6, n_paths=400, seed=13)
        target = expected_flat_value(r, q0=0.0, t=0.6)
        assert abs(est.value - target) < 3.0 * est.stderr


class TestTrajectoryIdentity:
    def test_samples_match_simulator_run_bitwise(self, two_asset_setup):
        market, surface1, _ = two_asset_setup
        est = residual_correction(surface1, market, n_paths=10, seed=77)
        run = simulate(
            market,
            SurfacePolicy(surface1, market),
            n_paths=10,
            seed=77,
            engine="thinning",
            keep_event_logs=True,
        )
        recomputed = correction_samples(run, surface1.factor_model)
        np.testing.assert_array_equal(est.samples, recomputed)

    def test_samples_start_from_the_recorded_inventory(self, two_asset_setup):
        market, surface1, _ = two_asset_setup
        q0 = np.array([20000.0, -10000.0])
        est = residual_correction(surface1, market, q0, n_paths=6, seed=5)
        run = simulate(
            market, SurfacePolicy(surface1, market), n_paths=6, seed=5,
            keep_event_logs=True, start_inventory=q0,
        )
        fm = surface1.factor_model
        np.testing.assert_array_equal(correction_samples(run, fm), est.samples)
        np.testing.assert_array_equal(correction_samples(run, fm, start_inventory=q0), est.samples)
        with pytest.raises(ValidationError, match="start inventory"):
            correction_samples(run, fm, start_inventory=np.zeros(2))

    def test_bit_exact_reproducibility(self, flat_setup):
        surface, priced, _ = flat_setup
        a = residual_correction(surface, priced, n_paths=60, seed=5)
        b = residual_correction(surface, priced, n_paths=60, seed=5)
        assert a.value == b.value and a.stderr == b.stderr
        np.testing.assert_array_equal(a.samples, b.samples)
        c = residual_correction(surface, priced, n_paths=60, seed=6)
        assert c.value != a.value

    def test_samples_are_never_positive(self, two_asset_setup):
        market, surface1, _ = two_asset_setup
        for seed, q in ((1, None), (2, [30000.0, -20000.0])):
            est = residual_correction(surface1, market, q, n_paths=30, seed=seed)
            assert est.samples.max() <= 0.0
            assert est.value <= 0.0


class TestMultiStart:
    def test_each_inventory_matches_its_own_estimate(self, two_asset_setup):
        market, surface1, _ = two_asset_setup
        inventories = [None, [20000.0, -10000.0], [-12500.0, 0.0]]
        together = residual_corrections(surface1, market, inventories, t=0.5, n_paths=9, seed=4)
        for q, est in zip(inventories, together):
            alone = residual_correction(surface1, market, q, t=0.5, n_paths=9, seed=4)
            np.testing.assert_array_equal(est.samples, alone.samples)
            assert (est.value, est.stderr, est.n_paths, est.seed) == (
                alone.value, alone.stderr, alone.n_paths, alone.seed
            )
        assert residual_corrections(surface1, market, [], n_paths=9, seed=4) == []

    def test_runs_take_a_bounded_number_of_starts(self, two_asset_setup, monkeypatch):
        market, surface1, _ = two_asset_setup
        inventories = [None, [20000.0, -10000.0], [-12500.0, 0.0], [0.0, 6250.0], [5000.0, 0.0]]
        want = residual_corrections(surface1, market, inventories, n_paths=7, seed=2)
        sizes = []
        real = rfqmm.residual.simulate

        def counting(*args, **kwargs):
            sizes.append(len(args[4]))
            return real(*args, **kwargs)

        monkeypatch.setattr(rfqmm.residual, "simulate", counting)
        monkeypatch.setattr(rfqmm.residual, "STARTS_PER_RUN", 2)
        got = residual_correction(surface1, market, np.array(inventories[1:]), n_paths=7, seed=2)
        assert sizes == [2, 2]
        for a, b in zip(got, want[1:]):
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_full_rank_model_gives_exact_zeros(self, two_asset_setup):
        market, _, surface2 = two_asset_setup
        out = residual_corrections(surface2, market, [None, [5000.0, 0.0]], n_paths=3, seed=1)
        assert [e.value for e in out] == [0.0, 0.0]

    def test_adjusted_quotes_match_one_by_one(self, two_asset_setup):
        market, surface1, _ = two_asset_setup
        fm = surface1.factor_model
        q = np.full(2, surface1.grid.half_widths[0] * 0.999 / fm.loadings[:, 0].sum())
        # the middle RFQ is refused at this state and takes no arm
        rfqs = [(0, "ask", 12500.0), (0, "bid", 25000.0), (1, "ask", 6250.0)]
        here, quotes = adjusted_quotes(surface1, market, q, rfqs, n_paths=8, seed=6)
        assert [a.refused for a in quotes] == [False, True, False]
        alone_here = residual_correction(surface1, market, q, n_paths=8, seed=6)
        np.testing.assert_array_equal(here.samples, alone_here.samples)
        for rfq, got in zip(rfqs, quotes):
            want = adjusted_quote(surface1, market, q, *rfq, n_paths=8, seed=6)
            for f in dataclasses.fields(got):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if f.name.startswith("correction"):
                    assert (a is None) == (b is None)
                    if a is not None:
                        np.testing.assert_array_equal(a.samples, b.samples)
                else:
                    assert a == b or (np.isnan(a) and np.isnan(b)), f.name
        # a given estimate at the state is used as is, and no arm re-estimates it
        again, requoted = adjusted_quotes(surface1, market, q, rfqs, n_paths=8, seed=6, here=here)
        assert again is here
        assert [a.delta for a in requoted[::2]] == [a.delta for a in quotes[::2]]


class TestStderr:
    def test_scaling_with_path_count(self, flat_setup):
        surface, priced, _ = flat_setup
        errs = {
            n: residual_correction(surface, priced, n_paths=n, seed=3).stderr
            for n in (100, 400, 1600)
        }
        assert errs[100] / errs[400] == pytest.approx(2.0, rel=0.2)
        assert errs[400] / errs[1600] == pytest.approx(2.0, rel=0.2)

    def test_single_path_has_nan_stderr(self, flat_setup):
        # one path gives no spread to estimate from, as in the simulator
        surface, priced, _ = flat_setup
        est = residual_correction(surface, priced, n_paths=1, seed=3)
        assert math.isnan(est.stderr) and est.n_paths == 1
        assert math.isfinite(est.value)


class TestDegenerateAndErrors:
    def test_full_rank_model_is_exactly_zero(self, two_asset_setup):
        market, _, surface2 = two_asset_setup
        est = residual_correction(surface2, market, [50000.0, -10000.0], n_paths=200, seed=9)
        assert est.value == 0.0 and est.stderr == 0.0
        assert not est.samples.any()

    def test_sqrt_penalty_is_refused(self, flat_setup):
        surface, _, _ = flat_setup
        sqrt_market = dataclasses.replace(
            make_market_1asset(sigma=SIGMA, horizon=1.0),
            penalty=RiskPenalty(running_form="sqrt", gamma=1.0e-4),
        )
        with pytest.raises(ValidationError, match="sqrt"):
            residual_correction(surface, sqrt_market, n_paths=10, seed=0)

    def test_input_validation(self, flat_setup):
        surface, priced, _ = flat_setup
        with pytest.raises(ValidationError, match="t must lie"):
            residual_correction(surface, priced, t=1.0, n_paths=10, seed=0)
        with pytest.raises(ValidationError, match="n_paths"):
            residual_correction(surface, priced, n_paths=0, seed=0)
        with pytest.raises(ValidationError, match="shape"):
            residual_correction(surface, priced, [1.0, 2.0], n_paths=10, seed=0)
        with pytest.raises(ValidationError, match=r"inventory \[inf\] must be finite"):
            residual_correction(surface, priced, [np.inf], n_paths=10, seed=0)
        with pytest.raises(ValidationError, match="keep_event_logs"):
            run = simulate(priced, SurfacePolicy(surface, priced), 2, 0)
            correction_samples(run, surface.factor_model)

    @pytest.mark.parametrize(
        "n_paths, seed, message",
        [
            (2.5, 0, "n_paths must be an integer >= 1, got 2.5"),
            (10, -1, "seed must be an integer >= 0, got -1"),
            (10, 0.5, "seed must be an integer >= 0, got 0.5"),
        ],
    )
    def test_run_size_is_checked(self, two_asset_setup, n_paths, seed, message):
        market, surface1, surface2 = two_asset_setup
        # the full-rank surface runs no simulation, so it is checked up front
        for surface in (surface1, surface2):
            with pytest.raises(ValidationError, match=message):
                residual_correction(surface, market, n_paths=n_paths, seed=seed)
            with pytest.raises(ValidationError, match=message):
                residual_corrections(surface, market, [None], n_paths=n_paths, seed=seed)


class TestAdjustedQuote:
    def test_zero_residual_reduces_to_plain_quote(self, two_asset_setup):
        market, _, surface2 = two_asset_setup
        q = [20000.0, 5000.0]
        plain = optimal_quote(surface2, market, q, 0, "bid", 12500.0)
        adj = adjusted_quote(surface2, market, q, 0, "bid", 12500.0, n_paths=50, seed=4)
        assert not adj.refused
        assert adj.delta == plain.delta
        assert adj.shift == 0.0 and adj.shift_stderr == 0.0
        assert adj.correction_at_state.value == 0.0

    def test_shift_matches_closed_form(self, flat_setup):
        surface, priced, r = flat_setup
        q0, z = 40000.0, 12500.0
        adj = adjusted_quote(surface, priced, [q0], 0, "bid", z, n_paths=400, seed=21)
        target = (
            expected_flat_value(r, q0=q0, t=0.0) - expected_flat_value(r, q0=q0 + z, t=0.0)
        ) / z
        assert adj.shift_stderr > 0.0
        assert abs(adj.shift - target) < 3.0 * adj.shift_stderr
        # buying into a long position adds residual risk, so the reservation
        # rises and the bid widens
        assert adj.shift > 0.0
        assert adj.delta > adj.base_delta

    def test_single_path_shift_has_nan_stderr(self, flat_setup):
        surface, priced, _ = flat_setup
        adj = adjusted_quote(surface, priced, [40000.0], 0, "bid", 12500.0, n_paths=1, seed=21)
        assert not adj.refused and math.isfinite(adj.shift) and math.isfinite(adj.delta)
        assert math.isnan(adj.shift_stderr)
        assert math.isnan(adj.correction_at_state.stderr)
        assert math.isnan(adj.correction_after_trade.stderr)

    def test_pairing_beats_independent_streams(self, flat_setup):
        surface, priced, _ = flat_setup
        paired, independent = [], []
        for rep in range(100):
            kwargs = dict(t=0.0, n_paths=30, seed=1000 + rep)
            paired.append(
                adjusted_quote(surface, priced, [40000.0], 0, "bid", 12500.0, **kwargs).shift
            )
            # the estimate at the state from another seed unpairs the two arms
            here = residual_correction(surface, priced, [40000.0], n_paths=30, seed=5000 + rep)
            independent.append(
                adjusted_quote(
                    surface, priced, [40000.0], 0, "bid", 12500.0, here=here, **kwargs
                ).shift
            )
        assert np.var(paired) < np.var(independent)

    def test_refusal_is_propagated_without_simulation(self, two_asset_setup):
        market, surface1, _ = two_asset_setup
        fm = surface1.factor_model
        grid_edge = surface1.grid.half_widths[0] * 0.999 / fm.loadings[:, 0].sum()
        q_edge = np.full(2, grid_edge)
        adj = adjusted_quote(surface1, market, q_edge, 0, "bid", 25000.0, n_paths=10, seed=0)
        assert adj.refused and np.isnan(adj.delta)
        assert adj.correction_at_state is None and adj.correction_after_trade is None

    def test_one_factor_adjustment_moves_toward_full_quote(self, two_asset_setup):
        market, surface1, surface2 = two_asset_setup
        minor = build_factor_model(market.covariance, 2).loadings[:, 1]
        for scale in (2.0e5, -2.0e5):
            q = scale * minor
            base = optimal_quote(surface1, market, q, 0, "bid", 12500.0)
            full = optimal_quote(surface2, market, q, 0, "bid", 12500.0)
            adj = adjusted_quote(surface1, market, q, 0, "bid", 12500.0, n_paths=300, seed=42)
            assert not adj.refused and not full.refused
            reference_gap = full.delta - base.delta
            applied = adj.delta - base.delta
            assert np.sign(applied) == np.sign(reference_gap)
            assert abs(adj.shift) > 3.0 * adj.shift_stderr

