"""Residual-risk correction: closed-form oracle, seeded identity with the
fill simulator, error handling, and the adjusted quotes built on it."""

import dataclasses
import math

import numpy as np
import pytest

import rfqmm.residual
from helpers import make_market_1asset, make_market_2asset, make_sizes, replay_correction_samples
from rfqmm import simulator
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

    def test_samples_equal_a_scalar_replay(self, two_asset_setup):
        market, surface1, _ = two_asset_setup
        fm = surface1.factor_model
        flat = np.zeros(2)
        near_limit = fm.loadings[:, 0] * np.sqrt(
            0.9 * market.risk_limit / (fm.loadings[:, 0] @ market.covariance @ fm.loadings[:, 0])
        )
        for start in (flat, near_limit):
            run = simulate(
                market, SurfacePolicy(surface1, market), 6, seed=8, keep_event_logs=True,
                start_inventory=start,
            )
            assert any(log.size for log in run.event_logs)
            got = correction_samples(run, fm)
            assert got.all()
            assert got.tolist() == replay_correction_samples(run, fm)

    def test_samples_do_not_depend_on_the_block(self, two_asset_setup, monkeypatch):
        # a path's sample is the same bits whatever paths share its block, and
        # however much padding the block's longest path gives it
        market, surface1, _ = two_asset_setup
        fm = surface1.factor_model
        run = simulate(market, SurfacePolicy(surface1, market), 20, seed=12, keep_event_logs=True)
        want = correction_samples(run, fm)
        longest = max(range(20), key=lambda i: len(run.event_logs[i]["t"]))
        keep = [i for i in range(20) if i != longest]
        assert max(len(run.event_logs[i]["t"]) for i in keep) < len(run.event_logs[longest]["t"])
        shorter = dataclasses.replace(
            run, paths=run.paths[keep], event_logs=[run.event_logs[i] for i in keep]
        )
        assert correction_samples(shorter, fm).tobytes() == want[keep].tobytes()
        for block in (1, 3, simulator.PATH_CHUNK):
            monkeypatch.setattr(simulator, "PATH_CHUNK", block)
            assert correction_samples(run, fm).tobytes() == want.tobytes()

    def test_two_chunk_run(self, two_asset_setup):
        # 300 paths run, and are rebuilt, in two blocks
        market, surface1, _ = two_asset_setup
        fm = surface1.factor_model
        assert simulator.PATH_CHUNK < 300
        est = residual_correction(surface1, market, n_paths=300, seed=14)
        run = simulate(market, SurfacePolicy(surface1, market), 300, seed=14, keep_event_logs=True)
        np.testing.assert_array_equal(correction_samples(run, fm), est.samples)
        ends = [0, simulator.PATH_CHUNK - 1, simulator.PATH_CHUNK, 299]
        tail = dataclasses.replace(
            run, paths=run.paths[ends], event_logs=[run.event_logs[i] for i in ends]
        )
        assert est.samples[ends].tolist() == replay_correction_samples(tail, fm)

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


def _near_limit(market, fm, share=0.9):
    """A start along the first factor at ``share`` of the risk limit."""
    v = fm.loadings[:, 0]
    return v * np.sqrt(share * market.risk_limit / (v @ market.covariance @ v))


class TestLoopSamples:
    """The residual samples the event loop takes as it runs are the ones
    ``correction_samples`` rebuilds from a logged run of the same seed, bit
    for bit."""

    @staticmethod
    def _check(market, surface, starts, n_paths=20, seed=19, engine="thinning"):
        fm = surface.factor_model
        policy = SurfacePolicy(surface, market)
        runs = simulator.simulate_starts(
            market, policy, n_paths, seed, starts, engine=engine, residual_risk=fm.residual_risk
        )
        for start, run in zip(starts, runs):
            logged = simulate(
                market, policy, n_paths, seed, engine=engine, keep_event_logs=True,
                start_inventory=start,
            )
            assert any(log.size for log in logged.event_logs)
            assert run.event_logs is None and not run.residual_samples.flags.writeable
            assert run.paths.tobytes() == logged.paths.tobytes()
            assert run.residual_samples.tobytes() == correction_samples(logged, fm).tobytes()
        return runs

    @pytest.mark.parametrize("window", [1, 3, "default"])
    @pytest.mark.parametrize("chunk", [1, 7, "default"])
    @pytest.mark.parametrize("n_starts", [1, 3])
    def test_equal_the_rebuild_from_event_logs(
        self, two_asset_setup, monkeypatch, window, chunk, n_starts
    ):
        market, surface1, _ = two_asset_setup
        if window != "default":
            monkeypatch.setattr(simulator, "EVENT_WINDOW", window)
        if chunk != "default":
            monkeypatch.setattr(simulator, "PATH_CHUNK", chunk)
        # the first start near the risk limit, where the policy refuses
        near = _near_limit(market, surface1.factor_model)
        starts = [near, None, [20000.0, -10000.0]][:n_starts]
        runs = self._check(market, surface1, starts)
        assert runs[0].paths.refused_quotes.sum() > 0

    def test_price_path_engine(self, two_asset_setup):
        market, surface1, _ = two_asset_setup
        self._check(market, surface1, [None, [20000.0, -10000.0]], engine="price_paths")

    def test_later_start(self, two_asset_setup):
        # t > 0 runs the remaining horizon
        market, surface1, _ = two_asset_setup
        t = 0.7
        est = residual_correction(surface1, market, [20000.0, -10000.0], t=t, n_paths=20, seed=3)
        rest = dataclasses.replace(market, horizon=market.horizon - t)
        runs = self._check(rest, surface1, [[20000.0, -10000.0]], seed=3)
        assert est.samples.tobytes() == runs[0].residual_samples.tobytes()

    def test_zero_weight_sqrt_penalty(self, two_asset_setup):
        market, surface1, _ = two_asset_setup
        penalty = RiskPenalty(running_form="sqrt", gamma=0.0, terminal_form="quadratic", zeta=ZETA)
        runs = self._check(dataclasses.replace(market, penalty=penalty), surface1, [None])
        assert runs[0].residual_samples.all()

    def test_sqrt_penalty_is_refused_before_any_path(self, two_asset_setup, monkeypatch):
        # a sqrt running penalty of positive weight has no constant slope;
        # the sampler refuses it before a path runs, not with 0/0 samples
        market, surface1, _ = two_asset_setup
        sqrt_market = dataclasses.replace(
            market, penalty=RiskPenalty(running_form="sqrt", gamma=1.0e-4)
        )

        def no_run(*args):
            raise AssertionError("a path ran")

        monkeypatch.setattr(simulator, "_run_thinning", no_run)
        with pytest.raises(ValidationError, match="unbounded derivative at zero risk"):
            simulator.simulate_starts(
                sqrt_market, SurfacePolicy(surface1, sqrt_market), 3, 0, [None],
                residual_risk=surface1.factor_model.residual_risk,
            )

    def test_collapsed_engine_refuses_the_sampler(self, two_asset_setup):
        market, surface1, _ = two_asset_setup
        with pytest.raises(ValidationError, match="'collapsed'.*residual_risk"):
            simulator.simulate_starts(
                market, SurfacePolicy(surface1, market), 3, 0, [None], engine="collapsed",
                residual_risk=surface1.factor_model.residual_risk,
            )

    def test_runs_without_the_sampler_carry_no_samples(self, two_asset_setup):
        market, surface1, _ = two_asset_setup
        assert simulate(market, SurfacePolicy(surface1, market), 3, 0).residual_samples is None


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

    def test_all_inventories_run_in_one_loop(self, two_asset_setup, monkeypatch):
        # six inventories, more than the four starts a run once took: each
        # gets the bits it gets alone, from one run that keeps no event logs
        market, surface1, _ = two_asset_setup
        inventories = [
            None, [20000.0, -10000.0], [-12500.0, 0.0], [0.0, 6250.0], [5000.0, 0.0],
            [-25000.0, 18750.0],
        ]
        alone = [residual_correction(surface1, market, q, n_paths=7, seed=2) for q in inventories]
        runs = []
        real = rfqmm.residual.simulate

        def recording(*args, **kwargs):
            runs.append((len(args[4]), kwargs["keep_event_logs"], real(*args, **kwargs)))
            return runs[-1][2]

        monkeypatch.setattr(rfqmm.residual, "simulate", recording)
        together = residual_corrections(surface1, market, inventories, n_paths=7, seed=2)
        assert [(n, logs) for n, logs, _ in runs] == [(6, False)]
        assert all(result.event_logs is None for result in runs[0][2])
        for got, want in zip(together, alone):
            assert got.samples.tobytes() == want.samples.tobytes()

    def test_full_rank_model_gives_exact_zeros(self, two_asset_setup, monkeypatch):
        market, _, surface2 = two_asset_setup

        def no_run(*args, **kwargs):
            raise AssertionError("a full-rank model ran a simulation")

        monkeypatch.setattr(rfqmm.residual, "simulate", no_run)
        out = residual_corrections(surface2, market, [None, [5000.0, 0.0]], n_paths=3, seed=1)
        assert [e.value for e in out] == [0.0, 0.0]
        assert [e.stderr for e in out] == [0.0, 0.0]
        assert not any(e.samples.any() for e in out)

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

    @pytest.mark.parametrize(
        "penalty, twin",
        [
            (
                RiskPenalty(running_form="sqrt", gamma=0.0, terminal_form="quadratic", zeta=ZETA),
                RiskPenalty(gamma=0.0, terminal_form="quadratic", zeta=ZETA),
            ),
            (
                RiskPenalty(gamma=GAMMA, terminal_form="sqrt", zeta=0.0),
                RiskPenalty(gamma=GAMMA),
            ),
        ],
    )
    def test_zero_weight_sqrt_penalty_adds_nothing(self, two_asset_setup, penalty, twin):
        # a flat start has zero risk, where the zero-weight sqrt form's
        # slope is 0, not 0/0: the estimate is its zero-weight twin's
        market, surface1, _ = two_asset_setup
        got, want = (
            residual_correction(
                surface1, dataclasses.replace(market, penalty=p), n_paths=20, seed=8
            )
            for p in (penalty, twin)
        )
        assert want.value < 0.0 and math.isfinite(want.stderr)
        np.testing.assert_array_equal(got.samples, want.samples)
        assert (got.value, got.stderr) == (want.value, want.stderr)

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
        size = 12500.0
        paired, independent = [], []
        for rep in range(100):
            paired.append(
                adjusted_quote(
                    surface, priced, [40000.0], 0, "bid", size, n_paths=30, seed=1000 + rep
                ).shift
            )
            # the two arms estimated from different seeds are unpaired
            here, there = (
                residual_correction(surface, priced, [q], n_paths=30, seed=seed)
                for q, seed in ((40000.0, 5000 + rep), (40000.0 + size, 1000 + rep))
            )
            independent.append((here.value - there.value) / size)
        assert np.var(paired) < np.var(independent)

    def test_refusal_is_propagated_without_simulation(self, two_asset_setup):
        market, surface1, _ = two_asset_setup
        fm = surface1.factor_model
        grid_edge = surface1.grid.half_widths[0] * 0.999 / fm.loadings[:, 0].sum()
        q_edge = np.full(2, grid_edge)
        adj = adjusted_quote(surface1, market, q_edge, 0, "bid", 25000.0, n_paths=10, seed=0)
        assert adj.refused and np.isnan(adj.delta)
        assert adj.correction_at_state is None and adj.correction_after_trade is None

    def test_base_quote_is_priced_once(self, two_asset_setup, monkeypatch):
        market, surface1, _ = two_asset_setup
        fm = surface1.factor_model
        q_edge = np.full(2, surface1.grid.half_widths[0] * 0.999 / fm.loadings[:, 0].sum())
        q = [20000.0, -10000.0]
        want = adjusted_quote(surface1, market, q, 0, "bid", 12500.0, n_paths=6, seed=3)
        calls = []
        real = rfqmm.residual.optimal_quote
        monkeypatch.setattr(
            rfqmm.residual, "optimal_quote", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        got = adjusted_quote(surface1, market, q, 0, "bid", 12500.0, n_paths=6, seed=3)
        assert len(calls) == 1
        assert (got.base_delta, got.delta, got.shift) == (want.base_delta, want.delta, want.shift)

        def no_run(*args, **kwargs):
            raise AssertionError("a refused base quote ran a simulation")

        # a refused base is priced once, and runs no simulation
        monkeypatch.setattr(rfqmm.residual, "simulate", no_run)
        refused = adjusted_quote(surface1, market, q_edge, 0, "bid", 25000.0, n_paths=6, seed=3)
        assert len(calls) == 2 and refused.refused

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

