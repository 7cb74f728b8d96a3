"""Simulation engine: replay oracle, engine cross-checks, randomness layout,
risk gating and the summary statistics."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from helpers import (
    make_asset,
    make_market_1asset,
    make_market_2asset,
    make_market_30asset,
    make_sizes,
    reference_draw_path_events,
    replay_correction_samples,
)
from rfqmm import simulator
from rfqmm.errors import OutOfDomainError, ValidationError
from rfqmm.events import BucketTable, draw_path_events, path_generator
from rfqmm.factors import build_factor_model
from rfqmm.model import MarketSpec, RiskPenalty
from rfqmm.quotes import MyopicPolicy, SurfacePolicy, myopic_quote, surface_quotes
from rfqmm.residual import correction_samples
from rfqmm.simulator import (
    ENGINES,
    LOG_DTYPE,
    DegenerateRunWarning,
    inventory_blocks,
    simulate,
    total_variance_gap,
)
from rfqmm.solver import FactorGrid, SolverConfig, solve


@pytest.fixture(scope="module")
def sim_setup():
    market = make_market_2asset(horizon=1.0)
    fm = build_factor_model(market.covariance, 2)
    grid = FactorGrid.from_factor_model(fm, market.risk_limit, 41)
    surface = solve(market, fm, grid)
    return market, fm, grid, surface


@pytest.fixture(scope="module")
def one_factor_setup(sim_setup):
    market = sim_setup[0]
    fm1 = build_factor_model(market.covariance, 1)
    grid1 = FactorGrid.from_factor_model(fm1, market.risk_limit, 41)
    surface1 = solve(market, fm1, grid1)
    return fm1, surface1


def _replay(market, seed, path, quote, q0=None):
    """One path re-run with plain scalar arithmetic, event by event.

    ``quote(q, sq, y, asset, side, size)`` answers each arrival at the
    current state with ``(delta, ok)``.  Returns the path's totals.
    """
    buckets = BucketTable.from_market(market)
    sigma = market.covariance
    limit = market.risk_limit * (1.0 + 1e-12)
    ev = draw_path_events(buckets, market.horizon, path_generator(seed, path))
    q = np.zeros(market.n_assets) if q0 is None else np.array(q0, dtype=float)
    sq = q @ sigma
    y = float(q @ sigma @ q)
    t_prev = spread = market_pnl = risk_int = pen_int = 0.0
    fills = np.zeros(len(buckets), dtype=np.int64)
    rejected = refused = 0
    for j in range(ev.n_events):
        tj = ev.times[j]
        dt = tj - t_prev
        risk_int += y * dt
        pen_int += float(market.penalty.running(y)) * dt
        market_pnl += np.sqrt(y * dt) * ev.normals[j]
        t_prev = tj
        b = ev.bucket[j]
        a = int(buckets.asset[b])
        s = int(buckets.side[b])
        z = buckets.size[b]
        delta, ok = quote(q, sq, y, a, s, z)
        if not ok:
            refused += 1
            continue
        u = buckets.alpha[b] + buckets.beta[b] * delta
        prob = 1.0 / (1.0 + np.exp(np.minimum(u, 700.0)))
        if ev.thin[j] < prob:
            sign = 1.0 if s == 0 else -1.0
            post = y + 2.0 * sign * z * sq[a] + z * z * sigma[a, a]
            if post > limit:
                rejected += 1
            else:
                q[a] += sign * z
                sq += (sign * z) * sigma[a]
                y = post
                spread += delta * z
                fills[b] += 1
    dt = market.horizon - t_prev
    risk_int += y * dt
    pen_int += float(market.penalty.running(y)) * dt
    market_pnl += np.sqrt(y * dt) * ev.normals[ev.n_events]
    return dict(
        spread=spread, market_pnl=market_pnl, risk_int=risk_int, pen_int=pen_int,
        fills=fills, rejected=rejected, refused=refused, q=q,
    )


def _assert_replayed(got, want):
    assert got.spread_pnl == want["spread"]
    assert got.market_pnl == want["market_pnl"]
    assert got.pnl == want["spread"] + want["market_pnl"]
    assert got.risk_integral == want["risk_int"]
    assert got.penalty_integral == want["pen_int"]
    assert got.rejected_fills == want["rejected"]
    assert got.refused_quotes == want["refused"]
    np.testing.assert_array_equal(got.n_fills, want["fills"])
    np.testing.assert_array_equal(got.terminal_inventory, want["q"])


class TestReplayOracle:
    """Re-execute a few paths with plain scalar arithmetic and demand
    exact equality with the vectorised engine."""

    def test_myopic_paths_replay_exactly(self):
        market = make_market_2asset(horizon=0.5)
        seed = 21
        result = simulate(market, MyopicPolicy(market), 3, seed=seed)
        deltas = {
            (i, s): myopic_quote(market.assets[i].intensity(side), market.quote_floor)
            for i in range(2)
            for s, side in enumerate(("bid", "ask"))
        }

        def quote(q, sq, y, a, s, z):
            return deltas[(a, s)], True

        for path in range(3):
            _assert_replayed(result.paths[path], _replay(market, seed, path, quote))

    def test_surface_paths_replay_exactly(self, sim_setup):
        """A feedback policy: each arrival is quoted alone, one row through
        the quoting rule at the state the replay has reached."""
        market, _, _, surface = sim_setup
        seed = 21
        # near the risk limit, so the replay meets risk refusals (the policy
        # refuses what the gate would reject, so no fill is rejected here)
        q0 = [0.9 * np.sqrt(market.risk_limit / market.covariance[0, 0]), 0.0]
        result = simulate(market, SurfacePolicy(surface, market), 3, seed=seed, start_inventory=q0)

        def quote(q, sq, y, a, s, z):
            delta, reason, _ = surface_quotes(
                surface, market, 0.0, q[None], np.array([a]), np.array([s]), np.array([z]),
                sq[None], np.array([y]),
            )
            return delta[0], reason[0] == 0

        replayed = [_replay(market, seed, path, quote, q0) for path in range(3)]
        for path in range(3):
            _assert_replayed(result.paths[path], replayed[path])
        assert sum(r["refused"] for r in replayed) > 0
        assert sum(int(r["fills"].sum()) for r in replayed) > 0


class TestDeterminismAndLayout:
    def test_same_seed_is_bitwise_identical(self, sim_setup):
        market, _, _, surface = sim_setup
        policy = SurfacePolicy(surface, market)
        a = simulate(market, policy, 40, seed=5, keep_event_logs=True)
        b = simulate(market, policy, 40, seed=5, keep_event_logs=True)
        for pa, pb in zip(a.paths, b.paths):
            assert pa.pnl == pb.pnl
            assert pa.objective == pb.objective
            np.testing.assert_array_equal(pa.n_fills, pb.n_fills)
        assert [log.tobytes() for log in a.event_logs] == [log.tobytes() for log in b.event_logs]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_event_logs_are_read_only_records(self, sim_setup, engine):
        market, _, _, surface = sim_setup
        result = simulate(
            market, SurfacePolicy(surface, market), 12, seed=5, engine=engine,
            keep_event_logs=True,
        )
        assert len(result.event_logs) == 12
        for log in result.event_logs:
            assert log.dtype == LOG_DTYPE and not log.flags.writeable
        # one record per fill
        sizes = [log.size for log in result.event_logs]
        assert sizes == result.paths.n_fills.sum(1).tolist() and any(sizes)

    def test_out_of_domain_start_is_named(self, sim_setup):
        market, _, grid, surface = sim_setup
        with pytest.raises(OutOfDomainError) as info:
            simulate(market, SurfacePolicy(surface, market), 2, seed=0, start_inventory=[9e6, -9e6])
        message = str(info.value)
        assert "inventory [9000000.0, -9000000.0]" in message
        assert f"(half widths {grid.half_widths.tolist()})" in message

    def test_different_seed_differs(self, sim_setup):
        market, _, _, surface = sim_setup
        policy = SurfacePolicy(surface, market)
        a = simulate(market, policy, 10, seed=5)
        b = simulate(market, policy, 10, seed=6)
        assert any(pa.pnl != pb.pnl for pa, pb in zip(a.paths, b.paths))

    def test_fill_times_come_from_the_policy_free_arrival_stream(self, sim_setup):
        market, _, _, surface = sim_setup
        seed = 13
        buckets = BucketTable.from_market(market)
        arrivals = {
            path: set(draw_path_events(buckets, market.horizon, path_generator(seed, path)).times.tolist())
            for path in range(8)
        }
        for policy in (MyopicPolicy(market), SurfacePolicy(surface, market)):
            result = simulate(market, policy, 8, seed=seed, keep_event_logs=True)
            for path, log in enumerate(result.event_logs):
                assert set(log["t"]).issubset(arrivals[path])

    @pytest.mark.parametrize("price_paths", [False, True], ids=["scalar", "price_paths"])
    @pytest.mark.parametrize(
        "make_market",
        [
            make_market_2asset,
            make_market_30asset,
            # ~0.6 arrivals a path: most buckets and many paths draw none
            lambda: make_market_30asset(horizon=1e-3),
        ],
        ids=["2asset", "30asset", "30asset_short"],
    )
    def test_draw_matches_the_per_bucket_reference(self, make_market, price_paths):
        market = make_market()
        buckets = BucketTable.from_market(market)
        dims = market.n_assets if price_paths else 0
        n_events = []
        for path in range(20):
            got = draw_path_events(buckets, market.horizon, path_generator(31, path), dims)
            want = reference_draw_path_events(
                buckets, market.horizon, path_generator(31, path), dims
            )
            assert got.n_events == want.n_events
            for f in dataclasses.fields(want):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
                assert a.tobytes() == b.tobytes(), f.name
            n_events.append(got.n_events)
        if market.horizon < 0.01:
            assert min(n_events) == 0 and max(n_events) > 0

    def test_paths_are_a_read_only_record_array(self, sim_setup):
        # the summary is cached, so the records it was taken from must not change
        market, _, _, surface = sim_setup
        result = simulate(market, SurfacePolicy(surface, market), 20, seed=3)
        summary = result.summary()
        paths = result.paths
        assert paths[4].pnl == paths.pnl[4]
        np.testing.assert_array_equal(paths[4].n_fills, paths.n_fills[4])
        with pytest.raises(ValueError, match="read-only"):
            paths.pnl[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            paths[0] = paths[1]
        with pytest.raises(ValueError, match="read-only"):
            paths[0].pnl = 1.0
        assert result.summary() == summary
        assert summary.n_paths == len(result.paths) == 20


@pytest.fixture(scope="module")
def thirty_setup():
    market = make_market_30asset(horizon=0.02)
    fm = build_factor_model(market.covariance, 2)
    grid = FactorGrid.from_factor_model(fm, market.risk_limit, 15)
    # a dense start inventory, so every factor coordinate sums 30 nonzero terms
    start = 1000.0 * np.sin(np.arange(1.0, 31.0))
    return market, fm, solve(market, fm, grid), start


def _bits(result, fm, start):
    """Every per-path output of a run, as bytes, plus logs and residual samples."""
    return (
        result.paths.tobytes(),
        [log.tobytes() for log in result.event_logs],
        correction_samples(result, fm, start).tobytes(),
    )


class TestChunking:
    """A path's numbers depend only on (seed, path): not on the chunk size,
    nor on how many paths share an event step."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("policy_kind", ["surface", "myopic"])
    @pytest.mark.parametrize("setup", ["two", "thirty"])
    def test_results_do_not_depend_on_the_chunk_size(
        self, request, monkeypatch, engine, policy_kind, setup
    ):
        if setup == "two":
            market, _, _, surface = request.getfixturevalue("sim_setup")
            # one factor leaves a residual, so the correction samples are nonzero
            fm = build_factor_model(market.covariance, 1)
            start = None
        else:
            market, fm, surface, start = request.getfixturevalue("thirty_setup")
        policy = SurfacePolicy(surface, market) if policy_kind == "surface" else MyopicPolicy(market)
        n = 20
        runs = []
        for chunk in (1, 7, n):
            monkeypatch.setattr(simulator, "PATH_CHUNK", chunk)
            result = simulate(
                market, policy, n, seed=19, engine=engine, keep_event_logs=True,
                start_inventory=start,
            )
            runs.append(_bits(result, fm, start))
        assert any(runs[0][1])
        assert runs[0] == runs[1] == runs[2]

    def test_memory_is_bounded_by_one_chunk(self):
        market = make_market_2asset(horizon=1.0)
        policy = MyopicPolicy(market)

        def traced_peak(n_paths):
            tracemalloc.start()
            try:
                simulate(market, policy, n_paths, seed=3, engine="price_paths")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_chunk = traced_peak(simulator.PATH_CHUNK)
        assert traced_peak(4 * simulator.PATH_CHUNK) < 1.5 * one_chunk

    def test_inventory_rebuild_memory_is_bounded_by_one_block(self):
        market = make_market_2asset(horizon=1.0)
        fm = build_factor_model(market.covariance, 1)

        def traced_peak(n_paths):
            run = simulate(market, MyopicPolicy(market), n_paths, seed=3, keep_event_logs=True)
            tracemalloc.start()
            try:
                correction_samples(run, fm)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_block = traced_peak(simulator.PATH_CHUNK)
        assert traced_peak(4 * simulator.PATH_CHUNK) < 1.5 * one_block

    def test_loop_residual_samples_in_thirty_dimensions(self, thirty_setup):
        # the event loop's residual samples, three starts in one loop, are
        # what correction_samples rebuilds from each start's logged run
        market, fm, surface, start = thirty_setup
        policy = SurfacePolicy(surface, market)
        near = _near_limit(market, start)
        starts = [near, start, -near]
        runs = simulator.simulate_starts(
            market, policy, 9, 19, starts, residual_risk=fm.residual_risk
        )
        for q0, run in zip(starts, runs):
            logged = simulate(
                market, policy, 9, seed=19, keep_event_logs=True, start_inventory=q0
            )
            assert any(log.size for log in logged.event_logs)
            assert run.residual_samples.tobytes() == correction_samples(logged, fm).tobytes()

    def test_correction_samples_replay_in_thirty_dimensions(self, thirty_setup):
        # 30 assets: every factor coordinate and quadratic form sums 30 or
        # more terms, in index order
        market, fm, surface, start = thirty_setup
        run = simulate(
            market, SurfacePolicy(surface, market), 3, seed=19, keep_event_logs=True,
            start_inventory=start,
        )
        assert any(log.size for log in run.event_logs)
        assert correction_samples(run, fm).tolist() == replay_correction_samples(run, fm)


def _near_limit(market, start, share=0.9):
    """``start`` (or the first asset alone) scaled to ``share`` of the risk limit."""
    q = np.asarray(start if start is not None else np.eye(market.n_assets)[0], dtype=float)
    return q * np.sqrt(share * market.risk_limit / (q @ market.covariance @ q))


@pytest.fixture(scope="module")
def event_setup():
    market = make_market_2asset(horizon=0.2)
    fm = build_factor_model(market.covariance, 1)
    grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
    return market, fm, solve(market, fm, grid, SolverConfig(store_policy="all_slices"))


class TestWindow:
    """A row's numbers do not depend on how many of its next events a pass of
    the thinning loop quotes together (``simulator.EVENT_WINDOW``)."""

    @staticmethod
    def _check(monkeypatch, market, policy, fm, starts, engine, **kwargs):
        runs = []
        for window in (1, 3, simulator.EVENT_WINDOW):
            monkeypatch.setattr(simulator, "EVENT_WINDOW", window)
            results = simulator.simulate_starts(
                market, policy, 20, 19, starts, engine=engine, keep_event_logs=True, **kwargs
            )
            runs.append([_bits(r, fm, s) for r, s in zip(results, starts)])
        assert runs[0] == runs[1] == runs[2]
        assert all(any(log.size for log in r.event_logs) for r in results)
        return results

    @pytest.mark.parametrize("engine", ["thinning", "price_paths"])
    @pytest.mark.parametrize("policy_kind", ["surface", "myopic"])
    @pytest.mark.parametrize("setup", ["two", "thirty"])
    @pytest.mark.parametrize("n_starts", [1, 3])
    def test_results_do_not_depend_on_the_window(
        self, request, monkeypatch, engine, policy_kind, setup, n_starts
    ):
        if setup == "two":
            market, _, _, surface = request.getfixturevalue("sim_setup")
            fm = build_factor_model(market.covariance, 1)
            start = None
        else:
            market, fm, surface, start = request.getfixturevalue("thirty_setup")
        policy = SurfacePolicy(surface, market) if policy_kind == "surface" else MyopicPolicy(market)
        # the first start near the risk limit: the surface policy refuses
        # there, and the myopic policy's fills are rejected
        near = _near_limit(market, start)
        starts = [near, start, -near][:n_starts]
        results = self._check(monkeypatch, market, policy, fm, starts, engine)
        gated = sum(p.refused_quotes + p.rejected_fills for p in results[0].paths)
        assert gated > 0

    @pytest.mark.parametrize("engine", ["thinning", "price_paths"])
    @pytest.mark.parametrize("n_starts", [1, 3])
    def test_event_time_quotes_do_not_depend_on_the_window(
        self, event_setup, monkeypatch, engine, n_starts
    ):
        market, fm, surface = event_setup
        starts = [None, _near_limit(market, None), [20000.0, -10000.0]][:n_starts]
        self._check(
            monkeypatch, market, SurfacePolicy(surface, market), fm, starts, engine,
            quote_times="event",
        )


#: start inventories of the multi-start runs, the first one flat
MULTI_STARTS = [None, [20000.0, -10000.0], [-15000.0, 5000.0], [0.0, 30000.0]]


class TestMultiStart:
    """``simulate_starts`` gives every start the run ``simulate`` gives it
    alone, and draws each path's events once for all starts."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n_starts", [1, 2, 4])
    @pytest.mark.parametrize("chunk", [1, 7, "n_paths"])
    def test_each_start_matches_its_own_run_bitwise(
        self, sim_setup, one_factor_setup, monkeypatch, engine, n_starts, chunk
    ):
        market = sim_setup[0]
        fm1, surface1 = one_factor_setup
        policy = SurfacePolicy(surface1, market)
        n = 12
        monkeypatch.setattr(simulator, "PATH_CHUNK", n if chunk == "n_paths" else chunk)
        starts = MULTI_STARTS[:n_starts]
        together = simulator.simulate_starts(
            market, policy, n, 19, starts, engine=engine, keep_event_logs=True
        )
        assert len(together) == n_starts
        assert together.engine == engine
        assert np.array_equal(together.paths, np.concatenate([r.paths for r in together]))
        assert len(together.paths) == n_starts * n
        for start, result in zip(starts, together):
            alone = simulate(
                market, policy, n, seed=19, engine=engine, keep_event_logs=True,
                start_inventory=start,
            )
            assert _bits(result, fm1, start) == _bits(alone, fm1, start)
            np.testing.assert_array_equal(result.start_inventory, alone.start_inventory)
        assert all(any(log.size for log in r.event_logs) for r in together)

    def test_events_are_drawn_once_per_path(self, sim_setup, monkeypatch):
        market, _, _, surface = sim_setup
        drawn = []

        def counting(buckets, horizon, rng, price_dims=0):
            drawn.append(rng)
            return draw_path_events(buckets, horizon, rng, price_dims=price_dims)

        monkeypatch.setattr(simulator, "draw_path_events", counting)
        simulator.simulate_starts(market, SurfacePolicy(surface, market), 9, 3, MULTI_STARTS)
        assert len(drawn) == 9

    def test_events_are_shared_in_memory(self):
        market = make_market_2asset(horizon=1.0)
        policy = MyopicPolicy(market)

        def traced_peak(n_starts):
            tracemalloc.start()
            try:
                simulator.simulate_starts(
                    market, policy, simulator.PATH_CHUNK, 3, MULTI_STARTS[:n_starts],
                    engine="price_paths",
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # measured 1.24x here: the per-row state grows with the starts, a
        # chunk's padded events and drawn paths do not
        assert traced_peak(4) < 1.5 * traced_peak(1)

    def test_validation(self, sim_setup):
        market, _, _, surface = sim_setup
        policy = SurfacePolicy(surface, market)
        with pytest.raises(ValidationError, match="at least one start inventory"):
            simulator.simulate_starts(market, policy, 5, 1, [])
        with pytest.raises(ValidationError, match=r"inventory \[nan, 0.0\] must be finite"):
            simulator.simulate_starts(market, policy, 5, 1, [None, [np.nan, 0.0]])

    @pytest.mark.parametrize(
        "n_paths, seed, message",
        [
            (2.5, 1, "n_paths must be an integer >= 1, got 2.5"),
            (0, 1, "n_paths must be an integer >= 1, got 0"),
            (True, 1, "n_paths must be an integer >= 1, got True"),
            (5, -1, "seed must be an integer >= 0, got -1"),
            (5, 1.5, "seed must be an integer >= 0, got 1.5"),
            (5, None, "seed must be an integer >= 0, got None"),
        ],
    )
    def test_run_size_is_checked(self, sim_setup, n_paths, seed, message):
        market, _, _, surface = sim_setup
        policy = SurfacePolicy(surface, market)
        with pytest.raises(ValidationError, match=message):
            simulate(market, policy, n_paths, seed)
        with pytest.raises(ValidationError, match=message):
            simulator.simulate_starts(market, policy, n_paths, seed, [None])

    def test_numpy_integers_are_accepted(self, sim_setup):
        market, _, _, surface = sim_setup
        policy = SurfacePolicy(surface, market)
        a = simulate(market, policy, np.int64(3), np.int32(4))
        b = simulate(market, policy, 3, 4)
        assert [p.pnl for p in a.paths] == [p.pnl for p in b.paths]


class TestEngines:
    def test_price_path_identity_is_a_real_crosscheck(self, sim_setup):
        market, _, _, surface = sim_setup
        result = simulate(market, SurfacePolicy(surface, market), 60, seed=11, engine="price_paths")
        for p in result.paths:
            assert p.pnl == pytest.approx(p.spread_pnl + p.market_pnl, rel=1e-8)
        assert any(p.n_fills.sum() > 0 for p in result.paths)

    def test_collapsed_engine_matches_thinning_in_distribution(self):
        sizes = make_sizes(sizes=(10000.0, 20000.0), probs=(0.7, 0.3))
        market = make_market_1asset(
            sigma=1.2, horizon=1.0, gamma=8e-7, risk_limit=(10 * 10000.0) ** 2 * 1.44,
            lam=30.0, sizes=sizes,
        )
        fm = build_factor_model(market.covariance, 1)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
        surface = solve(market, fm, grid)
        policy = SurfacePolicy(surface, market)
        n = 800
        thin = simulate(market, policy, n, seed=29, engine="thinning")
        coll = simulate(market, policy, n, seed=92, engine="collapsed")
        fills_thin = np.array([p.n_fills.sum() for p in thin.paths])
        fills_coll = np.array([p.n_fills.sum() for p in coll.paths])
        ks = stats.ks_2samp(fills_thin, fills_coll)
        assert ks.pvalue > 0.01
        # spread revenue per path must agree in distribution as well
        ks2 = stats.ks_2samp(
            np.array([p.spread_pnl for p in thin.paths]),
            np.array([p.spread_pnl for p in coll.paths]),
        )
        assert ks2.pvalue > 0.01

    def test_event_time_quotes_run_on_full_surfaces(self):
        market = make_market_2asset(horizon=0.2)
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
        surface = solve(market, fm, grid, SolverConfig(store_policy="all_slices"))
        policy = SurfacePolicy(surface, market)
        a = simulate(market, policy, 10, seed=1, quote_times="event")
        b = simulate(market, policy, 10, seed=1, quote_times="event")
        assert all(pa.pnl == pb.pnl for pa, pb in zip(a.paths, b.paths))

    def test_validation(self, sim_setup):
        market, _, _, surface = sim_setup
        policy = SurfacePolicy(surface, market)
        with pytest.raises(ValidationError, match="engine"):
            simulate(market, policy, 5, seed=1, engine="exact")
        with pytest.raises(ValidationError, match="quote_times"):
            simulate(market, policy, 5, seed=1, quote_times="midpoint")
        with pytest.raises(ValidationError, match="collapsed.*quote_times='event'"):
            simulate(market, policy, 5, seed=1, engine="collapsed", quote_times="event")
        with pytest.raises(ValidationError, match="n_paths"):
            simulate(market, policy, 0, seed=1)
        with pytest.raises(ValidationError, match=r"inventory \[nan, 0.0\] must be finite"):
            simulate(market, policy, 5, seed=1, start_inventory=[np.nan, 0.0])


class TestRiskGate:
    def test_no_state_ever_breaches_the_limit(self):
        # a limit two small fills wide, so the gate triggers constantly
        market = make_market_2asset(horizon=2.0, risk_limit=2.0 * 6250.0**2 * 1.44)
        policy = MyopicPolicy(market)
        result = simulate(market, policy, 30, seed=8, keep_event_logs=True)
        sigma = market.covariance
        limit = market.risk_limit * (1.0 + 1e-9)
        total_rejected = 0
        for p, log in zip(result.paths, result.event_logs):
            q = np.zeros(2)
            for a, dq in zip(log["asset"], log["dq"]):
                q[a] += dq
                assert q @ sigma @ q <= limit
            np.testing.assert_allclose(q, p.terminal_inventory)
            total_rejected += p.rejected_fills
        assert total_rejected > 0

    def test_fills_back_to_flat_keep_the_pnl_finite(self):
        # one size atom an asset, so correlated round trips return the
        # inventory to exactly flat, where the incremental risk rounded below
        # zero and its square root made the path's PnL NaN
        assets = tuple(
            make_asset(f"A{i}", sigma=sigma, lam=10.0, sizes=make_sizes((size,), (1.0,)))
            for i, (sigma, size) in enumerate(((1.2, 25000.0), (0.6, 6250.0)))
        )
        market = MarketSpec(
            assets=assets,
            correlation=np.array([[1.0, 0.2], [0.2, 1.0]]),
            horizon=2.0,
            risk_limit=5.0e10,
            penalty=RiskPenalty(running_form="quadratic", gamma=8.0e-7),
        )
        for engine, n_paths in (("thinning", 400), ("collapsed", 100)):
            result = simulate(market, MyopicPolicy(market), n_paths, seed=3, engine=engine)
            assert np.isfinite(result.paths.pnl).all(), engine

    def test_degenerate_policy_warns_and_completes(self):
        market = make_market_2asset(horizon=0.1, risk_limit=1e6)
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 5)
        surface = solve(market, fm, grid, SolverConfig(dt=0.005))
        policy = SurfacePolicy(surface, market)
        with pytest.warns(DegenerateRunWarning):
            result = simulate(market, policy, 5, seed=2)
        for p in result.paths:
            assert p.n_fills.sum() == 0
            assert p.refused_quotes > 0
            assert p.pnl == 0.0
        # the warning names the caller of either entry point, once per run
        with pytest.warns(DegenerateRunWarning, match="the starting inventory") as caught:
            simulate(market, policy, 5, seed=2)
        assert [w.filename for w in caught] == [__file__]
        with pytest.warns(DegenerateRunWarning, match=r"start inventories \[0, 1\] of 2") as caught:
            simulator.simulate_starts(market, policy, 5, 2, [None, None])
        assert [w.filename for w in caught] == [__file__]

    def test_degenerate_check_quotes_every_start_in_one_call(self, sim_setup, monkeypatch):
        market, _, _, surface = sim_setup
        buckets = BucketTable.from_market(market)
        calls = []
        real = SurfacePolicy.quote_rows

        def counting(self, *args, **kwargs):
            calls.append(len(args[2]))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(SurfacePolicy, "quote_rows", counting)
        starts = [np.zeros(2), np.array([20000.0, -10000.0]), np.zeros(2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulator._check_degenerate(SurfacePolicy(surface, market), buckets, starts)
        assert calls == [3 * len(buckets)]


class TestTrivialCases:
    def test_zero_arrival_rate_means_zero_everything(self):
        market = make_market_2asset(horizon=3.0, lam=0.0)
        result = simulate(market, MyopicPolicy(market), 6, seed=4)
        for p in result.paths:
            assert p.pnl == 0.0
            assert p.n_fills.sum() == 0
            assert p.risk_integral == 0.0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_arrivals_hold_the_start_inventory(self, engine):
        market = make_market_2asset(horizon=3.0, lam=0.0)
        q0 = np.array([20000.0, -5000.0])
        result = simulate(market, MyopicPolicy(market), 4, seed=4, engine=engine, start_inventory=q0)
        for p in result.paths:
            assert p.n_fills.sum() == 0
            np.testing.assert_array_equal(p.terminal_inventory, q0)
            assert p.risk_integral == float(q0 @ market.covariance @ q0) * market.horizon

    # one path has no sample variance: numpy warned and returned NaN
    def test_variance_gap_needs_two_paths(self):
        market = make_market_2asset(horizon=3.0, lam=0.0)
        result = simulate(market, MyopicPolicy(market), 1, seed=4)
        with pytest.raises(ValidationError, match="at least 2 paths, got 1"):
            total_variance_gap(result)

    # Occupancy: inventory_blocks gives each path's inventories and how long
    # each is held, the time weights of an inventory histogram; path i's own
    # rows are the first fills[i] + 1 of its column.
    def test_single_path_no_fills_histogram_is_a_point_mass(self):
        market = make_market_2asset(horizon=3.0, lam=0.0)
        result = simulate(market, MyopicPolicy(market), 1, seed=4, keep_event_logs=True)
        [(inventory, durations, fills)] = list(inventory_blocks(result))
        assert fills.tolist() == [0]
        np.testing.assert_array_equal(inventory, np.zeros((1, 1, 2)))
        np.testing.assert_array_equal(durations, [[market.horizon]])

    def test_histogram_starts_from_the_start_inventory(self, sim_setup):
        market, fm, _, surface = sim_setup
        q0 = fm.loadings @ np.array([20000.0, -5000.0])
        result = simulate(
            market, SurfacePolicy(surface, market), 3, seed=4, keep_event_logs=True,
            start_inventory=q0,
        )
        np.testing.assert_array_equal(result.start_inventory, q0)
        [(inventory, _, fills)] = list(inventory_blocks(result))
        assert fills.tolist() == [len(log["t"]) for log in result.event_logs]
        assert fills.any()
        np.testing.assert_array_equal(inventory[0], np.tile(q0, (3, 1)))
        # the fills added in turn to the start, as the engine adds them
        terminal = result.paths.terminal_inventory
        np.testing.assert_array_equal(inventory[fills, np.arange(3)], terminal)
        # padding holds the final inventory
        np.testing.assert_array_equal(inventory[-1], terminal)

    def test_histogram_conserves_time(self, sim_setup):
        market, _, _, surface = sim_setup
        result = simulate(market, SurfacePolicy(surface, market), 25, seed=10, keep_event_logs=True)
        for _, durations, fills in inventory_blocks(result):
            assert np.all(durations >= 0.0)
            # padding is held for zero time
            assert not durations[np.arange(len(durations))[:, None] > fills].any()
            np.testing.assert_allclose(durations.sum(axis=0), market.horizon, rtol=1e-12)

    def test_histogram_requires_logs(self, sim_setup):
        market, _, _, surface = sim_setup
        result = simulate(market, SurfacePolicy(surface, market), 5, seed=10)
        with pytest.raises(ValidationError, match="keep_event_logs"):
            next(inventory_blocks(result))


class TestStatisticalInvariants:
    def test_myopic_fill_counts_match_rates(self):
        market = make_market_2asset(horizon=1.0)
        policy = MyopicPolicy(market)
        n = 2000
        result = simulate(market, policy, n, seed=17)
        buckets = result.buckets
        totals = np.zeros(len(buckets))
        for p in result.paths:
            totals += p.n_fills
        # nearly every gate pass succeeds at this limit, so the thinned rate
        # is lambda * p_atom * f(delta_myopic)
        for b in range(len(buckets)):
            a = int(buckets.asset[b])
            side = "bid" if buckets.side[b] == 0 else "ask"
            intensity = market.assets[a].intensity(side)
            delta = myopic_quote(intensity, market.quote_floor)
            fill_probability = intensity(delta) / intensity.lambda_rfq
            mu = buckets.arrival_rate[b] * fill_probability * market.horizon
            assert abs(totals[b] - n * mu) <= 3.0 * math.sqrt(n * mu)

    def test_law_of_total_variance(self, sim_setup):
        market, _, _, surface = sim_setup
        result = simulate(market, SurfacePolicy(surface, market), 2000, seed=23)
        gap, se = total_variance_gap(result)
        assert abs(gap) <= 3.0 * se

    def test_optimal_policy_concentrates_inventory(self, sim_setup):
        market, _, _, surface = sim_setup
        seed = 31
        myopic = simulate(market, MyopicPolicy(market), 300, seed=seed)
        optimal = simulate(market, SurfacePolicy(surface, market), 300, seed=seed)
        mean_risk = lambda r: np.mean([p.risk_integral for p in r.paths])
        assert mean_risk(optimal) < 0.7 * mean_risk(myopic)

    def test_one_factor_policy_spreads_along_the_ignored_axis(self, sim_setup, one_factor_setup):
        market, fm2, _, surface2 = sim_setup
        _, surface1 = one_factor_setup
        seed = 37
        two = simulate(market, SurfacePolicy(surface2, market), 250, seed=seed, keep_event_logs=True)
        one = simulate(market, SurfacePolicy(surface1, market), 250, seed=seed, keep_event_logs=True)

        def minor_axis_occupancy(result):
            # time-weighted sum of squares of the second factor coordinate;
            # padding is held for zero time
            return sum(
                (durations * fm2.factor_coordinates(inventory)[..., 1] ** 2).sum()
                for inventory, durations, _ in inventory_blocks(result)
            )

        # second factor carries the small eigenvalue: the k=1 policy treats
        # exposure there as free and accumulates it
        assert minor_axis_occupancy(one) > minor_axis_occupancy(two)

    def test_summary_matches_path_arithmetic(self, sim_setup):
        market, _, _, surface = sim_setup
        result = simulate(market, SurfacePolicy(surface, market), 200, seed=41)
        s = result.summary()
        pnl = np.array([p.pnl for p in result.paths])
        objective = np.array([p.objective for p in result.paths])
        assert s.mean_pnl == pytest.approx(pnl.mean(), rel=1e-12)
        assert s.stdev_pnl == pytest.approx(pnl.std(ddof=1), rel=1e-12)
        assert s.objective == pytest.approx(objective.mean(), rel=1e-12)
        assert s.se_mean_pnl == pytest.approx(pnl.std(ddof=1) / math.sqrt(200), rel=1e-12)
        for p in result.paths:
            assert p.objective == pytest.approx(
                p.pnl - p.penalty_integral - p.terminal_penalty, rel=1e-12
            )
