"""Quote engine: myopic baseline, feedback quotes, refusal rules, table
export and the policy objects the simulator drives."""


import numpy as np
import pytest

from helpers import (
    make_intensity,
    make_market_1asset,
    make_market_2asset,
    make_market_30asset,
    make_sizes,
    rk4_lattice_reference,
)
from rfqmm.errors import OutOfDomainError, ValidationError
from rfqmm.factors import FactorModel, build_factor_model
from rfqmm.hamiltonian import quote_offset
from rfqmm.quotes import (
    REASON_BOX,
    REASON_OK,
    REASON_RISK,
    MyopicPolicy,
    QuoteResult,
    SurfacePolicy,
    myopic_quote,
    optimal_quote,
    quote_table,
    surface_quotes,
)
from rfqmm.solver import BOX_TOL, FactorGrid, SolverConfig, ValueSurface, solve

MYOPIC_REFERENCE = 0.038541882843364745  # frozen root of x - exp(-x) = 1.7, mapped back


@pytest.fixture(scope="module")
def short_setup():
    market = make_market_2asset(horizon=1.5)
    fm = build_factor_model(market.covariance, 2)
    grid = FactorGrid.from_factor_model(fm, market.risk_limit, 41)
    surface = solve(market, fm, grid)
    return market, fm, grid, surface


class TestMyopic:
    def test_reference_value(self):
        assert myopic_quote(make_intensity(30.0, 0.7, 30.0)) == pytest.approx(
            MYOPIC_REFERENCE, abs=1e-12
        )

    def test_arrival_rate_cancels(self):
        base = myopic_quote(make_intensity(30.0, 0.7, 30.0))
        for lam in (10.0, 1.0, 3000.0):
            assert myopic_quote(make_intensity(lam, 0.7, 30.0)) == pytest.approx(
                base, abs=1e-14
            )

    def test_matches_grid_search(self):
        intensity = make_intensity(12.0, -0.4, 55.0)
        grid = np.arange(-1.0, 1.0, 1e-6)
        revenue = grid * intensity(grid)
        best = grid[np.argmax(revenue)]
        assert myopic_quote(intensity) == pytest.approx(best, abs=2e-6)

    def test_policy_is_a_constant_table(self):
        market = make_market_2asset()
        policy = MyopicPolicy(market)
        assert policy.kind == "myopic"
        q = np.zeros((7, 2))
        rows = (np.full(7, 1), np.full(7, 1), np.full(7, 12500.0))
        delta, ok = policy.quote_rows(0.0, q, *rows)
        assert np.all(delta == delta[0])
        assert np.all(ok)
        assert delta[0] == myopic_quote(market.assets[1].intensity("ask"), market.quote_floor)
        # inventory-blind by construction
        q2 = np.full((7, 2), 9.9e4)
        delta2, _ = policy.quote_rows(0.0, q2, *rows)
        np.testing.assert_array_equal(delta, delta2)


class TestOptimalQuote:
    def test_zero_inventory_bid_equals_ask(self, short_setup):
        market, _, _, surface = short_setup
        for asset in (0, 1):
            for z in (6250.0, 25000.0):
                bid = optimal_quote(surface, market, [0.0, 0.0], asset, "bid", z)
                ask = optimal_quote(surface, market, [0.0, 0.0], asset, "ask", z)
                assert not bid.refused and not ask.refused
                assert bid.delta == pytest.approx(ask.delta, abs=1e-9)

    def test_bid_ask_antisymmetry(self, short_setup):
        market, _, _, surface = short_setup
        rng = np.random.default_rng(5)
        qs = rng.uniform(-1.0, 1.0, size=(25, 2)) * 40000.0
        for q in qs:
            bid = optimal_quote(surface, market, q, 0, "bid", 12500.0)
            ask = optimal_quote(surface, market, -q, 0, "ask", 12500.0)
            assert bid.delta == pytest.approx(ask.delta, abs=1e-9)

    def test_bid_skews_away_from_long_inventory(self, short_setup):
        market, _, _, surface = short_setup
        line = np.linspace(-60000.0, 60000.0, 13)
        deltas = [
            optimal_quote(surface, market, [q1, 0.0], 0, "bid", 6250.0).delta
            for q1 in line
        ]
        diffs = np.diff(deltas)
        assert np.all(diffs >= -1e-12)
        assert diffs.max() > 1e-4  # strictly skewing somewhere, not flat

    def test_larger_size_quotes_more_conservatively(self, short_setup):
        market, _, _, surface = short_setup
        deltas = [
            optimal_quote(surface, market, [20000.0, 0.0], 0, "bid", z).delta
            for z in (6250.0, 12500.0, 18750.0, 25000.0)
        ]
        assert np.all(np.diff(deltas) > 0.0)

    def test_quotes_respect_floor(self, short_setup):
        market, _, _, surface = short_setup
        rng = np.random.default_rng(9)
        qs = rng.uniform(-1.0, 1.0, size=(50, 2)) * 80000.0
        for q in qs:
            res = optimal_quote(surface, market, q, 1, "ask", 18750.0)
            if not res.refused:
                assert res.delta >= -market.quote_floor

    def test_matches_one_dimensional_oracle(self):
        sizes = make_sizes(sizes=(10000.0, 20000.0), probs=(0.7, 0.3))
        market = make_market_1asset(
            sigma=1.2,
            horizon=1.0,
            gamma=8e-7,
            risk_limit=(10 * 10000.0) ** 2 * 1.44,
            lam=30.0,
            sizes=sizes,
        )
        fm = build_factor_model(market.covariance, 1)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
        surface = solve(market, fm, grid, SolverConfig(dt=0.002))
        reference = rk4_lattice_reference(market, grid, n_steps=4000)
        nodes = grid.axes[0]
        z = 10000.0
        bid = market.assets[0].intensity("bid")
        for j in range(5, 16):  # interior nodes, step of one base atom
            p_ref = (reference[j] - reference[j + 1]) / z
            want = quote_offset(p_ref, bid.alpha, bid.beta, market.quote_floor)
            got = optimal_quote(surface, market, [nodes[j]], 0, "bid", z)
            assert not got.refused
            assert got.delta == pytest.approx(want, abs=1e-3)

    def test_input_validation(self, short_setup):
        market, _, _, surface = short_setup
        with pytest.raises(ValidationError, match="asset index"):
            optimal_quote(surface, market, [0.0, 0.0], 7, "bid", 100.0)
        with pytest.raises(ValidationError, match="side"):
            optimal_quote(surface, market, [0.0, 0.0], 0, "buy", 100.0)
        with pytest.raises(ValidationError, match="size"):
            optimal_quote(surface, market, [0.0, 0.0], 0, "bid", 0.0)
        with pytest.raises(ValidationError, match="components"):
            optimal_quote(surface, market, [0.0, 0.0, 1.0], 0, "bid", 100.0)
        with pytest.raises(ValidationError, match=r"inventory \[nan, 0.0\] must be finite"):
            optimal_quote(surface, market, [np.nan, 0.0], 0, "bid", 100.0)
        with pytest.raises(ValidationError, match=r"inventory \[0.0, inf\] must be finite"):
            quote_table(surface, market, [[0.0, 0.0], [0.0, np.inf]])
        # a table takes a list of inventories, not one bare inventory
        with pytest.raises(ValidationError, match="shape"):
            quote_table(surface, market, [0.0, 0.0])

    @pytest.mark.parametrize("size", [np.inf, np.nan, -1.0])
    def test_size_must_be_positive_and_finite(self, short_setup, size):
        market, _, _, surface = short_setup
        message = f"trade size must be positive and finite, got {size}"
        with pytest.raises(ValidationError, match=message):
            optimal_quote(surface, market, [0.0, 0.0], 0, "bid", size)
        with pytest.raises(ValidationError, match=message):
            quote_table(surface, market, [[0.0, 0.0]], sizes=[size])

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_quote_time_must_be_finite(self, short_setup, t):
        # the nearest-slice lookup would read a NaN time as slice 0
        market, _, _, surface = short_setup
        message = f"t must be finite, got {t}"
        with pytest.raises(ValidationError, match=message):
            optimal_quote(surface, market, [0.0, 0.0], 0, "bid", 100.0, t=t)
        with pytest.raises(ValidationError, match=message):
            surface.value(t, [0.0, 0.0])


class TestRefusals:
    @staticmethod
    def hot_state(fm, grid):
        # admissible (risk 0.94 B) but close enough to the ellipsoid that a
        # large buy breaches the limit while staying inside the box
        f = np.array([0.8, 0.55]) * grid.half_widths
        return fm.loadings @ f

    def test_risk_limit_refusal(self, short_setup):
        market, fm, grid, surface = short_setup
        q = self.hot_state(fm, grid)
        assert q @ market.covariance @ q <= market.risk_limit
        res = optimal_quote(surface, market, q, 0, "bid", 25000.0)
        assert res.refused
        assert res.reason == REASON_RISK
        assert np.isnan(res.delta)

    def test_box_refusal(self, short_setup):
        market, fm, _, surface = short_setup
        f = np.array([surface.grid.half_widths[0] * 0.999, 0.0])
        q = fm.loadings @ f
        res = optimal_quote(surface, market, q, 0, "bid", 25000.0)
        assert res.refused
        assert res.reason == REASON_BOX

    def test_risk_reducing_trade_is_quoted_from_hot_state(self, short_setup):
        market, fm, grid, surface = short_setup
        q = self.hot_state(fm, grid)  # positive factor exposure, so sell
        res = optimal_quote(surface, market, q, 0, "ask", 25000.0)
        assert not res.refused

    def test_out_of_domain_state_raises(self, short_setup):
        market, fm, _, surface = short_setup
        f = np.array([surface.grid.half_widths[0] * 1.1, 0.0])
        q = fm.loadings @ f
        with pytest.raises(OutOfDomainError) as info:
            optimal_quote(surface, market, q, 0, "bid", 6250.0)
        # the message names the inventory, its factor point and the box
        point = fm.factor_coordinates(q)
        assert str(info.value) == (
            f"inventory {q.tolist()} is out of domain: its factor point {point.tolist()} "
            f"lies outside the grid box (half widths {surface.grid.half_widths.tolist()})"
        )


def same_rows(n, asset, side, size):
    """Row arrays for ``quote_rows`` repeating one (asset, side, size)."""
    return np.full(n, asset), np.full(n, side), np.full(n, size)


class TestPolicies:
    def test_surface_policy_matches_scalar_calls(self, short_setup):
        market, _, _, surface = short_setup
        policy = SurfacePolicy(surface, market)
        assert policy.kind == "surface"
        rng = np.random.default_rng(2)
        qs = rng.uniform(-1.0, 1.0, size=(30, 2)) * 50000.0
        delta, ok = policy.quote_rows(0.0, qs, *same_rows(30, 1, 0, 12500.0))
        for row, q in enumerate(qs):
            res = optimal_quote(surface, market, q, 1, "bid", 12500.0)
            assert ok[row] == (res.reason == REASON_OK)
            if res.refused:
                assert np.isnan(delta[row])
            else:
                assert delta[row] == res.delta

    def test_cached_risk_inputs_change_nothing(self, short_setup):
        market, _, _, surface = short_setup
        policy = SurfacePolicy(surface, market)
        rng = np.random.default_rng(4)
        qs = rng.uniform(-1.0, 1.0, size=(20, 2)) * 50000.0
        sq = qs @ market.covariance
        risk = np.einsum("nd,nd->n", sq, qs)
        rows = same_rows(20, 0, 1, 6250.0)
        base = policy.quote_rows(0.0, qs, *rows)
        cached = policy.quote_rows(0.0, qs, *rows, sq=sq, risk=risk)
        np.testing.assert_array_equal(base[0], cached[0])

    def test_per_row_times_group_to_slices(self):
        market = make_market_2asset(horizon=0.05)
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
        surface = solve(market, fm, grid, SolverConfig(store_policy="all_slices"))
        policy = SurfacePolicy(surface, market)
        qs = np.array([[0.0, 0.0], [10000.0, 0.0], [0.0, 5000.0]])
        times = np.array([0.0, market.horizon, 0.0])
        rows = same_rows(3, 0, 0, 6250.0)
        mixed, _ = policy.quote_rows(times, qs, *rows)
        at0, _ = policy.quote_rows(0.0, qs, *rows)
        atT, _ = policy.quote_rows(market.horizon, qs, *rows)
        assert mixed[0] == at0[0]
        assert mixed[1] == atT[1]
        assert mixed[2] == at0[2]


    @pytest.mark.parametrize("quote_times", ["stationary", "event"])
    def test_state_index_quotes_as_repeated_rows(self, quote_times):
        # the event loop's window: quote rows read their states through an
        # index, and get the bits of rows that repeat the states
        market = make_market_2asset(horizon=0.05)
        fm = build_factor_model(market.covariance, 1)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 21)
        surface = solve(market, fm, grid, SolverConfig(store_policy="all_slices"))
        rng = np.random.default_rng(7)
        edge = fm.loadings[:, 0] * surface.grid.half_widths[0] * 0.999
        v = np.array([1.0, -1.0])
        near = v * np.sqrt(0.99 * market.risk_limit / (v @ market.covariance @ v))
        qs = np.vstack([rng.uniform(-1.0, 1.0, size=(4, 2)) * 50000.0, edge, near])
        window = 8
        state = np.tile(np.arange(len(qs)), window)
        n = state.size
        rows = (
            rng.integers(2, size=n), rng.integers(2, size=n),
            rng.choice([6250.0, 12500.0, 25000.0], size=n),
        )
        t = 0.0 if quote_times == "stationary" else rng.uniform(0.0, market.horizon, n)
        sq = np.einsum("nd,ed->ne", qs, market.covariance)
        risk = np.einsum("nd,nd->n", qs, sq)
        want = surface_quotes(surface, market, t, qs[state], *rows, sq[state], risk[state])
        assert set(want[1]) == {0, 1, 2}
        for got in (
            surface_quotes(surface, market, t, qs, *rows, sq, risk, state),
            surface_quotes(surface, market, t, qs, *rows, None, None, state),
        ):
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
        delta, ok = SurfacePolicy(surface, market).quote_rows(
            t, qs, *rows, sq=sq, risk=risk, state=state
        )
        assert delta.tobytes() == want[0].tobytes()
        np.testing.assert_array_equal(ok, want[1] == 0)
        myopic = MyopicPolicy(market)
        assert myopic.quote_rows(t, qs, *rows, state=state)[0].tobytes() == (
            myopic.quote_rows(t, qs[state], *rows)[0].tobytes()
        )


class TestQuoteTable:
    def test_single_row_matches_direct_call(self, short_setup):
        market, _, _, surface = short_setup
        rows = quote_table(surface, market, [[10000.0, -5000.0]], sizes=[12500.0])
        assert len(rows) == 4  # 2 assets x 2 sides
        for q, asset_id, side, size, delta, reason in rows:
            i = int(asset_id[1:])
            res = optimal_quote(surface, market, list(q), i, side, size)
            assert delta == res.delta
            assert reason == res.reason

    @staticmethod
    def assert_rows_match_direct_calls(surface, market, qs):
        rows = quote_table(surface, market, qs)
        assert len(rows) == len(qs) * sum(
            len(a.sizes(side).sizes) for a in market.assets for side in ("bid", "ask")
        )
        ids = [a.asset_id for a in market.assets]
        refused = 0
        for q, asset_id, side, size, delta, reason in rows:
            res = optimal_quote(surface, market, list(q), ids.index(asset_id), side, size)
            assert reason == res.reason
            if res.refused:
                assert delta is None
                refused += 1
            else:
                assert delta == res.delta
        return refused

    def test_nonzero_inventories_match_direct_calls(self, short_setup):
        market, fm, grid, surface = short_setup
        rng = np.random.default_rng(11)
        qs = rng.uniform(-1.0, 1.0, size=(6, 2)) * 50000.0
        qs = np.vstack([qs, TestRefusals.hot_state(fm, grid)])
        refused = self.assert_rows_match_direct_calls(surface, market, qs)
        assert refused > 0

    def test_nonzero_inventories_match_direct_calls_many_assets(self):
        market = make_market_30asset(horizon=0.02)
        fm = build_factor_model(market.covariance, 2)
        grid = FactorGrid.from_factor_model(fm, market.risk_limit, 15)
        surface = solve(market, fm, grid)
        rng = np.random.default_rng(3)
        qs = rng.normal(size=(3, market.n_assets))
        risk = np.einsum("nd,de,ne->n", qs, market.covariance, qs)
        qs *= np.sqrt(0.25 * market.risk_limit / risk)[:, None]
        self.assert_rows_match_direct_calls(surface, market, qs)

    def test_default_sizes_come_from_the_market(self, short_setup):
        market, _, _, surface = short_setup
        rows = quote_table(surface, market, [[0.0, 0.0]])
        assert len(rows) == 2 * 2 * 4
        sizes = [r[3] for r in rows[:4]]
        assert sizes == sorted(sizes)

    def test_empty_size_list_gives_empty_table(self, short_setup):
        market, _, _, surface = short_setup
        assert quote_table(surface, market, [[0.0, 0.0]], sizes=[]) == []
        assert quote_table(surface, market, []) == []

    def test_result_dataclass_flags(self):
        ok = QuoteResult(delta=0.02, reason=REASON_OK, reservation=0.0)
        bad = QuoteResult(delta=float("nan"), reason=REASON_RISK, reservation=float("nan"))
        assert not ok.refused
        assert bad.refused


# The quoting rule's output bits on a surface built from literals and
# elementwise arithmetic only (no BLAS, LAPACK or solve), so no BLAS or
# LAPACK build can move the recorded values.  Slices at t = 0, 0.025 and
# 0.05 days.
GOLDEN_LOADINGS = ((0.9, 0.436), (0.436, -0.9))
GOLDEN_HALF_WIDTHS = (105000.0, 585000.0)
GOLDEN_TIMES = (0.0, 0.025, 0.05)

# (inventory, asset, side, size)
GOLDEN_ROWS = (
    ((0.0, 0.0), 0, 0, 6250.0),
    ((0.0, 0.0), 1, 1, 25000.0),
    ((20000.0, -35000.0), 0, 1, 12500.0),
    ((20000.0, -35000.0), 1, 0, 18750.0),
    ((-60000.0, 15000.0), 0, 0, 25000.0),
    ((-60000.0, 15000.0), 1, 1, 6250.0),
    # f1 near the edge: a buy leaves the box
    ((93500.0, 45300.0), 0, 0, 25000.0),
    # near the corner, admissible: a buy breaches the limit, a sell is priced
    ((262000.0, -360500.0), 0, 0, 25000.0),
    ((262000.0, -360500.0), 0, 1, 25000.0),
    # the trade lands half a BOX_TOL past the edge at +f1 and -f1 (inside
    # the slack, so priced), then two BOX_TOL past it (refused)
    ((88240.92891807387, 45775.60556475579), 0, 0, 6250.0),
    ((-88240.92891807387, -45775.60556475579), 0, 1, 6250.0),
    ((88240.92905981027, 45775.60563341919), 0, 0, 6250.0),
)

# (delta, reason code, reservation) per row at t = 0, then with one time per
# row from linspace(0, 0.05, 12); None on refused rows
GOLDEN_AT_ZERO = (
    (0.03854088037751111, 0, -1.1591099999998068e-06),
    (0.038717036568579916, 0, 0.00020245085),
    (0.03875812620948054, 0, 0.0002499234299999999),
    (0.03851662803608329, 0, -2.9202530000000304e-05),
    (0.03739463307765635, 0, -0.0013296356099999993),
    (0.03921250795412102, 0, 0.0007743675500000029),
    (None, 1, None),
    (None, 2, None),
    (0.03669116118987865, 0, -0.002148087654),
    (0.04108853242639784, 0, 0.0029297590825210908),
    (0.041403195163986536, 0, 0.003289759079161081),
    (None, 1, None),
)
GOLDEN_PER_ROW_T = (
    (0.03854088037751111, 0, -1.1591099999998068e-06),
    (0.038717036568579916, 0, 0.00020245085),
    (0.03875812620948054, 0, 0.0002499234299999999),
    (0.038496567030359446, 0, -5.2401518000000175e-05),
    (0.03779079590772032, 0, -0.0008697813659999995),
    (0.03897425820863887, 0, 0.0004995005300000014),
    (None, 1, None),
    (None, 2, None),
    (0.037491734863045446, 0, -0.0012168525924),
    (0.03892440477874109, 0, 0.00044195181784821813),
    (0.03923643000868207, 0, 0.0008019518144882147),
    (None, 1, None),
)


def golden_surface():
    market = make_market_2asset(horizon=GOLDEN_TIMES[-1])
    loadings = np.array(GOLDEN_LOADINGS)
    eigs = np.array([1.74, 0.0565])
    fm = FactorModel(
        covariance=market.covariance, loadings=loadings, factor_cov=np.diag(eigs),
        residual_cov=np.zeros((2, 2)), eigenvalues=eigs,
    )
    grid = FactorGrid(np.diag(eigs), np.array(GOLDEN_HALF_WIDTHS), (21, 21), market.risk_limit)
    f = grid.node_coordinates()
    level = 1.74 * f[:, 0] * f[:, 0] + 0.0565 * f[:, 1] * f[:, 1]
    values = np.stack([
        (-1e-8 * scale * level + 2e-4 * f[:, 0]).reshape(grid.shape) for scale in (1.0, 0.6, 0.2)
    ])
    surface = ValueSurface(grid, fm, np.array(GOLDEN_TIMES), values, GOLDEN_TIMES[-1], 0.025, 2)
    return market, surface


def golden_quotes(market, surface, t):
    q, asset, side, size = (np.array(col) for col in zip(*GOLDEN_ROWS))
    delta, reason, reservation = surface_quotes(
        surface, market, t, q, asset, side, size, None, None
    )
    return tuple(
        (None, int(r), None) if r else (float(d), 0, float(p))
        for d, r, p in zip(delta, reason, reservation)
    )


class TestGoldenBits:
    @pytest.fixture(scope="class")
    def golden(self):
        return golden_surface()

    def test_rows_at_time_zero(self, golden):
        assert golden_quotes(*golden, 0.0) == GOLDEN_AT_ZERO

    def test_rows_with_one_time_per_row(self, golden):
        times = np.linspace(0.0, GOLDEN_TIMES[-1], len(GOLDEN_ROWS))
        assert golden_quotes(*golden, times) == GOLDEN_PER_ROW_T

    def test_slack_rows_cross_the_edge(self, golden):
        # by half a BOX_TOL, half a BOX_TOL, then two
        _, surface = golden
        a = GOLDEN_HALF_WIDTHS[0]
        for (q, asset, side, size), past in zip(GOLDEN_ROWS[-3:], (0.5, 0.5, 2.0)):
            sign = 1.0 - 2.0 * side
            f1 = surface.factor_model.factor_coordinates(np.array(q))[0]
            f1 += sign * size * GOLDEN_LOADINGS[asset][0]
            assert abs(f1) - a == pytest.approx(past * BOX_TOL * a, rel=1e-3)

    def test_value_many_and_contains_agree_at_the_edges(self, golden):
        _, surface = golden
        grid = surface.grid
        pts = np.array([
            sign * scale * grid.half_widths * np.eye(2)[j]
            for j in range(2)
            for sign in (1.0, -1.0)
            for scale in (1.0 - BOX_TOL / 2, 1.0 + BOX_TOL / 2, 1.0 + 2 * BOX_TOL)
        ])
        inside = grid.contains(pts)
        assert inside.tolist() == [True, True, False] * 4
        values = surface.value_many(0.0, pts)
        np.testing.assert_array_equal(np.isnan(values), ~inside)
        # a point in the slack reads the edge node, bit for bit
        nodes = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]) * grid.half_widths
        edges = surface.value_many(0.0, nodes)
        np.testing.assert_array_equal(values[1::3], edges)
        with pytest.raises(OutOfDomainError):
            surface.value(0.0, pts[2])
