"""Market primitive validation against high-precision references.

The gamma discretization weights below were frozen from a 40-digit mpmath
computation; the same oracle is re-run in-test at lower precision to guard
against copy errors.
"""

import math
import warnings
from importlib import resources

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REFERENCE_GAMMA, make_asset, make_intensity, make_market_2asset
from rfqmm.config_io import load_config
from rfqmm.errors import ValidationError
from rfqmm.model import (
    SIDES,
    GammaSpec,
    LogisticIntensity,
    MarketSpec,
    RiskPenalty,
    SizeDistribution,
    build_covariance,
    discretize_gamma,
    fill_intensity,
    validate_hypotheses,
)

# frozen mpmath values (shape 4, rate 4e-4, four atoms, 3-sigma cap)
MIDPOINT_WEIGHTS = (
    0.51623261844631264,
    0.35351702682576101,
    0.10494647453320565,
    0.025303880194720706,
)
PDF_WEIGHTS = (
    0.53361737212421103,
    0.35041585005203483,
    0.097078110421433418,
    0.018888667402320729,
)


class TestGammaDiscretization:
    def test_moments(self):
        spec = REFERENCE_GAMMA
        assert spec.mean == pytest.approx(10000.0, abs=1e-9)
        assert spec.stdev == pytest.approx(5000.0, abs=1e-9)

    def test_atom_grid(self):
        dist = discretize_gamma(REFERENCE_GAMMA, n_atoms=4, z_max_sigmas=3.0)
        assert dist.sizes == (6250.0, 12500.0, 18750.0, 25000.0)

    def test_midpoint_cdf_weights_match_incomplete_gamma(self):
        dist = discretize_gamma(REFERENCE_GAMMA, n_atoms=4, rule="midpoint_cdf")
        # independent oracle: regularized incomplete gamma at midpoints
        mpmath.mp.dps = 30
        shape, rate = mpmath.mpf(4), mpmath.mpf("4e-4")
        edges = [mpmath.mpf(0), 9375, 15625, 21875]
        cdf = [mpmath.gammainc(shape, 0, rate * e, regularized=True) for e in edges] + [mpmath.mpf(1)]
        masses = [float(cdf[i + 1] - cdf[i]) for i in range(4)]
        for p, oracle, frozen in zip(dist.probabilities, masses, MIDPOINT_WEIGHTS):
            assert p == pytest.approx(oracle, abs=1e-12)
            assert p == pytest.approx(frozen, abs=1e-12)

    def test_pdf_rule_reproduces_reference_probabilities(self):
        dist = discretize_gamma(REFERENCE_GAMMA, n_atoms=4, rule="pdf_weights")
        assert tuple(round(p, 2) for p in dist.probabilities) == (0.53, 0.35, 0.10, 0.02)
        for p, frozen in zip(dist.probabilities, PDF_WEIGHTS):
            assert p == pytest.approx(frozen, abs=1e-12)

    def test_single_atom_sits_at_mean(self):
        dist = discretize_gamma(REFERENCE_GAMMA, n_atoms=1)
        assert dist.sizes == (10000.0,)
        assert dist.probabilities == (1.0,)

    def test_explicit_cap_overrides_sigma_rule(self):
        dist = discretize_gamma(REFERENCE_GAMMA, n_atoms=2, z_max=20000.0)
        assert dist.sizes == (10000.0, 20000.0)

    def test_weights_renormalized(self):
        for rule in ("midpoint_cdf", "pdf_weights"):
            dist = discretize_gamma(REFERENCE_GAMMA, n_atoms=7, rule=rule)
            assert math.fsum(dist.probabilities) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            discretize_gamma(REFERENCE_GAMMA, n_atoms=0)
        with pytest.raises(ValidationError):
            GammaSpec(shape=-1.0, rate=2.0)
        with pytest.raises(ValidationError):
            discretize_gamma(REFERENCE_GAMMA, n_atoms=3, rule="nearest")
        # one atom needs no rule, but a wrong one is still refused
        with pytest.raises(ValidationError, match="nearest"):
            discretize_gamma(REFERENCE_GAMMA, n_atoms=1, rule="nearest")


class TestLogisticIntensity:
    def test_reference_fill_probabilities(self):
        lam = make_intensity()
        # 1 / (1 + e^0.7) and 1 / (1 + e^-0.2)
        for d, p in ((0.0, 0.3318122278318339), (-0.03, 0.54983399731247795)):
            assert fill_intensity(1.0, lam.alpha + lam.beta * d) == pytest.approx(p, abs=1e-15)
            assert lam(d) == pytest.approx(30.0 * p, rel=1e-14)

    def test_derivative_matches_finite_differences(self):
        # the closed-form slope -lambda beta s (1 - s), s the fill probability,
        # that the quote optimizer's first-order condition rests on
        lam = make_intensity()
        h = 1e-6
        for d in (-0.3, -0.03, 0.0, 0.1, 0.5):
            fd1 = (lam(d + h) - lam(d - h)) / (2 * h)
            s = lam(d) / lam.lambda_rfq
            assert -lam.lambda_rfq * lam.beta * s * (1.0 - s) == pytest.approx(fd1, rel=1e-5)

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValidationError):
            LogisticIntensity(lambda_rfq=-1.0, alpha=0.7, beta=30.0)
        with pytest.raises(ValidationError):
            LogisticIntensity(lambda_rfq=30.0, alpha=0.7, beta=-1.0)
        with pytest.raises(ValidationError):
            LogisticIntensity(lambda_rfq=float("nan"), alpha=0.7, beta=30.0)
        # a silent desk is a legitimate limiting case
        assert LogisticIntensity(lambda_rfq=0.0, alpha=0.7, beta=30.0)(0.1) == 0.0

    @given(
        lam=st.floats(1e-3, 1e3),
        alpha=st.floats(-5.0, 5.0),
        beta=st.floats(1e-2, 1e3),
        delta=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_shape_conditions_hold_for_any_logistic(self, lam, alpha, beta, delta):
        curve = LogisticIntensity(lambda_rfq=lam, alpha=alpha, beta=beta)
        assert 0.0 <= curve(delta) <= lam
        # non-strict: the curve saturates to its bounds at float precision
        assert curve(delta + 1e-3) <= curve(delta)


class TestSizeDistribution:
    def test_rejects_bad_atoms(self):
        with pytest.raises(ValidationError):
            SizeDistribution(sizes=(2.0, 1.0), probabilities=(0.5, 0.5))
        with pytest.raises(ValidationError):
            SizeDistribution(sizes=(-1.0, 1.0), probabilities=(0.5, 0.5))
        with pytest.raises(ValidationError):
            SizeDistribution(sizes=(1.0, 2.0), probabilities=(0.6, 0.5))
        with pytest.raises(ValidationError):
            SizeDistribution(sizes=(), probabilities=())
        with pytest.raises(ValidationError):
            SizeDistribution(sizes=(1.0,), probabilities=(-1.0,))


class TestRiskPenalty:
    def test_quadratic_values(self):
        pen = RiskPenalty(running_form="quadratic", gamma=8e-7, terminal_form="quadratic", zeta=2e-6)
        assert pen.running(1e10) == pytest.approx(4000.0)
        assert pen.running_derivative(123.0) == pytest.approx(4e-7)
        assert pen.terminal(1e10) == pytest.approx(10000.0)
        assert pen.is_smooth

    def test_sqrt_values(self):
        pen = RiskPenalty(running_form="sqrt", gamma=2.0, terminal_form="sqrt", zeta=3.0)
        assert pen.running(4.0) == pytest.approx(4.0)
        assert pen.running_derivative(4.0) == pytest.approx(0.5)
        assert pen.terminal(9.0) == pytest.approx(9.0)
        assert not pen.is_smooth

    def test_zero_weight_sqrt_has_zero_derivative(self):
        # a zero weight is smooth, so its derivative at zero risk is 0, not 0/0
        pen = RiskPenalty(running_form="sqrt", gamma=0.0, terminal_form="sqrt", zeta=0.0)
        assert pen.is_smooth
        y = np.array([0.0, 4.0])
        np.testing.assert_array_equal(pen.running_derivative(y), [0.0, 0.0])
        np.testing.assert_array_equal(pen.terminal_derivative(y), [0.0, 0.0])
        np.testing.assert_array_equal(pen.running(y), [0.0, 0.0])

    def test_zero_terminal(self):
        pen = RiskPenalty()
        assert pen.terminal(5.0) == 0.0
        assert pen.terminal_derivative(5.0) == 0.0

    def test_rejects_negative_weights(self):
        with pytest.raises(ValidationError):
            RiskPenalty(gamma=-1.0)
        with pytest.raises(ValidationError):
            RiskPenalty(running_form="cubic")


class TestCovariance:
    def test_two_asset_reference(self):
        cov = build_covariance([1.2, 0.6], np.array([[1.0, 0.9], [0.9, 1.0]]))
        expected = np.array([[1.44, 0.648], [0.648, 0.36]])
        np.testing.assert_allclose(cov, expected, rtol=0, atol=1e-15)
        np.linalg.cholesky(cov)

    def test_rejects_out_of_range_correlation(self):
        with pytest.raises(ValidationError, match=r"\[-1, 1\]"):
            build_covariance([1.0, 1.0], np.array([[1.0, 1.5], [1.5, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match="symmetric"):
            build_covariance([1.0, 1.0], np.array([[1.0, 0.2], [0.3, 1.0]]))

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValidationError, match="diagonal"):
            build_covariance([1.0, 1.0], np.array([[0.9, 0.2], [0.2, 1.0]]))

    def test_rejects_indefinite_and_names_eigenvalue(self):
        rho = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(ValidationError, match="eigenvalue"):
            build_covariance([1.0, 1.0, 1.0], rho)

    def test_result_is_read_only(self):
        cov = build_covariance([1.0], np.array([[1.0]]))
        with pytest.raises(ValueError):
            cov[0, 0] = 2.0


class TestMarketSpec:
    def test_covariance_derived(self, market_2asset):
        np.testing.assert_allclose(
            market_2asset.covariance, np.array([[1.44, 0.648], [0.648, 0.36]]), atol=1e-15
        )
        assert market_2asset.n_assets == 2

    def test_intensity_sum_at_floor(self, market_2asset):
        lam = make_intensity()
        expected = 4 * float(lam(-1.0))
        assert market_2asset.intensity_sum_at_floor() == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("market", ["market_2asset", "market_30asset"])
    def test_risk_state(self, request, market):
        # Sigma q and q'Sigma q row by row, and a row's bits do not depend on
        # how many rows share the call
        market = request.getfixturevalue(market)
        cov = market.covariance
        rng = np.random.default_rng(5)
        q = rng.standard_normal((40, market.n_assets)) * 1e4
        sq, risk = market.risk_state(q)
        np.testing.assert_allclose(sq, q @ cov, rtol=1e-12, atol=1e-6)
        np.testing.assert_allclose(risk, np.einsum("nd,de,ne->n", q, cov, q), rtol=1e-12)
        for first in range(len(q)):
            for n in range(1, 6):
                got = market.risk_state(q[first : first + n])
                assert got[0].tobytes() == sq[first : first + n].tobytes()
                assert got[1].tobytes() == risk[first : first + n].tobytes()

    def test_post_trade_risk_is_not_negative_back_at_flat(self):
        # four correlated fills from flat back to flat: the incremental update
        # rounds to -7.45e-9 without the clamp, and the simulators take its
        # square root
        market, _ = load_config(resources.files("rfqmm.configs").joinpath("paper_30asset.yaml"))
        sq, risk = market.risk_state(np.zeros((1, market.n_assets)))
        sq, risk = sq[0], float(risk[0])
        for asset, dq in ((0, 25000.0), (15, 6250.0), (0, -25000.0), (15, -6250.0)):
            risk, admissible = market.post_trade_risk(risk, sq[asset], np.sign(dq), abs(dq), asset)
            sq = sq + dq * market.covariance[asset]
            assert risk >= 0.0 and admissible
        assert risk == 0.0

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError, match="duplicate"):
            MarketSpec(
                assets=(make_asset("X"), make_asset("X")),
                correlation=np.array([[1.0, 0.0], [0.0, 1.0]]),
                horizon=1.0,
                risk_limit=1.0,
                penalty=RiskPenalty(),
            )

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValidationError):
            make_market_2asset(horizon=-1.0)
        with pytest.raises(ValidationError):
            make_market_2asset(risk_limit=0.0)
        with pytest.raises(ValidationError):
            make_market_2asset(quote_floor=0.0)

    # NaN passed every "x <= 0" test, and inf every test but the sign: a NaN
    # horizon then failed inside solve with numpy's ValueError
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", [
        "horizon", "risk_limit", "quote_floor", "s0", "sigma", "gamma", "zeta", "shape", "rate",
    ])
    def test_rejects_non_finite_scalars(self, name, value):
        build = {
            "horizon": lambda v: make_market_2asset(horizon=v),
            "risk_limit": lambda v: make_market_2asset(risk_limit=v),
            "quote_floor": lambda v: make_market_2asset(quote_floor=v),
            "s0": lambda v: make_asset(s0=v),
            "sigma": lambda v: make_asset(sigma=v),
            "gamma": lambda v: RiskPenalty(gamma=v),
            "zeta": lambda v: RiskPenalty(zeta=v),
            "shape": lambda v: GammaSpec(shape=v, rate=4e-4),
            "rate": lambda v: GammaSpec(shape=4.0, rate=v),
        }[name]
        with pytest.raises(ValidationError, match=f"{name} must be .* and finite, got {value}"):
            build(value)


def bundled_curves():
    """Every distinct (intensity curve, quote floor) of the bundled configs."""
    curves = set()
    for name in ("paper_2asset.yaml", "paper_30asset.yaml"):
        market, _ = load_config(resources.files("rfqmm.configs").joinpath(name))
        curves |= {(a.intensity(side), market.quote_floor) for a in market.assets for side in SIDES}
    return sorted(curves, key=repr)


def finite_difference_shape(lam, floor):
    """Slope and curvature ratio Lambda * Lambda'' / Lambda'^2 by central differences.

    The oracle probes 100 quotes where the curve is active,
    |alpha + beta * delta| <= 8 (clipped at the quote floor): outside that
    window the curve saturates and its second differences are rounding noise.
    """
    h = 1e-4 / lam.beta
    lo = max(-floor, (-8.0 - lam.alpha) / lam.beta)
    deltas = np.linspace(lo, (8.0 - lam.alpha) / lam.beta, 100)
    up, dn, mid = lam(deltas + h), lam(deltas - h), lam(deltas)
    slope = (up - dn) / (2.0 * h)
    ratio = mid * (up - 2.0 * mid + dn) / (h * h) / slope**2
    return deltas, slope, ratio


class TestHypothesisValidation:
    @pytest.mark.parametrize(
        "lam, floor", bundled_curves(),
        ids=lambda c: f"lam{c.lambda_rfq:g}-alpha{c.alpha:g}-beta{c.beta:g}"
        if isinstance(c, LogisticIntensity) else f"floor{c:g}",
    )
    def test_closed_form_matches_finite_differences(self, lam, floor):
        deltas, slope, ratio = finite_difference_shape(lam, floor)
        s = fill_intensity(1.0, lam.alpha + lam.beta * deltas)
        closed_slope = -lam.lambda_rfq * lam.beta * s * (1.0 - s)
        closed_ratio = (1.0 - 2.0 * s) / (1.0 - s)
        assert (closed_slope < 0.0).all()
        assert (closed_ratio < 1.0).all()
        np.testing.assert_allclose(slope, closed_slope, rtol=1e-7)
        np.testing.assert_allclose(ratio, closed_ratio, rtol=1e-3, atol=1e-4)

    def test_reference_market_passes(self, market_2asset):
        report = validate_hypotheses(market_2asset)
        assert report.passed
        assert report.failures() == []

    def test_side_that_never_trades_passes_unprobed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = validate_hypotheses(make_market_2asset(lam=0.0))
        assert report.passed
        assert report.failures() == []

    # finite differences misjudge these curves: at alpha = 400 Lambda'^2
    # underflows (a NaN ratio), at alpha = 800 the curve is constant in
    # floating point (a zero slope); such a side never fills, like a
    # lambda_rfq = 0 side, and passes like it
    @pytest.mark.parametrize("lam, alpha", [(30.0, 400.0), (30.0, 800.0), (1e-300, 0.7)],
                             ids=["alpha-400", "alpha-800", "lambda-1e-300"])
    def test_extreme_curves_pass_without_warning(self, lam, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_hypotheses(make_market_2asset(lam=lam, alpha=alpha))
        assert report.passed
        assert report.failures() == []
