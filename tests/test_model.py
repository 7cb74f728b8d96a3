"""Market primitive validation against high-precision references.

The gamma discretization weights below were frozen from a 40-digit mpmath
computation; the same oracle is re-run in-test at lower precision to guard
against copy errors.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REFERENCE_GAMMA, make_intensity, make_market_2asset, make_sizes
from rfqmm.errors import ValidationError
from rfqmm.model import (
    GammaSpec,
    LogisticIntensity,
    MarketSpec,
    RiskPenalty,
    SizeDistribution,
    build_covariance,
    discretize_gamma,
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


class TestLogisticIntensity:
    def test_reference_fill_probabilities(self):
        lam = make_intensity()
        # 1 / (1 + e^0.7) and 1 / (1 + e^-0.2)
        assert lam.fill_probability(0.0) == pytest.approx(0.3318122278318339, abs=1e-15)
        assert lam.fill_probability(-0.03) == pytest.approx(0.54983399731247795, abs=1e-15)
        assert lam(0.0) == pytest.approx(30.0 * 0.3318122278318339, rel=1e-14)

    def test_derivative_matches_finite_differences(self):
        lam = make_intensity()
        h = 1e-6
        for d in (-0.3, -0.03, 0.0, 0.1, 0.5):
            fd1 = (lam(d + h) - lam(d - h)) / (2 * h)
            assert lam.derivative(d) == pytest.approx(fd1, rel=1e-5)

    def test_second_derivative_matches_finite_differences(self):
        lam = make_intensity()
        h = 1e-4
        for d in (-0.05, 0.0, 0.05, 0.1):
            fd2 = (lam(d + h) - 2 * lam(d) + lam(d - h)) / h**2
            assert lam.second_derivative(d) == pytest.approx(fd2, rel=1e-3)

    def test_curvature_ratio_below_one(self):
        lam = make_intensity()
        deltas = np.linspace(-1.0, 0.5, 50)
        ratios = lam.curvature_ratio(deltas)
        assert np.all(ratios < 1.0)
        # cross-check the analytic ratio against derivative quotients
        d = 0.05
        quotient = lam(d) * lam.second_derivative(d) / lam.derivative(d) ** 2
        assert lam.curvature_ratio(d) == pytest.approx(quotient, rel=1e-12)

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
        p = curve.fill_probability(delta)
        assert 0.0 <= p <= 1.0
        assert curve.derivative(delta) <= 0.0
        # the analytic ratio rounds to 1.0 once exp(-(alpha+beta*delta))
        # underflows, so the bound is non-strict at float precision
        assert curve.curvature_ratio(delta) <= 1.0


class TestSizeDistribution:
    def test_moments(self):
        dist = make_sizes()
        mean = 0.53 * 6250 + 0.35 * 12500 + 0.10 * 18750 + 0.02 * 25000
        msq = 0.53 * 6250**2 + 0.35 * 12500**2 + 0.10 * 18750**2 + 0.02 * 25000**2
        assert dist.mean == pytest.approx(mean, rel=1e-14)
        assert dist.mean_square == pytest.approx(msq, rel=1e-14)

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

    def test_rejects_duplicate_ids(self):
        from helpers import make_asset

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


class TestHypothesisValidation:
    def test_reference_market_passes(self, market_2asset):
        report = validate_hypotheses(market_2asset)
        assert report.passed
        assert report.failures() == []
        for check in report.checks:
            assert check.max_curvature_ratio < 1.0 + 1e-6
            assert check.max_slope < 0.0
            assert check.tail_mass <= 1e-12

    def test_probes_cover_both_sides(self, market_2asset):
        report = validate_hypotheses(market_2asset)
        labels = {(c.asset_id, c.side) for c in report.checks}
        assert labels == {("A0", "bid"), ("A0", "ask"), ("A1", "bid"), ("A1", "ask")}

    def test_side_that_never_trades_passes_unprobed(self):
        # lambda_rfq = 0 is a flat curve: no slope, no tail mass to divide by
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = validate_hypotheses(make_market_2asset(lam=0.0))
        assert report.passed
        assert len(report.checks) == 4
        assert all(c.messages == () for c in report.checks)
