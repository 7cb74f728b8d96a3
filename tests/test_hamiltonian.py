"""Quote optimizer checks against two independent routes.

Route one: the closed form through the Wright omega function.  With
x = alpha + beta*d the first-order condition is x - exp(-x) = c, so
exp(-x) = omega(-c) and the envelope and its slope have explicit values.
Route two: brute-force grid search over quotes at 1e-6 resolution.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import wrightomega

from helpers import make_intensity, quote_kernel
from rfqmm.hamiltonian import batch_quote_kernel, solve_offset_equation
from rfqmm.model import LogisticIntensity

# frozen mpmath roots for lambda_rfq in {30, 10}, alpha 0.7, beta 30
MYOPIC_QUOTE = 0.038541882843364745
VALUE_AT_ZERO = {30.0: 0.15625648530094234, 10.0: 0.052085495100314112}
SLOPE_AT_ZERO = {30.0: -4.0541995816855373, 10.0: -1.3513998605618458}


def omega_route(p, lam, alpha, beta):
    """Closed-form unconstrained quote, envelope and slope via Wright omega.

    At the root, exp(-x) = omega(-c).  The first-order condition gives
    d* - p = (1 + exp(-x)) / beta and Lambda(d*) = lam * y / (1 + y), so the
    envelope collapses to lam * y / beta.
    """
    c = beta * np.asarray(p, dtype=float) + alpha + 1.0
    y = wrightomega(-c)
    delta = (-np.log(y) - alpha) / beta
    value = lam * y / beta
    slope = -lam * y / (1.0 + y)
    return delta, value, slope


class TestScalarSolve:
    def test_root_equation_residual(self):
        c = np.concatenate([np.linspace(-60.0, 60.0, 201), [-1e6, 1e6]])
        x = solve_offset_equation(c)
        np.testing.assert_allclose(x - np.exp(-x), c, rtol=1e-12, atol=1e-12)

    def test_same_bits_as_the_unfloored_log(self):
        # flooring y before the log changes no element the root keeps
        c = np.concatenate([np.linspace(-60.0, 60.0, 201), [-1e6, -745.0, 745.0, 1e6]])
        y = wrightomega(-c)
        with np.errstate(divide="ignore"):
            expected = np.where(c >= 0.0, c + y, -np.log(y))
        np.testing.assert_array_equal(solve_offset_equation(c), expected)

    def test_scalar_input_returns_scalar(self):
        x = solve_offset_equation(1.7)
        assert isinstance(x, float)

    def test_result_independent_of_batch_composition(self):
        # the closed form is elementwise, so an element's bits cannot depend
        # on what shares the batch
        rng = np.random.default_rng(31)
        c = rng.uniform(-30.0, 30.0, size=64)
        batch = solve_offset_equation(c)
        singles = np.array([solve_offset_equation(ci) for ci in c])
        np.testing.assert_array_equal(batch, singles)


class TestAgainstOmegaRoute:
    def test_unconstrained_quote(self):
        # with floor 1 the clamp never binds here: the lowest optimum is about -0.16
        p = np.linspace(-2.0, 2.0, 401)
        mine, _, _ = quote_kernel(make_intensity(), p)
        ref, _, _ = omega_route(p, 30.0, 0.7, 30.0)
        np.testing.assert_allclose(mine, ref, atol=1e-10)

    def test_value_and_slope_off_the_clamp(self):
        p = np.linspace(-0.9, 2.0, 301)  # unconstrained optimum stays above the floor here
        _, value, slope = batch_quote_kernel(p, 30.0, 0.7, 30.0, 1.0)
        _, ref_value, ref_slope = omega_route(p, 30.0, 0.7, 30.0)
        np.testing.assert_allclose(value, ref_value, rtol=1e-11)
        np.testing.assert_allclose(slope, ref_slope, rtol=1e-11)


class TestReferenceValues:
    @pytest.mark.parametrize("lam", [30.0, 10.0])
    def test_quote_at_zero_reservation(self, lam):
        delta, value, slope = quote_kernel(make_intensity(lam=lam), 0.0)
        assert delta == pytest.approx(MYOPIC_QUOTE, abs=1e-12)
        assert value == pytest.approx(VALUE_AT_ZERO[lam], rel=1e-12)
        assert slope == pytest.approx(SLOPE_AT_ZERO[lam], rel=1e-12)

    def test_lipschitz_bound_is_intensity_at_floor(self):
        curve = make_intensity()
        lipschitz_bound = float(curve(-1.0))
        p = np.linspace(-50.0, 50.0, 2001)
        _, _, slopes = quote_kernel(curve, p)
        assert np.all(np.abs(slopes) <= lipschitz_bound * (1 + 1e-12))


class TestEnvelopeProperties:
    def test_grid_search_envelope(self):
        # brute force at 1e-6 over [-floor, floor + 5]
        curve = make_intensity()
        rng = np.random.default_rng(42)
        ps = rng.uniform(-2.0, 2.0, size=100)
        grid = np.arange(-1.0, 6.0 + 1e-6, 1e-6)
        lam_grid = np.asarray(curve(grid))
        _, values, _ = quote_kernel(curve, ps)
        for p, val in zip(ps, values):
            brute = float(np.max(lam_grid * (grid - p)))
            assert val == pytest.approx(brute, rel=1e-8)

    def test_derivative_matches_finite_differences(self):
        curve = make_intensity()
        rng = np.random.default_rng(7)
        ps = rng.uniform(-2.0, 2.0, size=100)
        h = 1e-6
        fd = (quote_kernel(curve, ps + h)[1] - quote_kernel(curve, ps - h)[1]) / (2 * h)
        np.testing.assert_allclose(quote_kernel(curve, ps)[2], fd, rtol=1e-6)

    def test_quote_is_nondecreasing_in_reservation(self):
        p = np.linspace(-8.0, 8.0, 4001)
        d, _, _ = quote_kernel(make_intensity(), p)
        assert np.all(np.diff(d) >= -1e-12)

    def test_quote_respects_floor_exactly(self):
        # with a tight floor of 0.05 the clamp binds for p below about -0.158
        p = np.linspace(-2.0, -0.2, 101)
        d, _, _ = quote_kernel(make_intensity(), p, floor=0.05)
        assert np.all(d >= -0.05)
        assert np.min(d) == -0.05

    def test_first_order_condition_off_the_clamp(self):
        lam = make_intensity()
        p = np.linspace(-0.5, 2.0, 101)
        d, _, _ = quote_kernel(lam, p)
        s = lam(d) / lam.lambda_rfq
        slope = -lam.lambda_rfq * lam.beta * s * (1.0 - s)
        residual = slope * (d - p) + lam(d)
        assert np.max(np.abs(residual)) <= 1e-9 * float(lam.lambda_rfq)

    def test_affine_branch_below_the_clamp(self):
        curve = make_intensity()
        lam_floor = float(curve(-0.05))
        p = np.array([-2.0, -1.0, -0.5])
        _, values, slopes = quote_kernel(curve, p, floor=0.05)
        np.testing.assert_allclose(values, lam_floor * (-0.05 - p), rtol=1e-12)
        np.testing.assert_allclose(slopes, -lam_floor, rtol=1e-12)

    def test_value_positive_decreasing_convex(self):
        p = np.linspace(-3.0, 3.0, 601)
        _, h, _ = quote_kernel(make_intensity(), p)
        assert np.all(h > 0.0)
        assert np.all(np.diff(h) < 0.0)
        second = np.diff(h, 2)
        assert np.all(second >= -1e-10 * np.max(h))

    @given(
        lam=st.floats(0.5, 200.0),
        alpha=st.floats(-2.0, 3.0),
        beta=st.floats(0.5, 200.0),
        p=st.floats(-3.0, 3.0),
        floor=st.floats(0.1, 2.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_dominates_sampled_quotes(self, lam, alpha, beta, p, floor):
        curve = LogisticIntensity(lambda_rfq=lam, alpha=alpha, beta=beta)
        _, value, _ = quote_kernel(curve, p, floor)
        quotes = np.linspace(-floor, -floor + 10.0, 500)
        sampled = np.max(np.asarray(curve(quotes)) * (quotes - p))
        assert value >= sampled - 1e-9 * max(1.0, abs(sampled))
