"""Quote optimizer checks against independent routes.

Route one: the closed form through scipy's Wright omega function.  With
x = alpha + beta*d the first-order condition is x - exp(-x) = c, so
exp(-x) = omega(-c) and the envelope and its slope have explicit values.
Route two: brute-force grid search over quotes at 1e-6 resolution.
Route three: mpmath's Lambert W, omega(z) = W(exp(z)), for the sweep's own
numpy omega.  The envelope theorem, H'(p) = -Lambda(d*(p)), ties the sweep's
kernel to the quoting rule's offset.
"""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import wrightomega

from helpers import make_intensity
from rfqmm.hamiltonian import (
    batch_quote_kernel,
    quote_offset,
    solve_offset_equation,
    wright_omega,
)
from rfqmm.model import LogisticIntensity, fill_intensity

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
        mine = quote_offset(p, 0.7, 30.0, 1.0)
        ref, _, _ = omega_route(p, 30.0, 0.7, 30.0)
        np.testing.assert_allclose(mine, ref, atol=1e-10)

    def test_value_and_slope_off_the_clamp(self):
        p = np.linspace(-0.9, 2.0, 301)  # unconstrained optimum stays above the floor here
        value, slope = batch_quote_kernel(p, 30.0, 0.7, 30.0, 1.0)
        _, ref_value, ref_slope = omega_route(p, 30.0, 0.7, 30.0)
        np.testing.assert_allclose(value, ref_value, rtol=1e-11)
        np.testing.assert_allclose(slope, ref_slope, rtol=1e-11)


class TestReferenceValues:
    @pytest.mark.parametrize("lam", [30.0, 10.0])
    def test_quote_at_zero_reservation(self, lam):
        delta = quote_offset(0.0, 0.7, 30.0, 1.0)
        value, slope = batch_quote_kernel(0.0, lam, 0.7, 30.0, 1.0)
        assert delta == pytest.approx(MYOPIC_QUOTE, abs=1e-12)
        assert value == pytest.approx(VALUE_AT_ZERO[lam], rel=1e-12)
        assert slope == pytest.approx(SLOPE_AT_ZERO[lam], rel=1e-12)

    def test_lipschitz_bound_is_intensity_at_floor(self):
        curve = make_intensity()
        lipschitz_bound = float(curve(-1.0))
        p = np.linspace(-50.0, 50.0, 2001)
        _, slopes = batch_quote_kernel(p, curve.lambda_rfq, curve.alpha, curve.beta, 1.0)
        assert np.all(np.abs(slopes) <= lipschitz_bound * (1 + 1e-12))


class TestEnvelopeProperties:
    def test_grid_search_envelope(self):
        # brute force at 1e-6 over [-floor, floor + 5]
        curve = make_intensity()
        rng = np.random.default_rng(42)
        ps = rng.uniform(-2.0, 2.0, size=100)
        grid = np.arange(-1.0, 6.0 + 1e-6, 1e-6)
        lam_grid = np.asarray(curve(grid))
        values, _ = batch_quote_kernel(ps, curve.lambda_rfq, curve.alpha, curve.beta, 1.0)
        for p, val in zip(ps, values):
            brute = float(np.max(lam_grid * (grid - p)))
            assert val == pytest.approx(brute, rel=1e-8)

    def test_derivative_matches_finite_differences(self):
        curve = make_intensity()
        rng = np.random.default_rng(7)
        ps = rng.uniform(-2.0, 2.0, size=100)
        h = 1e-6
        args = curve.lambda_rfq, curve.alpha, curve.beta, 1.0
        up, down = batch_quote_kernel(ps + h, *args)[0], batch_quote_kernel(ps - h, *args)[0]
        fd = (up - down) / (2 * h)
        np.testing.assert_allclose(batch_quote_kernel(ps, *args)[1], fd, rtol=1e-6)

    def test_quote_is_nondecreasing_in_reservation(self):
        p = np.linspace(-8.0, 8.0, 4001)
        d = quote_offset(p, 0.7, 30.0, 1.0)
        assert np.all(np.diff(d) >= -1e-12)

    def test_quote_respects_floor_exactly(self):
        # with a tight floor of 0.05 the clamp binds for p below about -0.158
        p = np.linspace(-2.0, -0.2, 101)
        d = quote_offset(p, 0.7, 30.0, 0.05)
        assert np.all(d >= -0.05)
        assert np.min(d) == -0.05

    def test_first_order_condition_off_the_clamp(self):
        lam = make_intensity()
        p = np.linspace(-0.5, 2.0, 101)
        d = quote_offset(p, lam.alpha, lam.beta, 1.0)
        s = lam(d) / lam.lambda_rfq
        slope = -lam.lambda_rfq * lam.beta * s * (1.0 - s)
        residual = slope * (d - p) + lam(d)
        assert np.max(np.abs(residual)) <= 1e-9 * float(lam.lambda_rfq)

    def test_affine_branch_below_the_clamp(self):
        curve = make_intensity()
        lam_floor = float(curve(-0.05))
        p = np.array([-2.0, -1.0, -0.5])
        values, slopes = batch_quote_kernel(p, curve.lambda_rfq, curve.alpha, curve.beta, 0.05)
        np.testing.assert_allclose(values, lam_floor * (-0.05 - p), rtol=1e-12)
        np.testing.assert_allclose(slopes, -lam_floor, rtol=1e-12)

        # one curve per row, as in the sweep, across the clamp at floor 0.05;
        # each element has the bits of a call on it alone
        rng = np.random.default_rng(3)
        lam, alpha = rng.uniform(5.0, 50.0, (6, 1)), rng.uniform(-1.0, 1.0, (6, 1))
        beta, floor = rng.uniform(10.0, 60.0, (6, 1)), 0.05
        p = rng.uniform(-1.0, 1.0, (6, 40))
        # -c below -50, -c above 1e20 (clamped), NaN
        p[0, :3] = [1e6, -1e25, np.nan]
        x_f = alpha - beta * floor
        clamped = beta * p + alpha + 1.0 < x_f - np.exp(-x_f)
        assert clamped.any() and (~clamped & ~np.isnan(p)).any()
        values, slopes = batch_quote_kernel(p, lam, alpha, beta, floor)
        lam_floor = np.broadcast_to(fill_intensity(lam, x_f), p.shape)[clamped]
        np.testing.assert_allclose(values[clamped], lam_floor * (-floor - p[clamped]), rtol=1e-12)
        np.testing.assert_array_equal(slopes[clamped], -lam_floor)
        for i, j in np.ndindex(p.shape):
            one = batch_quote_kernel(p[i, j], lam[i, 0], alpha[i, 0], beta[i, 0], floor)
            want = [values[i, j], slopes[i, j]]
            np.testing.assert_array_equal(bits(np.array(one)), bits(np.array(want)))
        assert np.isnan(values[0, 2]) and np.isfinite(np.delete(values.ravel(), 2)).all()

    def test_value_positive_decreasing_convex(self):
        p = np.linspace(-3.0, 3.0, 601)
        h, _ = batch_quote_kernel(p, 30.0, 0.7, 30.0, 1.0)
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
        value, _ = batch_quote_kernel(p, lam, alpha, beta, floor)
        quotes = np.linspace(-floor, -floor + 10.0, 500)
        sampled = np.max(np.asarray(curve(quotes)) * (quotes - p))
        assert value >= sampled - 1e-9 * max(1.0, abs(sampled))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


class TestWrightOmega:
    def test_against_mpmath(self):
        # omega(z) = W(exp(z)); the largest error, near z = -33 for both
        # routes, is the cancellation in z - log(omega) the iteration forms
        z = np.linspace(-60.0, 60.0, 2401)
        with mpmath.workprec(80):
            want = np.array([float(mpmath.lambertw(mpmath.exp(mpmath.mpf(v)))) for v in z])
        mine, scipys = ulps(wright_omega(z), want), ulps(wrightomega(z), want)
        assert mine.max() <= scipys.max()
        # the range the sweep reads: -c from -3.2 to -0.2 on the bundled markets
        sweep = (z >= -3.5) & (z <= 0.9)
        assert mine[sweep].max() <= 4

    def test_extremes_are_finite_and_warning_free(self):
        z = np.array([
            -1e6, 1e6, -745.0, 745.0, -50.0, np.nextafter(-50.0, -np.inf),
            np.nextafter(-50.0, 0.0), 1e20, np.nextafter(1e20, 0.0),
            np.nextafter(1e20, np.inf), 1.0, np.nextafter(1.0, 0.0), -1e300, 1e300,
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = wright_omega(z)
            singles = np.array([wright_omega(v) for v in z])
        assert np.isfinite(w).all()
        np.testing.assert_array_equal(w, singles)
        # two ulp
        np.testing.assert_allclose(w, wrightomega(z), rtol=4.5e-16, atol=0.0)

    def test_infinities_and_nan_as_scipy(self):
        z = np.array([np.inf, -np.inf, np.nan])
        np.testing.assert_array_equal(wright_omega(z), wrightomega(z))

    def test_shape_and_scalar(self):
        assert wright_omega(np.zeros((2, 3))).shape == (2, 3)
        assert wright_omega(0.0) == pytest.approx(0.5671432904097838, rel=1e-15)
        # each element of a block has the bits of a call on it alone
        z = np.concatenate([
            np.linspace(-60.0, 60.0, 241),  # below -50 and both starting guesses
            [-1e6, 1e20, np.nextafter(1e20, np.inf), 1e300, np.inf, -np.inf, np.nan],
        ]).reshape(31, 8)
        got = wright_omega(z)
        assert got.shape == z.shape
        singles = np.array([wright_omega(v) for v in z.ravel()]).reshape(z.shape)
        np.testing.assert_array_equal(bits(got), bits(singles))


class TestEnvelopeTheorem:
    """H'(p) = -Lambda(d*(p)): the sweep's omega against the quotes' omega."""

    @pytest.mark.parametrize(
        "floor, p",
        [
            (1.0, np.linspace(-2.0, 2.0, 401)),  # off the clamp
            (0.05, np.linspace(-2.0, -0.2, 181)),  # on the clamp
            (0.05, np.linspace(-0.15, 2.0, 216)),  # off it, near the clamp point
        ],
    )
    def test_slope_and_difference_match_the_offset(self, floor, p):
        lam, alpha, beta = 30.0, 0.7, 30.0
        want = -fill_intensity(lam, alpha + beta * quote_offset(p, alpha, beta, floor))
        value, slope = batch_quote_kernel(p, lam, alpha, beta, floor)
        # x = alpha + beta*d carries an absolute rounding of ulp(|c|) <= 1.4e-14
        # here, which Lambda turns into the same relative error
        np.testing.assert_allclose(slope, want, rtol=1e-13)
        h = 1e-6
        fd = (
            batch_quote_kernel(p + h, lam, alpha, beta, floor)[0]
            - batch_quote_kernel(p - h, lam, alpha, beta, floor)[0]
        ) / (2 * h)
        np.testing.assert_allclose(fd, want, rtol=1e-8)

    def test_value_is_continuous_at_the_clamp_point(self):
        # x_f = alpha - beta*floor; the clamp starts at c_f = x_f - exp(-x_f)
        lam, alpha, beta, floor = 30.0, 0.7, 30.0, 0.05
        x_f = alpha - beta * floor
        p_f = (x_f - np.exp(-x_f) - alpha - 1.0) / beta
        p = p_f + np.array([-1e-9, 0.0, 1e-9])
        value, slope = batch_quote_kernel(p, lam, alpha, beta, floor)
        lam_f = fill_intensity(lam, x_f)
        # just off the clamp the value leaves the affine branch at second
        # order in the gap, the slope at first
        np.testing.assert_allclose(value, lam_f * (-floor - p), rtol=1e-12)
        np.testing.assert_allclose(slope, -lam_f, rtol=1e-8)
