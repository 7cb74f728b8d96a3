"""Eigendecomposition and factor model checks.

numpy.linalg.eigh serves as the independent oracle for the in-house Jacobi
iteration; reference spectra below were frozen from a 40-digit computation.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import block_correlation, make_market_2asset, make_market_30asset
from rfqmm.errors import ValidationError
from rfqmm.factors import (
    FactorModel,
    build_factor_model,
    inventory_factor_model,
    jacobi_eigendecomposition,
)

# frozen reference spectra
TWO_ASSET_EIGVALS = (1.743506965, 0.0564930350021)
TWO_ASSET_TOP_VEC = (0.905589421224, 0.42415539625)
THIRTY_ASSET_TOP = (19.8950595034, 4.58494049664)
THIRTY_ASSET_BULK = (0.144, 0.036)


def random_symmetric(rng, d, psd=True):
    a = rng.standard_normal((d, d))
    if psd:
        return a @ a.T / d
    return 0.5 * (a + a.T)


class TestJacobiAgainstNumpy:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 30])
    @pytest.mark.parametrize("psd", [True, False])
    def test_matches_eigh(self, d, psd):
        rng = np.random.default_rng(100 + d)
        mat = random_symmetric(rng, d, psd=psd)
        scale = np.linalg.norm(mat)
        mine = jacobi_eigendecomposition(mat)
        oracle = np.linalg.eigh(mat)[0][::-1]
        np.testing.assert_allclose(mine.eigenvalues, oracle, atol=1e-12 * max(scale, 1.0))

    @pytest.mark.parametrize("d", [2, 6, 30])
    def test_eigenpair_residuals(self, d):
        rng = np.random.default_rng(d)
        mat = random_symmetric(rng, d)
        scale = np.linalg.norm(mat)
        dec = jacobi_eigendecomposition(mat)
        for j in range(d):
            residual = mat @ dec.eigenvectors[:, j] - dec.eigenvalues[j] * dec.eigenvectors[:, j]
            assert np.linalg.norm(residual) <= 1e-9 * scale

    @pytest.mark.parametrize("d", [2, 6, 30])
    def test_orthonormal_columns(self, d):
        rng = np.random.default_rng(2 * d + 1)
        dec = jacobi_eigendecomposition(random_symmetric(rng, d))
        gram = dec.eigenvectors.T @ dec.eigenvectors
        np.testing.assert_allclose(gram, np.eye(d), atol=1e-10)

    def test_sign_convention(self):
        dec = jacobi_eigendecomposition(np.diag([1.0, 2.0]))
        # eigenvector of the top eigenvalue is e_2; its first component is
        # below the threshold, so the second one must be positive
        np.testing.assert_allclose(dec.eigenvectors[:, 0], [0.0, 1.0], atol=1e-14)
        rng = np.random.default_rng(5)
        dec = jacobi_eigendecomposition(random_symmetric(rng, 7))
        for j in range(7):
            col = dec.eigenvectors[:, j]
            lead = col[np.abs(col) > 1e-12][0]
            assert lead > 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError, match="square"):
            jacobi_eigendecomposition(np.ones((2, 3)))
        with pytest.raises(ValidationError, match="symmetric"):
            jacobi_eigendecomposition(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_zero_matrix(self):
        dec = jacobi_eigendecomposition(np.zeros((3, 3)))
        np.testing.assert_array_equal(dec.eigenvalues, np.zeros(3))

    @given(seed=st.integers(0, 10_000), d=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_property(self, seed, d):
        rng = np.random.default_rng(seed)
        mat = random_symmetric(rng, d, psd=bool(seed % 2))
        dec = jacobi_eigendecomposition(mat)
        rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        np.testing.assert_allclose(rebuilt, mat, atol=1e-10 * max(1.0, np.linalg.norm(mat)))


class TestReferenceSpectra:
    def test_two_asset(self, market_2asset):
        dec = jacobi_eigendecomposition(market_2asset.covariance)
        np.testing.assert_allclose(dec.eigenvalues, TWO_ASSET_EIGVALS, atol=1e-9)
        np.testing.assert_allclose(dec.eigenvectors[:, 0], TWO_ASSET_TOP_VEC, atol=1e-9)

    def test_thirty_asset(self, market_30asset):
        t0 = time.perf_counter()
        dec = jacobi_eigendecomposition(market_30asset.covariance)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        np.testing.assert_allclose(dec.eigenvalues[:2], THIRTY_ASSET_TOP, atol=1e-9)
        # remaining 28 eigenvalues are the within-block residual variances
        assert np.all(dec.eigenvalues[2:] < 0.15)
        np.testing.assert_allclose(dec.eigenvalues[2:16], THIRTY_ASSET_BULK[0], atol=1e-9)
        np.testing.assert_allclose(dec.eigenvalues[16:], THIRTY_ASSET_BULK[1], atol=1e-9)

    def test_thirty_asset_vector_structure(self, market_30asset):
        dec = jacobi_eigendecomposition(market_30asset.covariance)
        top = dec.eigenvectors[:, 0]
        second = dec.eigenvectors[:, 1]
        # top factor loads positively on every asset, more on the volatile block
        assert np.all(top > 0.0)
        np.testing.assert_allclose(top[:15], 0.25556248, atol=1e-6)
        np.testing.assert_allclose(top[15:], 0.036803305, atol=1e-6)
        # second factor splits the blocks by sign
        assert np.all(second[:15] > 0.0)
        assert np.all(second[15:] < 0.0)


class TestFactorModel:
    def test_full_rank_residual_vanishes(self, market_2asset):
        fm = build_factor_model(market_2asset.covariance, 2)
        scale = np.linalg.norm(market_2asset.covariance)
        assert fm.residual_norm <= 1e-9 * scale
        rebuilt = fm.loadings @ fm.factor_cov @ fm.loadings.T + fm.residual_cov
        np.testing.assert_allclose(rebuilt, market_2asset.covariance, atol=1e-9 * scale)

    def test_one_factor_residual(self, market_2asset):
        fm = build_factor_model(market_2asset.covariance, 1)
        assert fm.n_factors == 1
        cov = market_2asset.covariance
        scale = np.linalg.norm(cov)
        rebuilt = fm.loadings @ fm.factor_cov @ fm.loadings.T + fm.residual_cov
        np.testing.assert_allclose(rebuilt, cov, atol=1e-9 * scale)
        # residual annihilates the retained eigenvector
        v = fm.loadings[:, 0]
        assert abs(v @ fm.residual_cov @ v) <= 1e-8 * fm.eigenvalues[0]
        # residual eigenvalues stay nonnegative up to round-off
        res_eigs = np.linalg.eigvalsh(fm.residual_cov)
        assert res_eigs[0] >= -1e-8 * np.trace(cov)

    def test_shift_directions_are_loading_rows(self, market_30asset):
        fm = build_factor_model(market_30asset.covariance, 2)
        for i in range(fm.n_assets):
            e_i = np.zeros(fm.n_assets)
            e_i[i] = 1.0
            np.testing.assert_array_equal(fm.shift_directions[i], fm.loadings.T @ e_i)

    def test_factor_coordinates(self, market_2asset):
        fm = build_factor_model(market_2asset.covariance, 2)
        q = np.array([1000.0, -500.0])
        np.testing.assert_allclose(fm.factor_coordinates(q), q @ fm.loadings)
        batch = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]])
        assert fm.factor_coordinates(batch).shape == (3, 2)

    def test_rejects_bad_rank(self, market_2asset):
        with pytest.raises(ValidationError):
            build_factor_model(market_2asset.covariance, 0)
        with pytest.raises(ValidationError):
            build_factor_model(market_2asset.covariance, 3)

    def test_inventory_model(self, market_2asset):
        fm = inventory_factor_model(market_2asset.covariance)
        np.testing.assert_array_equal(fm.loadings, np.eye(2))
        np.testing.assert_array_equal(fm.factor_cov, market_2asset.covariance)
        assert fm.residual_norm == 0.0

    def test_explained_ratio_thirty(self, market_30asset):
        fm = build_factor_model(market_30asset.covariance, 2)
        assert fm.explained_ratio == pytest.approx(0.9066666666667, abs=1e-9)


def test_block_correlation_helper():
    rho = block_correlation(sizes=(2, 2), within=(0.9, 0.8), across=0.1)
    expected = np.array(
        [
            [1.0, 0.9, 0.1, 0.1],
            [0.9, 1.0, 0.1, 0.1],
            [0.1, 0.1, 1.0, 0.8],
            [0.1, 0.1, 0.8, 1.0],
        ]
    )
    np.testing.assert_array_equal(rho, expected)
