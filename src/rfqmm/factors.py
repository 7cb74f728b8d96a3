"""Eigendecomposition of the covariance and low-rank factor models.

The decomposition is LAPACK's symmetric eigensolver (``numpy.linalg.eigh``),
reordered to descending eigenvalues, with a deterministic sign per
eigenvector.

A factor model keeps the top k eigenpairs: loadings are the eigenvectors,
the factor covariance is the diagonal of retained eigenvalues, and whatever
the factors miss is the residual covariance R = Sigma - loadings V loadings'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

#: components smaller than this are ignored by the sign convention
SIGN_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues in descending order with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _apply_sign_convention(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the first component above SIGN_EPS is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        big = np.abs(col) > SIGN_EPS
        if big.any() and col[np.argmax(big)] < 0.0:
            out[:, j] = -col
    return out


def jacobi_eigendecomposition(matrix: np.ndarray) -> EigenDecomposition:
    """Full symmetric eigendecomposition, eigenvalues in descending order.

    Computed by ``numpy.linalg.eigh``; the function keeps its original name
    for existing callers.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
        raise ValidationError("matrix is not symmetric")
    eigenvalues, vectors = np.linalg.eigh(a)
    eigenvalues = eigenvalues[::-1].copy()
    vectors = _apply_sign_convention(vectors[:, ::-1])
    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=vectors)


@dataclass(frozen=True, eq=False)
class FactorModel:
    """Rank-k factor representation Sigma ~ loadings V loadings' + R.

    ``loadings`` is d x k with orthonormal columns, ``factor_cov`` is the
    k x k factor covariance and ``residual_cov`` is what the factors miss.
    ``shift_directions`` row i is the image of the i-th inventory unit vector
    in factor space: the factor displacement caused by trading one unit of
    asset i.
    """

    covariance: np.ndarray
    loadings: np.ndarray
    factor_cov: np.ndarray
    residual_cov: np.ndarray
    eigenvalues: np.ndarray  # full spectrum, descending

    @property
    def n_assets(self) -> int:
        return self.loadings.shape[0]

    @property
    def n_factors(self) -> int:
        return self.loadings.shape[1]

    @property
    def shift_directions(self) -> np.ndarray:
        """d x k array; row i equals loadings' applied to unit vector e_i."""
        return self.loadings

    @property
    def explained_ratio(self) -> float:
        return float(np.trace(self.factor_cov)) / float(np.trace(self.covariance))

    @property
    def residual_norm(self) -> float:
        return float(np.linalg.norm(self.residual_cov))

    def factor_coordinates(self, inventory) -> np.ndarray:
        """Project inventories (last axis = assets) into factor space."""
        q = np.asarray(inventory, dtype=float)
        return q @ self.loadings


def build_factor_model(covariance: np.ndarray, n_factors: int) -> FactorModel:
    """Keep the top ``n_factors`` eigenpairs of ``covariance``.

    Validates the reconstruction: with all factors retained the residual is
    numerically zero, and in general the residual must stay positive
    semidefinite up to round-off.
    """
    cov = np.asarray(covariance, dtype=float)
    d = cov.shape[0]
    if not 1 <= n_factors <= d:
        raise ValidationError(f"n_factors must be in [1, {d}], got {n_factors}")
    decomp = jacobi_eigendecomposition(cov)
    loadings = decomp.eigenvectors[:, :n_factors].copy()
    factor_cov = np.diag(decomp.eigenvalues[:n_factors].copy())
    residual = cov - loadings @ factor_cov @ loadings.T
    residual = 0.5 * (residual + residual.T)

    scale = float(np.linalg.norm(cov))
    if n_factors == d:
        if float(np.linalg.norm(residual)) > 1e-9 * scale:
            raise ValidationError(
                "full-rank factor model should have a vanishing residual, "
                f"got Frobenius norm {np.linalg.norm(residual):.3e}"
            )
        # A full-rank model reconstructs the covariance exactly in exact
        # arithmetic, so the residual is zero by definition; snap the
        # round-off dust so that residual-free code paths can rely on it.
        residual = np.zeros_like(residual)
    res_eigs = jacobi_eigendecomposition(residual).eigenvalues
    if res_eigs[-1] < -1e-8 * float(np.trace(cov)):
        raise ValidationError(
            f"residual covariance has a negative eigenvalue {res_eigs[-1]:.3e}"
        )

    for arr in (loadings, factor_cov, residual):
        arr.setflags(write=False)
    return FactorModel(
        covariance=cov,
        loadings=loadings,
        factor_cov=factor_cov,
        residual_cov=residual,
        eigenvalues=decomp.eigenvalues,
    )


def inventory_factor_model(covariance: np.ndarray) -> FactorModel:
    """Identity-loadings model: factors are the raw inventories.

    Useful for solving directly in inventory coordinates; the factor
    covariance is the full (generally non-diagonal) covariance and the
    residual vanishes by construction.
    """
    cov = np.asarray(covariance, dtype=float)
    d = cov.shape[0]
    decomp = jacobi_eigendecomposition(cov)
    eye = np.eye(d)
    zero = np.zeros((d, d))
    for arr in (eye, zero):
        arr.setflags(write=False)
    return FactorModel(
        covariance=cov,
        loadings=eye,
        factor_cov=cov,
        residual_cov=zero,
        eigenvalues=decomp.eigenvalues,
    )
