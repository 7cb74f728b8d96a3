"""Eigendecomposition of the covariance and low-rank factor models.

The decomposition is LAPACK's symmetric eigensolver (``numpy.linalg.eigh``),
reordered to descending eigenvalues, with a deterministic sign per
eigenvector.

A factor model keeps the top k eigenpairs: loadings are the eigenvectors,
the factor covariance is the diagonal of retained eigenvalues, and whatever
the factors miss is the residual covariance R = Sigma - loadings V loadings'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

#: components smaller than this are ignored by the sign convention
SIGN_EPS = 1e-12

#: fewest rows :meth:`FactorModel.residual_forms` hands to einsum
FORM_ROWS = 4


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues in descending order with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _apply_sign_convention(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the first component above SIGN_EPS is positive."""
    big = np.abs(vectors) > SIGN_EPS
    first = vectors[big.argmax(axis=0), np.arange(vectors.shape[1])]
    return np.where(big.any(axis=0) & (first < 0.0), -vectors, vectors)


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

    @cached_property
    def _loadings_t(self) -> np.ndarray:
        """k x d contiguous transpose of the loadings, made once per model."""
        out = np.ascontiguousarray(self.loadings.T)
        out.setflags(write=False)
        return out

    def factor_coordinates(self, inventory) -> np.ndarray:
        """Project inventories (last axis = assets) into factor space.

        A fixed-order row-wise contraction: a row's coordinates are the same
        bits whatever else shares the call, which a BLAS product does not
        guarantee.
        """
        q = np.asarray(inventory, dtype=float)
        return np.einsum("...d,kd->...k", q, self._loadings_t)

    @cached_property
    def _contiguous(self) -> tuple:
        """Contiguous loadings, factor and residual covariance, made once per
        model: contiguous operands pin the einsums' loop order."""
        return tuple(
            np.ascontiguousarray(a) for a in (self.loadings, self.factor_cov, self.residual_cov)
        )

    def residual_forms(self, inventory: np.ndarray):
        """Row-wise projected and leftover risk ``(f'Vf, q'Rq)`` of ``(rows,
        d)`` inventories, ``f`` the factor coordinates.

        The one rule for the residual correction's integrand.  Each form is a
        row-wise einsum on contiguous operands, which fixes its loop order,
        so a row's bits do not depend on what else shares the call.  Both
        forms are nonnegative by construction; the clamp at 0 only removes
        round-off dust, so the pathwise sign of the correction survives
        floating point.

        On one or two rows of two assets numpy's einsum takes another loop
        than on a batch, and sums ``q'Rq`` in another order; fewer than
        :data:`FORM_ROWS` rows are padded with zero rows to take a batch's.
        """
        n = len(inventory)
        if n < FORM_ROWS:
            q = np.zeros((FORM_ROWS, self.n_assets))
            q[:n] = inventory
        else:
            q = np.ascontiguousarray(inventory)
        beta, V, R = self._contiguous
        factors = np.einsum("nd,dk->nk", q, beta)
        projected = np.einsum("nk,kl,nl->n", factors, V, factors)[:n]
        leftover = np.einsum("nd,de,ne->n", q, R, q)[:n]
        return np.maximum(projected, 0.0), np.maximum(leftover, 0.0)


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
    smallest = np.linalg.eigvalsh(residual)[0]
    if smallest < -1e-8 * float(np.trace(cov)):
        raise ValidationError(f"residual covariance has a negative eigenvalue {smallest:.3e}")

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
