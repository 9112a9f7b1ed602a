"""Dense complex linear-algebra kernels used throughout the package.

Everything here is a pure function over immutable inputs; numerical rank
decisions are made with the scale-free ratio sigma_min/sigma_max rather
than raw determinant magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError, NotPositiveDefiniteError

__all__ = [
    "Tolerances",
    "MatrixPolynomial",
    "DeterminantReport",
    "as_complex_matrix",
    "frobenius",
    "numerical_rank",
    "nullspace_basis",
    "hermitian_eigendecomposition",
    "inverse_sqrt_psd",
    "vandermonde_inverse_sqrt_coeffs",
    "evaluate_matrix_polynomial",
    "polynomial_at_matrix",
    "singular_values",
    "singular_value_ratio",
    "determinant_magnitude_sq",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used by every decision in the package.

    rank_rel: relative singular-value cutoff deciding numerical rank and
        invertibility.
    residual_abs: largest Frobenius residual accepted as "equation satisfied"
        (relative to input scale with an absolute floor of 1).
    degenerate_gap: smallest eigenvalue gap still considered "distinct".
    """

    rank_rel: float = 1e-10
    residual_abs: float = 1e-8
    degenerate_gap: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_rel", "residual_abs", "degenerate_gap"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise InputError(f"{name} must lie strictly in (0, 1), got {value!r}")


def as_complex_matrix(m, what: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    M = np.asarray(m, dtype=complex)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise InputError(f"{what} must be a 2-D array with positive shape, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InputError(f"{what} contains non-finite entries")
    return M


def frobenius(M) -> float:
    return float(np.linalg.norm(M))


@dataclass(frozen=True, eq=False)
class MatrixPolynomial:
    """P(t) = sum_i t^i C_i with equally shaped complex matrix coefficients."""

    coefficients: tuple

    def __post_init__(self) -> None:
        coeffs = tuple(as_complex_matrix(C, "polynomial coefficient") for C in self.coefficients)
        if not coeffs:
            raise InputError("a matrix polynomial needs at least one coefficient")
        shape = coeffs[0].shape
        if any(C.shape != shape for C in coeffs):
            raise InputError("all polynomial coefficients must share one shape")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def shape(self) -> tuple:
        return self.coefficients[0].shape


class DeterminantReport(NamedTuple):
    value: float       # |det M|^2
    sv_ratio: float    # sigma_min / sigma_max, the singularity predicate


def numerical_rank(s, tol: Tolerances = Tolerances()) -> int:
    """Count of singular values above rank_rel * sigma_max; s is sorted descending."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_rel * s[0]))


def nullspace_basis(M, tol: Tolerances = Tolerances()) -> np.ndarray:
    """Orthonormal basis of the numerical right nullspace of a real or complex matrix.

    Returns an (n, k) array whose columns span the nullspace; k = 0 when the
    nullspace is trivial. Singular vectors beyond numerical_rank count as
    null; the zero matrix yields the full identity basis.
    """
    M = np.asarray(M, dtype=complex if np.iscomplexobj(M) else float)
    if M.ndim != 2 or M.shape[1] < 1:
        raise InputError(f"expected a 2-D matrix with at least one column, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InputError("nullspace input contains non-finite entries")
    rows, n = M.shape
    if rows < n:  # zero rows keep the thin SVD's vh square
        M = np.vstack([M, np.zeros((n - rows, n), dtype=M.dtype)])
    _, s, vh = np.linalg.svd(M, full_matrices=False)
    rank = numerical_rank(s, tol)
    if rank == 0:
        return np.eye(n, dtype=M.dtype)
    return vh[rank:].conj().T


def hermitian_eigendecomposition(H, tol: Tolerances = Tolerances()):
    """Eigendecomposition H = Q diag(w) Q^dag with w sorted descending.

    Ties are broken by the eigensolver's original (ascending) ordering so the
    output is deterministic across runs.
    """
    H = as_complex_matrix(H, "Hermitian matrix")
    if H.shape[0] != H.shape[1]:
        raise InputError(f"expected a square matrix, got shape {H.shape}")
    scale = frobenius(H)
    if frobenius(H - H.conj().T) > tol.residual_abs * max(1.0, scale):
        raise InputError("matrix is not Hermitian within tolerance")
    w, Q = np.linalg.eigh((H + H.conj().T) / 2.0)
    order = np.argsort(-w, kind="stable")
    return w[order], Q[:, order]


def inverse_sqrt_psd(H, tol: Tolerances = Tolerances()) -> np.ndarray:
    """Hermitian S with S H S = I, for positive definite H (spectral method)."""
    w, Q = hermitian_eigendecomposition(H, tol)
    if w[0] <= 0.0 or w[-1] <= tol.rank_rel * w[0]:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite at rank_rel={tol.rank_rel}: spectrum "
            f"[{w[-1]:.3e}, {w[0]:.3e}]"
        )
    S = (Q / np.sqrt(w)) @ Q.conj().T
    return (S + S.conj().T) / 2.0


def vandermonde_inverse_sqrt_coeffs(eigs: Sequence[float], tol: Tolerances = Tolerances()) -> np.ndarray:
    """Monomial coefficients of the polynomial p with p(x_i) = x_i^(-1/2).

    Solves the Vandermonde system with the Bjorck-Pereyra recurrence (Newton
    divided differences followed by monomial conversion), which stays accurate
    where a generic LU solve would not.
    """
    x = np.asarray(eigs, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InputError("expected a non-empty 1-D list of eigenvalues")
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise InputError("eigenvalues must be finite and strictly positive")
    x = np.sort(x)
    if x.size > 1 and np.min(np.diff(x)) <= tol.degenerate_gap:
        raise InputError(f"eigenvalues must be pairwise distinct (gap > {tol.degenerate_gap})")
    xl = x.astype(np.longdouble)
    c = 1.0 / np.sqrt(xl)
    n = x.size
    for k in range(n - 1):
        for i in range(n - 1, k, -1):
            c[i] = (c[i] - c[i - 1]) / (xl[i] - xl[i - k - 1])
    for k in range(n - 2, -1, -1):
        for i in range(k, n - 1):
            c[i] -= xl[k] * c[i + 1]
    return c.astype(float)


def evaluate_matrix_polynomial(P: MatrixPolynomial, lam: complex) -> np.ndarray:
    """Horner evaluation of P at the scalar lam."""
    acc = P.coefficients[-1].copy()
    for C in reversed(P.coefficients[:-1]):
        acc = acc * lam + C
    return acc


def polynomial_at_matrix(coeffs, H) -> np.ndarray:
    """Horner evaluation of a scalar polynomial at a square matrix.

    coeffs are monomial coefficients in ascending degree, as returned by
    vandermonde_inverse_sqrt_coeffs.
    """
    H = as_complex_matrix(H, "H")
    if H.shape[0] != H.shape[1]:
        raise InputError("polynomial_at_matrix needs a square matrix")
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise InputError("expected a non-empty 1-D coefficient list")
    eye = np.eye(H.shape[0], dtype=complex)
    acc = c[-1] * eye
    for coef in c[-2::-1]:
        acc = acc @ H + coef * eye
    return acc


def singular_values(M) -> np.ndarray:
    """Singular values, descending, length min(rows, cols)."""
    return np.linalg.svd(as_complex_matrix(M), compute_uv=False)


def singular_value_ratio(M) -> float:
    """sigma_min / sigma_max; 0 for the zero matrix."""
    s = singular_values(M)
    if s[0] == 0.0:
        return 0.0
    return float(s[-1] / s[0])


def determinant_magnitude_sq(M, tol: Tolerances = Tolerances()) -> DeterminantReport:
    """|det M|^2 via pivoted LU, alongside the sv-ratio singularity predicate."""
    M = as_complex_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise InputError(f"determinant needs a square matrix, got shape {M.shape}")
    sign, logabs = np.linalg.slogdet(M)
    value = 0.0 if sign == 0.0 or np.isneginf(logabs) else float(np.exp(2.0 * logabs))
    return DeterminantReport(value=value, sv_ratio=singular_value_ratio(M))
