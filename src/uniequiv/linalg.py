"""Dense complex linear-algebra kernels used throughout the package.

Everything here is a pure function over immutable inputs; numerical rank
decisions are made with the scale-free ratio sigma_min/sigma_max rather
than raw determinant magnitudes. A nullspace is found in two small steps:
one Hermitian eigen-solve of the columns x columns Gram matrix narrows the
search to the directions near or below the rank cut, and one SVD of the
matrix restricted to them decides the cut on the matrix itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

__all__ = [
    "Tolerances",
    "MatrixPolynomial",
    "as_complex_matrix",
    "frobenius",
    "numerical_rank",
    "same_spectrum",
    "nullspace_basis",
    "hermitian_eigendecomposition",
    "singular_values",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used by every decision in the package.

    rank_rel: relative singular-value cutoff deciding numerical rank and
        invertibility.
    residual_abs: largest Frobenius residual accepted as "equation satisfied"
        (relative to input scale with an absolute floor of 1).
    """

    rank_rel: float = 1e-10
    residual_abs: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_rel", "residual_abs"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise InputError(f"{name} must lie strictly in (0, 1), got {value!r}")


def as_complex_matrix(m, what: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    M = np.asarray(m, dtype=complex)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise InputError(f"{what} must be a 2-D array with positive shape, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InputError(f"{what} contains non-finite entries")
    return M


def frobenius(M) -> float:
    return math.sqrt(np.vdot(M, M).real)


def _worst_relative(D, Y) -> float:
    """The largest ||D_i||_F / max(1, ||Y_i||_F) over the stacks D and Y, inf
    for a non-finite D. The norms square the entries, so each pair is divided
    by its largest real or imaginary part m first, and the ratio taken as
    ||D_i / m||_F / max(1 / m, ||Y_i / m||_F): no inf or nan is formed."""
    # D_i over Y_i, re and im side by side; C order, whatever the layout of D and Y
    Z = np.ascontiguousarray(np.concatenate([D, Y], axis=1)).view(float)
    m = np.abs(Z).max(axis=(1, 2))
    if not m.max() < np.inf:  # nan fails too
        return np.inf
    # below the smallest normal number the ratio is ||D_i||_F, and 1 / m stays finite
    m = np.maximum(m, _TINY)
    Z = (Z / m[:, None, None]).reshape(len(Z), 2, -1)
    nd, ny = np.sqrt((Z * Z).sum(axis=2)).T
    return float((nd / np.maximum(1.0 / m, ny)).max())


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


def numerical_rank(s, tol: Tolerances = Tolerances(), scale: float = 0.0) -> int:
    """Count of singular values above rank_rel * max(sigma_max, scale); s is sorted descending.

    scale is a reference for a matrix whose largest constraints were taken
    out before it was formed: without it, a matrix of pure rounding noise
    would keep its noise as rank.
    """
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > tol.rank_rel * max(float(s[0]), scale)))


def same_spectrum(sx, sy, tol: Tolerances = Tolerances()):
    """Whether descending spectra (last axis) agree within residual_abs * max(1, sigma_1)."""
    if sx.shape != sy.shape:
        return False
    scale = np.maximum(sx.max(axis=-1, initial=1.0), sy.max(axis=-1, initial=1.0))
    return np.abs(sx - sy).max(axis=-1, initial=0.0) <= tol.residual_abs * scale


def nullspace_basis(M, tol: Tolerances = Tolerances(), scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the numerical right nullspace of a real or complex matrix.

    Returns an (n, k) array whose columns span the nullspace; k = 0 when the
    nullspace is trivial, and the identity when every direction is null (an
    all-zero matrix, or one with no rows). The cut is numerical_rank's,
    rank_rel * ref with ref = max(sigma_1, scale).
    One eigh of the n x n Gram G = M^dag M gives sigma_1^2 and keeps the
    eigenvectors V with eigenvalue <= t^2, where
    t = max(1e3 sqrt(n) eps / rank_rel * sigma_1^2 / ref, 10 rank_rel ref);
    the SVD of M V is then cut at rank_rel * ref. So every direction within
    10x of the cut is decided on M itself. G's rounding, about
    sqrt(n) eps sigma_1^2, tilts a kept vector towards a dropped direction of
    singular value sigma_b > t, adding sqrt(n) eps sigma_1^2 / sigma_b
    <= 1e-3 rank_rel ref to its residual (Davis-Kahan); t^2 stays at least
    1e7 sqrt(n) eps sigma_1^2, far above G's eigenvalue noise; and when
    t >= sigma_1 every vector is kept, which is the dense SVD. G squares M's
    range, so where its diagonal leaves [2^-960, 2^960] (entries beyond about
    1e+-150) it is formed again from M times a power of two.
    """
    M = np.asarray(M, dtype=complex if np.iscomplexobj(M) else float)
    if M.ndim != 2 or M.shape[1] < 1:
        raise InputError(f"expected a 2-D matrix with at least one column, got shape {M.shape}")
    n = M.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        G = M.conj().T @ M
    # nan or inf when an entry of M is; in range, G is far from overflow and
    # its rounding, eps * top, from the subnormal numbers
    top = float(G.diagonal().real.max())
    if not 2.0**-960 <= top <= 2.0**960:
        if not np.all(np.isfinite(M)):
            raise InputError("nullspace input contains non-finite entries")
        # a power of two takes M's largest entry near 1 and scales M and scale exactly
        unit = 2.0 ** min(1000, -int(np.frexp(np.max(np.abs(M), initial=0.0))[1]))
        M, scale = M * unit, scale * unit
        G = M.conj().T @ M
    w, V = np.linalg.eigh(G)
    s1 = math.sqrt(max(float(w[-1]), 0.0))
    ref = max(s1, scale)
    # a dropped direction above t tilts no kept vector by more than 1e-3 of the cut
    floor = 1e3 * math.sqrt(n) * _EPS * s1 * (s1 / ref) / tol.rank_rel if ref else 0.0
    t = max(floor, 10.0 * tol.rank_rel * ref)
    V = V[:, :np.searchsorted(w, t * t, side="right")]  # w ascends
    if V.shape[1] == 0:
        return V
    B = M @ V
    _, s, vh = np.linalg.svd(B, full_matrices=B.shape[0] < B.shape[1])
    rank = numerical_rank(s, tol, ref)
    if rank == 0 and V.shape[1] == n:
        return np.eye(n, dtype=M.dtype)
    return V @ vh[rank:].conj().T


def hermitian_eigendecomposition(H):
    """Eigendecomposition H = Q diag(w) Q^dag with w sorted descending.

    H is Hermitian when ||H - H^dag||_F <= residual_abs * max(1, ||H||_F) at
    the default residual_abs (1e-8), whatever tolerances a solve uses.
    Ties are broken by the eigensolver's original (ascending) ordering so the
    output is deterministic across runs.
    """
    H = as_complex_matrix(H, "Hermitian matrix")
    if H.shape[0] != H.shape[1]:
        raise InputError(f"expected a square matrix, got shape {H.shape}")
    if _worst_relative((H - H.conj().T)[None], H[None]) > Tolerances.residual_abs:
        raise InputError("matrix is not Hermitian within tolerance")
    w, Q = np.linalg.eigh((H + H.conj().T) / 2.0)
    order = np.argsort(-w, kind="stable")
    return w[order], Q[:, order]


def singular_values(M) -> np.ndarray:
    """Singular values, descending, length min(rows, cols)."""
    return np.linalg.svd(as_complex_matrix(M), compute_uv=False)
