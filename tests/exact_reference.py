"""Reference kernels the tests compare the package against, none of them on
the decide path: the polynomial polar factor U = A p(A^dag A) (acceptance
criterion 3), sigma_min/sigma_max of a candidate (criterion 4), nullity
by exact elimination over the Gaussian rationals (criterion 5), the
dense QR + full SVD nullspace that the Gram route of nullspace_basis
replaced, the membership-row system of a span algebra that the star part
G cap G^dag replaced, and the decide_uep round trip that the state
reductions' direct pivot route replaced."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from uniequiv import (InputError, Tolerances, decide_uep, hermitian_eigendecomposition,
                      singular_values, uep_instance_full, verify_algebra)
from uniequiv.linalg import as_complex_matrix, numerical_rank, same_spectrum
from uniequiv.solver import (LinearSystem, UepVerdict, _linear_system, _separate_unknowns,
                             _usable_algebras, check_certificate, singular_value_prefilter)
from uniequiv.states import _resolve_phase_components


# smallest gap between interpolation nodes still considered distinct
DISTINCT_GAP = 1e-8


class NotPositiveDefiniteError(Exception):
    """Inverse square root requested for a singular or indefinite matrix."""


def inverse_sqrt_psd(H, tol: Tolerances = Tolerances()) -> np.ndarray:
    """Hermitian S with S H S = I, for positive definite H (spectral method)."""
    w, Q = hermitian_eigendecomposition(H)
    if w[0] <= 0.0 or w[-1] <= tol.rank_rel * w[0]:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite at rank_rel={tol.rank_rel}: spectrum "
            f"[{w[-1]:.3e}, {w[0]:.3e}]"
        )
    S = (Q / np.sqrt(w)) @ Q.conj().T
    return (S + S.conj().T) / 2.0


def vandermonde_inverse_sqrt_coeffs(eigs: Sequence[float]) -> np.ndarray:
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
    if x.size > 1 and np.min(np.diff(x)) <= DISTINCT_GAP:
        raise InputError(f"eigenvalues must be pairwise distinct (gap > {DISTINCT_GAP})")
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


def singular_value_ratio(M) -> float:
    """sigma_min / sigma_max; 0 for the zero matrix."""
    s = singular_values(M)
    if s[0] == 0.0:
        return 0.0
    return float(s[-1] / s[0])


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        other = _coerce(other)
        denom = other.re * other.re + other.im * other.im
        if denom == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * other.re + self.im * other.im) / denom,
                                (self.im * other.re - self.re * other.im) / denom)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0


def _coerce(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value))
    if isinstance(value, float):
        return GaussianRational(Fraction(value))  # exact binary expansion
    if isinstance(value, complex):
        return GaussianRational(Fraction(value.real), Fraction(value.imag))
    raise InputError(f"cannot coerce {type(value).__name__} to GaussianRational")


def exact_nullspace_dimension(M) -> int:
    """Nullity of a matrix over the Gaussian rationals by exact elimination.

    Entries may be GaussianRational, int, Fraction, float or complex (floats
    convert exactly via their binary expansion).
    """
    rows = [[_coerce(e) for e in row] for row in M]
    if not rows:
        return 0
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise InputError("ragged matrix")
    rank = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / pivot
                rows[r] = [rows[r][c] - factor * rows[rank][c] for c in range(ncols)]
        rank += 1
    return ncols - rank


def dense_nullspace_basis(M, tol: Tolerances = Tolerances(), scale: float = 0.0) -> np.ndarray:
    """Numerical right nullspace from one full SVD, cut as numerical_rank cuts.

    A tall matrix is first replaced by the triangular factor R of its QR
    decomposition, which has the same nullspace and singular values in n
    rows; a wide one is padded with zero rows so that vh is square. A matrix
    of rank 0 yields the full identity basis.
    """
    M = np.asarray(M, dtype=complex if np.iscomplexobj(M) else float)
    if M.ndim != 2 or M.shape[1] < 1:
        raise InputError(f"expected a 2-D matrix with at least one column, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InputError("nullspace input contains non-finite entries")
    rows, n = M.shape
    if rows > n:
        M = np.linalg.qr(M, mode="r")
    elif rows < n:
        M = np.vstack([M, np.zeros((n - rows, n), dtype=M.dtype)])
    _, s, vh = np.linalg.svd(M)
    rank = numerical_rank(s, tol, scale)
    if rank == 0:
        return np.eye(n, dtype=M.dtype)
    return vh[rank:].conj().T


def membership_constraints(G) -> np.ndarray:
    """Orthonormal complex rows C of a span algebra: C @ vec(M) = 0 exactly when
    M lies in its span, for vec the row-major ravel of a d x d matrix M."""
    return dense_nullspace_basis(G.span_q.conj().T).conj().T


def membership_rows_system(inst, tol: Tolerances = Tolerances()) -> LinearSystem:
    """The plain system with A, B over the algebras' own bases, and below the
    equations, for each algebra that is not star-closed, its membership rows
    applied as conj(C) vec(A^T) (likewise B), which say A^dag lies in it.
    Star-closure is verify_algebra's, at its fixed bounds; tol is taken only
    to stand in for build_linear_system."""
    E1, E2 = np.stack(inst.G1.basis), np.stack(inst.G2.basis)
    rows = [_linear_system(E1, E2, inst.pairs)]
    sides = (slice(0, len(E1)), slice(len(E1), None))
    _usable_algebras(inst)
    for G, E, cols in zip((inst.G1, inst.G2), (E1, E2), sides):
        if not verify_algebra(G).star_closed:
            C = membership_constraints(G)
            block = np.zeros((len(C), len(E1) + len(E2)), dtype=complex)
            block[:, cols] = C.conj() @ E.transpose(0, 2, 1).reshape(len(E), -1).T
            rows.append(block)
    return LinearSystem(np.vstack(rows), *_separate_unknowns(E1, E2))


def lu_by_matrix_pairs(Xs, Ys, cfg, tol: Tolerances = Tolerances()):
    """U X_i V^T = Y_i for matricized states as a UepInstance over two full
    algebras through decide_uep (its pair prefilter and its matrix-pairs
    check), then the physical V = conj(W)."""
    d1, d2 = Xs[0].shape
    verdict = decide_uep(uep_instance_full(d1, d2, zip(Xs, Ys)), cfg, tol)
    if verdict.verdict == "YES":
        verdict.V = np.conj(verdict.V)
    return verdict


def generic_mixed_by_matrix_pairs(rho, sigma, cfg, tol: Tolerances = Tolerances()):
    """generic_mixed_lu of full-rank, non-product states with distinct
    eigenvalues on lu_by_matrix_pairs: the spectrum and Schmidt tests, the
    eigenvectors aligned by the resolved phases, and a YES checked again on
    rho, sigma. None when the phase graph is disconnected."""
    (w_r, Q_r), (w_s, Q_s) = (hermitian_eigendecomposition(r.matrix) for r in (rho, sigma))
    if not same_spectrum(w_r, w_s, tol):
        return UepVerdict(verdict="NO", certainty="exact", detail="eigenvalue spectra differ")
    psis, phis = ([Q[:, i].reshape(rho.d1, rho.d2) for i in range(len(w_r))] for Q in (Q_r, Q_s))
    ok, idx = singular_value_prefilter(tuple(zip(psis, phis)), tol)
    if not ok:
        return UepVerdict(verdict="NO", certainty="exact",
                          detail=f"Schmidt coefficients of eigenvector {idx} differ")
    lambdas, label = _resolve_phase_components(psis, phis)
    if label.any():
        return None
    aligned = [lam * phi for lam, phi in zip(lambdas, phis)]
    return check_certificate(lu_by_matrix_pairs(psis, aligned, cfg, tol), "generic-mixed",
                             (rho, sigma), tol)
