"""Unital matrix sub-algebras given by spanning bases.

An algebra is stored as linearly independent d x d matrices and an
orthonormal basis span_q of their vectorized span. The solver only trusts
algebras after `verify_algebra` confirms unitality and multiplicative
closure, each checked by batched projections onto span_q; star-closure is
detected and exploited (it drops the explicit adjoint-membership
constraints) but not required.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .linalg import Tolerances, as_complex_matrix, nullspace_basis

__all__ = [
    "MatrixAlgebra",
    "AlgebraReport",
    "matrix_algebra",
    "matrix_units",
    "full_algebra",
    "factor_algebra",
    "verify_algebra",
    "membership_constraints",
    "span_residual",
    "project_onto_span",
]


@dataclass(frozen=True, eq=False)
class MatrixAlgebra:
    dim: int
    basis: tuple
    kind: str  # "full" | "factor" | "span"
    factor_shape: tuple | None = None
    # derived: orthonormal basis of the vectorized span, shape (d^2, size)
    span_q: np.ndarray = None

    @property
    def size(self) -> int:
        return len(self.basis)


class AlgebraReport(NamedTuple):
    unital: bool
    multiplicatively_closed: bool
    star_closed: bool


def matrix_algebra(basis, kind: str = "span", factor_shape=None,
                   tol: Tolerances = Tolerances()) -> MatrixAlgebra:
    """Build an algebra from a spanning basis, checking linear independence."""
    mats = tuple(as_complex_matrix(E, "algebra basis element") for E in basis)
    if not mats:
        raise InputError("algebra basis must be non-empty")
    d = mats[0].shape[0]
    if any(E.shape != (d, d) for E in mats):
        raise InputError("algebra basis elements must all be square of one size")
    u, s, _ = np.linalg.svd(np.stack(mats).reshape(len(mats), -1).T, full_matrices=False)
    if len(mats) > d * d or s[-1] <= tol.rank_rel * s[0]:
        raise InputError("algebra basis is not linearly independent at rank_rel")
    return MatrixAlgebra(dim=d, basis=mats, kind=kind, factor_shape=factor_shape, span_q=u)


def matrix_units(d: int) -> np.ndarray:
    """The matrix units E_ij of C^(d x d), stacked in row-major (i, j) order."""
    return np.eye(d * d, dtype=complex).reshape(d * d, d, d)


def full_algebra(d: int) -> MatrixAlgebra:
    """The full matrix algebra on C^(d x d), basis = matrix units."""
    if d < 1:
        raise InputError("dimension must be positive")
    return matrix_algebra(matrix_units(d), kind="full")


def factor_algebra(a: int, b: int) -> MatrixAlgebra:
    """The algebra {M (x) I_b : M in C^(a x a)} acting on dimension a*b."""
    if a < 1 or b < 1:
        raise InputError("factor dimensions must be positive")
    return matrix_algebra(np.kron(matrix_units(a), np.eye(b)), kind="factor", factor_shape=(a, b))


def project_onto_span(G: MatrixAlgebra, M) -> np.ndarray:
    """Orthogonal projection of M onto span(basis), as a matrix."""
    v = as_complex_matrix(M).ravel()
    return (G.span_q @ (G.span_q.conj().T @ v)).reshape(G.dim, G.dim)


def span_residual(G: MatrixAlgebra, M) -> float:
    """Frobenius distance from M to span(basis)."""
    v = as_complex_matrix(M).ravel()
    return float(np.linalg.norm(v - G.span_q @ (G.span_q.conj().T @ v)))


def _all_in_span(G: MatrixAlgebra, Ms: np.ndarray, tol: Tolerances) -> bool:
    """Whether every matrix of the stack Ms lies in the span, each under the rule
    ||vec M - Q Q^dag vec M|| <= residual_abs * max(1, ||M||_F)."""
    V = Ms.reshape(len(Ms), -1).T
    residuals = np.linalg.norm(V - G.span_q @ (G.span_q.conj().T @ V), axis=0)
    return bool(np.all(residuals <= tol.residual_abs * np.maximum(1.0, np.linalg.norm(V, axis=0))))


def verify_algebra(G: MatrixAlgebra, tol: Tolerances = Tolerances()) -> AlgebraReport:
    """Check unitality, multiplicative closure and star closure of the span.

    The identity, the products E_j @ E_k for each E_j, and the adjoints
    E_k^dag are projected onto span_q in one batch each. A basis of d^2
    elements spans all of C^(d x d), so its report is all-true unprojected.

    Returns a report rather than raising; callers that need a valid algebra
    (the solver) reject when unital or multiplicatively_closed is false.
    """
    if G.size == G.dim * G.dim:
        return AlgebraReport(unital=True, multiplicatively_closed=True, star_closed=True)
    E = np.stack(G.basis)
    return AlgebraReport(
        unital=_all_in_span(G, np.eye(G.dim, dtype=complex)[None], tol),
        multiplicatively_closed=all(_all_in_span(G, Ej @ E, tol) for Ej in E),
        star_closed=_all_in_span(G, E.conj().transpose(0, 2, 1), tol),
    )


def membership_constraints(G: MatrixAlgebra) -> np.ndarray:
    """Orthonormal complex rows C: C @ vec(M) = 0 exactly when M lies in span(basis).

    The rows span the orthogonal complement of span_q. vec is the row-major
    ravel of a d x d matrix M. For the full algebra the constraint set is empty.
    """
    return nullspace_basis(G.span_q.conj().T).conj().T
