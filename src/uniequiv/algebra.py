"""Unital matrix sub-algebras given by spanning bases.

An algebra is stored as a list of linearly independent d x d matrices.
The solver only trusts algebras after `verify_algebra` confirms unitality
and multiplicative closure; star-closure is detected and exploited (it
drops the explicit adjoint-membership constraints) but not required.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .linalg import Tolerances, as_complex_matrix, frobenius

__all__ = [
    "MatrixAlgebra",
    "AlgebraReport",
    "matrix_algebra",
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
    # derived: orthonormal bases of the vectorized span and its complement
    span_q: np.ndarray = None
    comp_q: np.ndarray = None

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
    vecs = np.column_stack([E.ravel() for E in mats])
    u, s, _ = np.linalg.svd(vecs, full_matrices=True)
    if s[-1] <= tol.rank_rel * s[0]:
        raise InputError("algebra basis is not linearly independent at rank_rel")
    r = len(mats)
    return MatrixAlgebra(dim=d, basis=mats, kind=kind, factor_shape=factor_shape,
                         span_q=u[:, :r].copy(), comp_q=u[:, r:].copy())


def full_algebra(d: int) -> MatrixAlgebra:
    """The full matrix algebra on C^(d x d), basis = matrix units."""
    if d < 1:
        raise InputError("dimension must be positive")
    basis = []
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = 1.0
            basis.append(E)
    return matrix_algebra(basis, kind="full")


def factor_algebra(a: int, b: int) -> MatrixAlgebra:
    """The algebra {M (x) I_b : M in C^(a x a)} acting on dimension a*b."""
    if a < 1 or b < 1:
        raise InputError("factor dimensions must be positive")
    eye_b = np.eye(b, dtype=complex)
    basis = []
    for i in range(a):
        for j in range(a):
            E = np.zeros((a, a), dtype=complex)
            E[i, j] = 1.0
            basis.append(np.kron(E, eye_b))
    return matrix_algebra(basis, kind="factor", factor_shape=(a, b))


def project_onto_span(G: MatrixAlgebra, M) -> np.ndarray:
    """Orthogonal projection of M onto span(basis), as a matrix."""
    v = as_complex_matrix(M).ravel()
    return (G.span_q @ (G.span_q.conj().T @ v)).reshape(G.dim, G.dim)


def span_residual(G: MatrixAlgebra, M) -> float:
    """Frobenius distance from M to span(basis)."""
    v = as_complex_matrix(M).ravel()
    return float(np.linalg.norm(v - G.span_q @ (G.span_q.conj().T @ v)))


def _in_span(G: MatrixAlgebra, M, tol: Tolerances) -> bool:
    return span_residual(G, M) <= tol.residual_abs * max(1.0, frobenius(M))


def verify_algebra(G: MatrixAlgebra, tol: Tolerances = Tolerances()) -> AlgebraReport:
    """Check unitality, multiplicative closure and star closure of the span.

    Returns a report rather than raising; callers that need a valid algebra
    (the solver) reject when unital or multiplicatively_closed is false.
    """
    cached = getattr(G, "_verify_report", None)
    if cached is not None:
        return cached
    unital = _in_span(G, np.eye(G.dim, dtype=complex), tol)
    closed = all(
        _in_span(G, Ej @ Ek, tol) for Ej in G.basis for Ek in G.basis
    )
    star = all(_in_span(G, Ej.conj().T, tol) for Ej in G.basis)
    report = AlgebraReport(unital=unital, multiplicatively_closed=closed, star_closed=star)
    object.__setattr__(G, "_verify_report", report)
    return report


def membership_constraints(G: MatrixAlgebra) -> np.ndarray:
    """Complex rows comp_q^dag: C @ vec(M) = 0 exactly when M lies in span(basis).

    vec is the row-major ravel of a d x d matrix M. For the full algebra the
    constraint set is empty.
    """
    return G.comp_q.conj().T
