"""Unital matrix sub-algebras: factor shapes and spanning bases.

The factor algebra {M (x) I_b : M in C^(a x a)} and the full algebra (the
shape (d, 1)) are stored by their factor_shape (a, b) alone; so is a basis
of d^2 independent d x d matrices, which spans the full algebra. Any other
algebra is a span: linearly independent d x d matrices and an orthonormal
basis span_q of their vectorized span. The solver only trusts an algebra
after `verify_algebra` confirms unitality and multiplicative closure: for a
shape that is a * b = dim, for a span batched projections onto span_q.
Star-closure is reported but not required: the solver draws every span from
an orthonormal basis of its star part G cap G^dag, which holds its unitaries.
Validity is judged at fixed bounds, as independence is by matrix_algebra,
whatever tolerances a solve uses, so `decide` and `verify` judge an algebra
alike at every setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .linalg import Tolerances, as_complex_matrix, numerical_rank

__all__ = [
    "MatrixAlgebra",
    "AlgebraReport",
    "matrix_algebra",
    "matrix_units",
    "full_algebra",
    "factor_algebra",
    "verify_algebra",
    "span_residual",
]


@dataclass(frozen=True, eq=False)
class MatrixAlgebra:
    dim: int
    kind: str  # "full" | "factor" | "span"
    factor_shape: tuple | None = None  # (a, b) with a * b = dim; None for a span
    span_basis: tuple | None = None  # a span's linearly independent elements
    span_q: np.ndarray | None = None  # a span's orthonormal basis of vec(span), (d^2, size)

    @property
    def basis(self) -> tuple:
        """The basis elements; for a factor shape (a, b) the E_jk (x) I_b, built on each read."""
        if self.factor_shape is None:
            return self.span_basis
        a, b = self.factor_shape
        return tuple(np.kron(matrix_units(a), np.eye(b)))

    @property
    def size(self) -> int:
        return len(self.span_basis) if self.factor_shape is None else self.factor_shape[0] ** 2


class AlgebraReport(NamedTuple):
    unital: bool
    multiplicatively_closed: bool
    star_closed: bool


def matrix_algebra(basis) -> MatrixAlgebra:
    """Build an algebra from a spanning basis, checking linear independence at
    numerical_rank's default rank_rel (1e-10), whatever tolerances a solve
    uses: d^2 independent d x d matrices span the full algebra, returned as
    its shape (d, 1); fewer give a span."""
    mats = tuple(as_complex_matrix(E, "algebra basis element") for E in basis)
    if not mats:
        raise InputError("algebra basis must be non-empty")
    d = mats[0].shape[0]
    if any(E.shape != (d, d) for E in mats):
        raise InputError("algebra basis elements must all be square of one size")
    u, s, _ = np.linalg.svd(np.stack(mats).reshape(len(mats), -1).T, full_matrices=False)
    if len(mats) > d * d or numerical_rank(s) < len(mats):
        raise InputError("algebra basis is not linearly independent at rank_rel")
    if len(mats) == d * d:
        return full_algebra(d)
    return MatrixAlgebra(dim=d, kind="span", span_basis=mats, span_q=u)


def matrix_units(d: int) -> np.ndarray:
    """The matrix units E_ij of C^(d x d), stacked in row-major (i, j) order."""
    return np.eye(d * d, dtype=complex).reshape(d * d, d, d)


def full_algebra(d: int) -> MatrixAlgebra:
    """The full matrix algebra on C^(d x d): the factor shape (d, 1)."""
    if d < 1:
        raise InputError("dimension must be positive")
    return MatrixAlgebra(dim=d, kind="full", factor_shape=(d, 1))


def factor_algebra(a: int, b: int) -> MatrixAlgebra:
    """The algebra {M (x) I_b : M in C^(a x a)} acting on dimension a*b."""
    if a < 1 or b < 1:
        raise InputError("factor dimensions must be positive")
    return MatrixAlgebra(dim=a * b, kind="factor", factor_shape=(a, b))


def span_residual(G: MatrixAlgebra, M) -> float:
    """Frobenius distance from M to the algebra; for a factor shape (a, b),
    ||M - m (x) I_b|| with m[j, k] the mean over p of M[(j, p), (k, p)], which
    is M itself (distance 0.0) for the full shape (d, 1). M must be dim x dim."""
    M = as_complex_matrix(M)
    if M.shape != (G.dim, G.dim):
        raise InputError(f"matrix of shape {M.shape} does not act on dimension {G.dim}")
    if G.factor_shape is None:
        v = M.ravel()
        return float(np.linalg.norm(v - G.span_q @ (G.span_q.conj().T @ v)))
    a, b = G.factor_shape
    if b == 1:
        return 0.0
    blocks = M.reshape(a, b, a, b)
    m = np.einsum("jpkp->jk", blocks) / b
    return float(np.linalg.norm(blocks - m[:, None, :, None] * np.eye(b)[:, None]))


def _all_in_span(G: MatrixAlgebra, Ms: np.ndarray) -> bool:
    """Whether every matrix of the stack Ms lies in the span, each under the rule
    ||vec M - Q Q^dag vec M|| <= residual_abs * max(1, ||M||_F) at the default
    residual_abs (1e-8)."""
    V = Ms.reshape(len(Ms), -1).T
    res = np.linalg.norm(V - G.span_q @ (G.span_q.conj().T @ V), axis=0)
    return bool(np.all(res <= Tolerances.residual_abs * np.maximum(1.0, np.linalg.norm(V, axis=0))))


def verify_algebra(G: MatrixAlgebra) -> AlgebraReport:
    """Check unitality, multiplicative closure and star closure of the span.

    The identity, the products E_j @ E_k for each E_j, and the adjoints
    E_k^dag are projected onto span_q in one batch each, and each judged at
    the default residual_abs (1e-8) whatever tolerances a solve uses. A
    factor shape (a, b) is a *-algebra by construction: it is checked
    unprojected, and passes exactly when a * b = dim.

    Returns a report rather than raising; callers that need a valid algebra
    (the solver) reject when unital or multiplicatively_closed is false.
    """
    if G.factor_shape is not None:
        ok = G.factor_shape[0] * G.factor_shape[1] == G.dim
        return AlgebraReport(unital=ok, multiplicatively_closed=ok, star_closed=ok)
    E = np.stack(G.basis)
    return AlgebraReport(
        unital=_all_in_span(G, np.eye(G.dim, dtype=complex)[None]),
        multiplicatively_closed=all(_all_in_span(G, Ej @ E) for Ej in E),
        star_closed=_all_in_span(G, E.conj().transpose(0, 2, 1)),
    )
