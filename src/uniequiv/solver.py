"""The core decision procedure for simultaneous unitary equivalence.

Given pairs (X_i, Y_i) and algebras G1, G2, decide whether unitaries
U in G1, V in G2 exist with U X_i V^dag = Y_i for all i. The quadratic
problem is linearized into the system

    A X_i = Y_i B,   X_i B^dag = A^dag Y_i,   A, A^dag in G1,  B, B^dag in G2,

whose invertible solutions are exactly the certificates: the polar factors
U of A and V of B then solve the original equations and stay inside the
algebras. Invertible elements of the solution space are found by randomized
polynomial identity testing (Schwartz-Zippel).

The system is complex-linear, so the solution set is a complex-linear space:
the adjoint equation is imposed as its adjoint B X_i^dag = Y_i^dag A, and
A^dag in G1 as conj(C) vec(A^T) = 0 for G1's membership rows C (likewise for
B). Matrix polynomials run through the same pipeline with full algebras and
the first equation only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algebra import (MatrixAlgebra, full_algebra, matrix_units, membership_constraints,
                      span_residual, verify_algebra)
from .errors import DegenerateCandidateError, InputError, InvalidAlgebraError
from .linalg import (
    MatrixPolynomial,
    Tolerances,
    as_complex_matrix,
    frobenius,
    nullspace_basis,
    numerical_rank,
    singular_value_ratio,
    singular_values,
)

__all__ = [
    "UepInstance",
    "SolutionSpace",
    "SamplerConfig",
    "UepVerdict",
    "LinearSystem",
    "singular_value_prefilter",
    "build_linear_system",
    "solve_solution_space",
    "sample_invertible",
    "per_trial_failure_bound",
    "extract_unitaries",
    "decide_uep",
    "decide_invertible_equivalence",
    "uep_instance_full",
]


@dataclass(frozen=True, eq=False)
class UepInstance:
    d1: int
    d2: int
    pairs: tuple  # ((X_i, Y_i), ...) with X_i, Y_i of shape (d1, d2)
    G1: MatrixAlgebra
    G2: MatrixAlgebra

    def __post_init__(self) -> None:
        if self.d1 < 1 or self.d2 < 1:
            raise InputError("dimensions must be positive")
        pairs = tuple(
            (as_complex_matrix(X, f"pairs[{i}].X"), as_complex_matrix(Y, f"pairs[{i}].Y"))
            for i, (X, Y) in enumerate(self.pairs)
        )
        if not pairs:
            raise InputError("an instance needs at least one matrix pair")
        shape = (self.d1, self.d2)
        for i, (X, Y) in enumerate(pairs):
            if X.shape != shape or Y.shape != shape:
                raise InputError(f"pairs[{i}] has shape {X.shape}/{Y.shape}, expected {shape}")
        if self.G1.dim != self.d1 or self.G2.dim != self.d2:
            raise InputError("algebra ambient dimensions must match d1, d2")
        object.__setattr__(self, "pairs", pairs)


@dataclass(frozen=True, eq=False)
class SolutionSpace:
    """Complex-linear basis of candidate pairs (A_j, B_j) solving the linearized system."""

    basis: tuple  # ((A_j, B_j), ...)
    dimension: int
    d1: int
    d2: int


@dataclass(frozen=True)
class SamplerConfig:
    """Randomized search configuration.

    Coefficients are drawn uniformly from the integers {1, ..., sample_max};
    each trial uses the child seed (seed, trial_index) so trials are
    independent and the whole run is reproducible.
    """

    sample_max: int = 1_000_000
    trials: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sample_max < 2:
            raise InputError("sample_max must be at least 2")
        if self.trials < 1:
            raise InputError("trials must be positive")
        if self.seed < 0:
            raise InputError("seed must be a non-negative integer")


@dataclass(eq=False)
class UepVerdict:
    verdict: str                 # "YES" | "NO" | "INCONCLUSIVE"
    certainty: str               # "exact" | "probabilistic"
    U: np.ndarray | None = None
    V: np.ndarray | None = None
    residual: float = 0.0
    trials_used: int = 0
    failure_bound: float = 0.0
    solution_dimension: int | None = None
    certificate_kind: str = "unitary"
    detail: str = ""
    aux: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class LinearSystem:
    matrix: np.ndarray           # complex constraints; columns are G1's basis, then G2's
    basis1: np.ndarray           # stacked G1 basis, shape (|G1|, d1, d1)
    basis2: np.ndarray           # stacked G2 basis, shape (|G2|, d2, d2)


def singular_value_prefilter(pairs, tol: Tolerances = Tolerances()):
    """Per-pair singular-value comparison; a mismatch rules out equivalence.

    Returns (True, None) on pass, (False, first_offending_index) on fail.
    """
    for idx, (X, Y) in enumerate(pairs):
        sx = singular_values(X)
        sy = singular_values(Y)
        if sx.shape != sy.shape:
            return False, idx
        scale = max(1.0, float(sx[0]) if sx.size else 0.0, float(sy[0]) if sy.size else 0.0)
        if sx.size and np.max(np.abs(sx - sy)) > tol.residual_abs * scale:
            return False, idx
    return True, None


def _linear_system(E1, E2, pairs, adjoint_rows, memb=(None, None)) -> LinearSystem:
    """Constraint matrix over A = sum a_j E1[j], B = sum b_k E2[k].

    Rows hold the entries of A X_i - Y_i B, then (with adjoint_rows) of
    B X_i^dag - Y_i^dag A, then the membership rows C of memb applied as
    conj(C) vec(A^T) and conj(C) vec(B^T), which says A^dag, B^dag lie in
    the algebras. The batched products E1 @ X_i equal kron(I, X_i^T) applied
    to the stacked basis.
    """
    X = np.stack([X for X, _ in pairs])
    Y = np.stack([Y for _, Y in pairs])
    blocks = [(E1[:, None] @ X, -(Y @ E2[:, None]))]
    if adjoint_rows:
        Xh, Yh = X.conj().transpose(0, 2, 1), Y.conj().transpose(0, 2, 1)
        blocks.append((-(Yh @ E1[:, None]), E2[:, None] @ Xh))
    g1, g2 = len(E1), len(E2)
    rows = [np.hstack([a.reshape(g1, -1).T, b.reshape(g2, -1).T]) for a, b in blocks]
    for C, E, cols in zip(memb, (E1, E2), (slice(0, g1), slice(g1, None))):
        if C is not None and C.shape[0]:
            block = np.zeros((C.shape[0], g1 + g2), dtype=complex)
            block[:, cols] = C.conj() @ E.transpose(0, 2, 1).reshape(len(E), -1).T
            rows.append(block)
    return LinearSystem(matrix=np.vstack(rows), basis1=E1, basis2=E2)


def build_linear_system(inst: UepInstance, tol: Tolerances = Tolerances()) -> LinearSystem:
    """Complex-linear constraint matrix of the linearized system.

    Unknowns are the coordinates of A over G1's basis followed by those of B
    over G2's basis. For star-closed algebras the adjoint-membership
    constraints are vacuous and omitted.
    """
    memb = []
    for name, G in (("G1", inst.G1), ("G2", inst.G2)):
        report = verify_algebra(G, tol)
        if not (report.unital and report.multiplicatively_closed):
            raise InvalidAlgebraError(
                f"{name} is not a usable algebra: unital={report.unital}, "
                f"multiplicatively_closed={report.multiplicatively_closed}"
            )
        memb.append(None if report.star_closed else membership_constraints(G))
    return _linear_system(np.stack(inst.G1.basis), np.stack(inst.G2.basis), inst.pairs,
                          adjoint_rows=True, memb=memb)


def solve_solution_space(system: LinearSystem, tol: Tolerances = Tolerances()) -> SolutionSpace:
    ns = nullspace_basis(system.matrix, tol)
    g1 = len(system.basis1)
    As = np.tensordot(ns[:g1].T, system.basis1, axes=1)
    Bs = np.tensordot(ns[g1:].T, system.basis2, axes=1)
    return SolutionSpace(basis=tuple(zip(As, Bs)), dimension=ns.shape[1],
                         d1=system.basis1.shape[1], d2=system.basis2.shape[1])


def per_trial_failure_bound(d1: int, d2: int, sample_max: int) -> float:
    """Schwartz-Zippel bound for one trial: degree of |det(A (+) B)|^2 over |X|.

    The tight degree of the tested polynomial in the sampled reals is
    2 * (d1 + d2); the bound is clipped at 1.
    """
    return min(1.0, 2.0 * (d1 + d2) / float(sample_max))


def draw_candidate(space: SolutionSpace, cfg: SamplerConfig, trial: int):
    """The (A, B) combination for one trial; deterministic given (seed, trial).

    The 2k integers drawn are the real and imaginary parts of the k complex
    coefficients.
    """
    rng = np.random.default_rng([int(cfg.seed), int(trial)])
    re, im = rng.integers(1, cfg.sample_max + 1, size=(2, space.dimension)).astype(float)
    coeffs = re + 1j * im
    A = sum(c * Aj for c, (Aj, _) in zip(coeffs, space.basis))
    B = sum(c * Bj for c, (_, Bj) in zip(coeffs, space.basis))
    return A, B


class SampleResult(NamedTuple):
    A: np.ndarray
    B: np.ndarray
    trials_used: int


def sample_invertible(space: SolutionSpace, cfg: SamplerConfig, tol: Tolerances = Tolerances()):
    """Search the solution space for a pair with both blocks invertible.

    Returns the first hit, or None after all trials fail; in the latter case
    the caller reports the failure bound per_trial_bound ** trials.
    """
    if space.dimension < 1:
        raise InputError("sample_invertible needs a non-trivial solution space")
    for t in range(cfg.trials):
        A, B = draw_candidate(space, cfg, t)
        if (singular_value_ratio(A) > tol.rank_rel
                and singular_value_ratio(B) > tol.rank_rel):
            return SampleResult(A=A, B=B, trials_used=t + 1)
    return None


def extract_unitaries(A, B, tol: Tolerances = Tolerances()):
    """Polar factors: U = W Vh from the SVD A = W S Vh, and V likewise from B.

    A block is rejected under the sampler's own rule, sigma_min/sigma_max <= rank_rel.
    """
    factors = []
    for name, M in (("A", A), ("B", B)):
        W, s, Vh = np.linalg.svd(as_complex_matrix(M, name), full_matrices=False)
        if s[0] == 0.0 or s[-1] / s[0] <= tol.rank_rel:
            raise DegenerateCandidateError(
                f"{name} is numerically singular: singular values in [{s[-1]:.3e}, {s[0]:.3e}]"
            )
        factors.append(W @ Vh)
    return tuple(factors)


def _unitarity_defect(U: np.ndarray) -> float:
    return frobenius(U.conj().T @ U - np.eye(U.shape[0]))


def _max_pair_residual(U, V, pairs) -> float:
    Vd = V.conj().T
    return max(frobenius(U @ X @ Vd - Y) / max(1.0, frobenius(Y)) for X, Y in pairs)


def _search(system: LinearSystem, cfg: SamplerConfig, tol: Tolerances, kind: str):
    """Solution space and the first invertible sample, or a NO verdict in place of the sample."""
    space = solve_solution_space(system, tol)
    if space.dimension == 0:
        return space, UepVerdict(verdict="NO", certainty="exact", solution_dimension=0,
                                 certificate_kind=kind,
                                 detail="linear system has only the trivial solution")
    found = sample_invertible(space, cfg, tol)
    if found is None:
        eps = per_trial_failure_bound(space.d1, space.d2, cfg.sample_max)
        return space, UepVerdict(verdict="NO", certainty="probabilistic",
                                 trials_used=cfg.trials, failure_bound=eps ** cfg.trials,
                                 solution_dimension=space.dimension, certificate_kind=kind,
                                 detail="no invertible element found by randomized search")
    return space, found


def decide_uep(inst: UepInstance, cfg: SamplerConfig = SamplerConfig(),
               tol: Tolerances = Tolerances()) -> UepVerdict:
    """Full decision pipeline; YES verdicts carry a verified (U, V) certificate."""
    ok, idx = singular_value_prefilter(inst.pairs, tol)
    if not ok:
        return UepVerdict(verdict="NO", certainty="exact",
                          detail=f"singular values differ at pair index {idx}")
    space, found = _search(build_linear_system(inst, tol), cfg, tol, "unitary")
    if isinstance(found, UepVerdict):
        return found
    try:
        U, V = extract_unitaries(found.A, found.B, tol)
    except DegenerateCandidateError as exc:
        return UepVerdict(verdict="INCONCLUSIVE", certainty="probabilistic",
                          trials_used=found.trials_used, solution_dimension=space.dimension,
                          detail=f"numerical breakdown: unitary extraction rejected the sample ({exc})")
    residual = _max_pair_residual(U, V, inst.pairs)
    defects = (
        _unitarity_defect(U),
        _unitarity_defect(V),
        span_residual(inst.G1, U),
        span_residual(inst.G2, V),
    )
    if residual <= tol.residual_abs and max(defects) <= tol.residual_abs:
        return UepVerdict(
            verdict="YES", certainty="probabilistic", U=U, V=V,
            residual=residual, trials_used=found.trials_used, failure_bound=0.0,
            solution_dimension=space.dimension,
        )
    return UepVerdict(
        verdict="INCONCLUSIVE", certainty="probabilistic", U=U, V=V,
        residual=residual, trials_used=found.trials_used,
        solution_dimension=space.dimension,
        detail=(
            "numerical breakdown: sampled certificate failed verification "
            f"(residual={residual:.3e}, max defect={max(defects):.3e})"
        ),
    )


def decide_invertible_equivalence(P: MatrixPolynomial, Q: MatrixPolynomial,
                                  cfg: SamplerConfig = SamplerConfig(),
                                  tol: Tolerances = Tolerances()) -> UepVerdict:
    """Decide whether invertible A, B exist with A X_i B^(-1) = Y_i for all i.

    The constraints are only A X_i = Y_i B over full algebras, and the
    certificate is the sampled (A, B) itself. Coefficient ranks are invariant
    under the equivalence and serve as an exact prefilter.
    """
    if P.shape != Q.shape or P.degree != Q.degree:
        raise InputError("matrix polynomials must share shape and degree")
    d1, d2 = P.shape
    pairs = tuple(zip(P.coefficients, Q.coefficients))
    for idx, (X, Y) in enumerate(pairs):
        if numerical_rank(singular_values(X), tol) != numerical_rank(singular_values(Y), tol):
            return UepVerdict(verdict="NO", certainty="exact", certificate_kind="invertible",
                              detail=f"coefficient ranks differ at index {idx}")
    system = _linear_system(matrix_units(d1), matrix_units(d2), pairs, adjoint_rows=False)
    space, found = _search(system, cfg, tol, "invertible")
    if isinstance(found, UepVerdict):
        return found
    A, B = found.A, found.B
    residual = max(
        frobenius(np.linalg.solve(B.T, (A @ X).T).T - Y) / max(1.0, frobenius(Y))
        for X, Y in pairs
    )
    if residual <= tol.residual_abs:
        return UepVerdict(verdict="YES", certainty="probabilistic", U=A, V=B,
                          residual=residual, trials_used=found.trials_used, failure_bound=0.0,
                          solution_dimension=space.dimension, certificate_kind="invertible")
    return UepVerdict(verdict="INCONCLUSIVE", certainty="probabilistic", U=A, V=B,
                      residual=residual, trials_used=found.trials_used,
                      solution_dimension=space.dimension, certificate_kind="invertible",
                      detail="sampled invertible pair failed the residual check")


def uep_instance_full(d1: int, d2: int, pairs) -> UepInstance:
    """Convenience constructor with both algebras full."""
    return UepInstance(d1=d1, d2=d2, pairs=tuple(pairs),
                       G1=full_algebra(d1), G2=full_algebra(d2))
