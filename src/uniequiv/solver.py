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
A, A^dag in G1 by drawing A from a basis of G1 cap G1^dag (likewise B), which
holds every unitary of G1, as U^dag = U^-1 is a polynomial in U. One column
per basis pair (A_j, B_j) in every system lets one solve serve every route.

Over two factor shapes (a, b) and (a', b') (full is (d, 1)), U = u (x) I_b
and V = v (x) I_b' solve the equations exactly when u X_pq v^dag = Y_pq for
the realigned blocks X_pq[r, c] = X_i[(r, p), (c, q)]: a system over two
full algebras. It and the matrix-polynomial system A X_i = Y_i B (invertible
A, B, no adjoint equation) are solved by _pivot_decide, on the pairs each
divided by its largest entry, for A' = W_y^dag A W_x and
B' = R_y^dag B R_x in the singular frames X_c = W_x S R_x^dag and
Y_c = W_y T R_y^dag of one random pivot pair X_c = sum c_i X_i,
Y_c = sum c_i Y_i, with s and t zero-padded to max(d1, d2). Row (j, k) of
A' S = T B', s_k A'_jk = t_j B'_jk, is a combination of the system's rows,
so a unit (j, k) with max(s_k, t_j) above the pivot cut needs only the
coupled column (t_j E_jk, s_k E_jk) / hypot(s_k, t_j) (_pivot_system). For
unitaries, spectra that differ at the pivot are an exact NO, as
U X_c V^dag = Y_c; once s = t the adjoint pivot row gives
(s_k^2 - s_j^2) A'_jk = 0, so only the units inside one cluster of equal
singular values are kept: about a unknowns in place of 2a^2 for distinct
singular values, where a square matrix polynomial keeps d^2 of 2d^2.
Clusters merge below a relative gap of the pivot cut, 1e3 eps /
min(rank_rel, residual_abs): merging only enlarges the searched space,
while a split leaves the frames about eps / gap off, and every solution a
residual of that size. As the pivot rows hold exactly, a system of pivot
rows alone is rounding noise, so the rank cut is
rank_rel * max(sigma_1, hypot(s_1, t_1)).

Over factor shapes other than two full algebras (and in unilocal-mixed),
singular values are compared only to explain a solve that ended without a
verified YES (see decide_uep).

Every YES, in every mode, leaves the package through `check_certificate`,
which recomputes the certificate's residual and side conditions with
`certificate_residuals`; `uniequiv verify` calls the same function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algebra import MatrixAlgebra, full_algebra, span_residual, verify_algebra
from .errors import DegenerateCandidateError, InputError, InvalidAlgebraError
from .linalg import (
    _EPS,
    MatrixPolynomial,
    Tolerances,
    _worst_relative,
    as_complex_matrix,
    frobenius,
    nullspace_basis,
    numerical_rank,
    same_spectrum,
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
    "certificate_residuals",
    "check_certificate",
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
    """Complex-linear basis of candidate pairs (A_j, B_j) solving the linearized
    system, as the stacks A (k, d1, d1) and B (k, d2, d2)."""

    A: np.ndarray
    B: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.A)


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
    """Complex constraints on A = sum_j x_j basis_a[j], B = sum_j x_j basis_b[j].

    Column j of matrix is the unknown x_j of the basis pair (basis_a[j],
    basis_b[j]). The nullspace's rank cut is rank_rel * max(sigma_1, scale).
    """

    matrix: np.ndarray
    basis_a: np.ndarray          # shape (columns, d1, d1)
    basis_b: np.ndarray          # shape (columns, d2, d2)
    scale: float = 0.0


# A cut between two pivot clusters at relative gap g leaves the computed frames
# about eps / g off the exact ones, and every solution a residual of that size
# in the reduced system; splitting needs eps / g this factor below both the
# rank cut and the certificate bound.
_PIVOT_MARGIN = 1e3

# (1, i): _RE_IM @ parts is parts[0] + i parts[1], exactly
_RE_IM = np.array([1.0, 1.0j])


class _PivotFrames(NamedTuple):
    """Singular frames X_c = W_x S R_x^dag, Y_c = W_y T R_y^dag of a pivot pair
    as the stacks W = (W_x, W_y) and R = (R_x, R_y), its spectra s, t
    zero-padded to max(d1, d2), and its cut (_pivot_frames)."""

    W: np.ndarray
    R: np.ndarray
    s: np.ndarray
    t: np.ndarray
    cut: float


def singular_value_prefilter(pairs, tol: Tolerances = Tolerances()):
    """Per-pair singular-value comparison; a mismatch rules out equivalence.

    pairs is a sequence of finite pairs (X_i, Y_i) of one shape, or the
    (n, 2, r, c) array of them, compared in one batched SVD. Returns
    (True, None) on pass, (False, first_offending_index) on fail.
    """
    sx, sy = np.linalg.svd(np.asarray(pairs, dtype=complex), compute_uv=False).transpose(1, 0, 2)
    bad = np.flatnonzero(~same_spectrum(sx, sy, tol))
    return (False, int(bad[0])) if bad.size else (True, None)


def _linear_system(E1, E2, pairs) -> np.ndarray:
    """Constraint matrix over A = sum a_j E1[j], B = sum b_k E2[k].

    Rows hold the entries of A X_i - Y_i B, then of B X_i^dag - Y_i^dag A.
    The batched products E1 @ X_i equal kron(I, X_i^T) applied to the
    stacked basis.
    """
    X = np.stack([X for X, _ in pairs])
    Y = np.stack([Y for _, Y in pairs])
    Xh, Yh = X.conj().transpose(0, 2, 1), Y.conj().transpose(0, 2, 1)
    blocks = [(E1[:, None] @ X, -(Y @ E2[:, None])), (-(Yh @ E1[:, None]), E2[:, None] @ Xh)]
    return np.vstack([np.hstack([a.reshape(-1, X.size).T, b.reshape(-1, X.size).T])
                      for a, b in blocks])


def _star_part(G: MatrixAlgebra, star_closed: bool, tol: Tolerances) -> tuple:
    """A stacked basis of G cap G^dag, where every unitary of G lies, and the
    factor 1 + 1/gap by which restricting to it widens the plain system's cut.

    A shape or a star-closed span keeps its basis (factor 1). Otherwise the
    orthonormal F_j = span_q[:, j] combine over the right singular vectors,
    at most residual_abs, of K = (I - conj(Q) Q^T) vec(F_j^T): ||K a|| is how
    far (sum a_j F_j)^dag lies off G. An element whose adjoint lies r off G
    lies r / gap off them, gap K's next singular value: a cut rank_rel (1 + 1/gap)
    sigma_1 keeps solutions within rank_rel of the equations and G cap G^dag.
    """
    if star_closed:
        return np.stack(G.basis), 1.0
    Q = G.span_q
    T = Q.T.reshape(-1, G.dim, G.dim).transpose(0, 2, 1).reshape(Q.shape[1], -1).T
    _, s, vh = np.linalg.svd(T - Q.conj() @ (Q.T @ T))
    r = numerical_rank(s, Tolerances(rank_rel=tol.residual_abs), 1.0)
    return (vh[r:].conj() @ Q.T).reshape(-1, G.dim, G.dim), (1.0 + 1.0 / s[r - 1] if r else 1.0)


def _separate_unknowns(E1, E2):
    """Basis pairs (E1[j], 0), then (0, E2[k]): one column per unknown of A, then of B."""
    return (np.concatenate([E1, np.zeros((len(E2),) + E1.shape[1:], dtype=complex)]),
            np.concatenate([np.zeros((len(E1),) + E2.shape[1:], dtype=complex), E2]))


def _pivot_pair(Z, seed: int) -> np.ndarray:
    """The pivot pair (X_c, Y_c) = sum_i c_i (X_i, Y_i) of the (n, 2, a, a') stack
    Z of pairs, in one product, for a unit complex Gaussian vector c.

    c comes from the child seed of `seed` with spawn key (0,), which none of
    the sampler's per-trial seeds (seed, trial) reaches.
    """
    rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(0,)))
    re, im = parts = rng.standard_normal((2, len(Z)))
    c = (_RE_IM @ parts) / math.sqrt(re @ re + im @ im)  # the 2-norm as np.linalg.norm takes it
    return (c @ Z.reshape(len(Z), -1)).reshape(Z.shape[1:])


def _pivot_frames(P, tol: Tolerances) -> _PivotFrames:
    """Full SVDs of the pivot pair P = (X_c, Y_c) in one batched call, its padded
    spectra and its cut, _PIVOT_MARGIN * eps / min(rank_rel, residual_abs)
    times max(1, s_1, t_1)."""
    W, sv, Rh = np.linalg.svd(P)
    cut = (_PIVOT_MARGIN * _EPS / min(tol.rank_rel, tol.residual_abs)
           * max(1.0, float(sv[:, 0].max())))
    st = np.zeros((2, max(P.shape[1:])))
    st[:, :sv.shape[1]] = sv
    return _PivotFrames(W, Rh.conj().transpose(0, 2, 1), st[0], st[1], cut)


def _clusters(frames: _PivotFrames) -> tuple:
    """(label, aux): label[j] numbers the cluster of equal singular values of
    index j, cut between k and k+1 by a gap above frames.cut in both padded
    spectra. aux holds pivot_clusters (the clusters among the first d1 and the
    first d2 indices), pivot_merged_gap (the largest gap merged inside a
    cluster, 0.0 if none) and pivot_split_gap (the smallest kept between two,
    None for one cluster), relative to max(1, s_1, t_1)."""
    s, t = frames.s, frames.t
    gap = np.minimum(s[:-1] - s[1:], t[:-1] - t[1:])
    split = gap > frames.cut
    label = np.zeros(len(s), dtype=int)
    label[1:] = split.cumsum()
    ref = max(1.0, float(s[0]), float(t[0]))
    kept = gap[split]
    return label, {"pivot_clusters": [int(label[len(F[0]) - 1]) + 1 for F in (frames.W, frames.R)],
                   "pivot_merged_gap": float(gap[~split].max(initial=0.0)) / ref,
                   "pivot_split_gap": float(kept.min()) / ref if kept.size else None}


def _into_frames(Z, frames: _PivotFrames):
    """X' = W_x^dag X_i R_x and Y' = W_y^dag Y_i R_y for the (n, 2, d1, d2) stack Z
    of pairs, as two stacks, in one GEMM per side for each factor."""
    n, _, d1, d2 = Z.shape
    T = (Z.transpose(1, 0, 2, 3).reshape(2, n * d1, d2) @ frames.R).reshape(2, n, d1, d2)
    T = frames.W.conj().transpose(0, 2, 1) @ T.transpose(0, 2, 1, 3).reshape(2, d1, n * d2)
    return T.reshape(2, d1, n, d2).transpose(0, 2, 1, 3)


def _pivot_system(Z, frames: _PivotFrames, label, adjoint: bool):
    """The reduced system of the (n, 2, d1, d2) stack Z of pairs (X_i, Y_i) in
    the pivot frames, and its aux.

    Of the units (j, k) with label[j] == label[k], those with
    w = max(s_k, t_j) above frames.cut keep one coupled column, alpha E_jk on
    A' and beta E_jk on B' for (alpha, beta) = (t_j, s_k) / hypot(s_k, t_j),
    with weight 0 on a side outside A' (d1 x d1) or B' (d2 x d2); a column
    with no side is dropped, as row (j, k) forces the other entry to 0. Then
    the units below the cut keep free columns E_jk in A', then in B'. The
    rows are the entries of A' X'_i - Y'_i B', then with adjoint those of
    B' X'_i^dag - Y'_i^dag A', for X' = W_x^dag X R_x and Y' = W_y^dag Y R_y.
    The bases are the units alpha E_jk and beta E_jk, in the frames: a
    solution (A', B') carries back as (W_y A' W_x^dag, R_y B' R_x^dag).
    aux holds pivot_unknowns (columns), pivot_free_units and
    pivot_coupling_margin (the smallest w / cut of a coupled column, None
    without one).
    """
    n, _, d1, d2 = Z.shape
    s, t, cut = frames.s, frames.t, frames.cut
    j, k = (label[:, None] == label).nonzero()
    side = np.maximum(j, k)
    in_a, in_b = side < d1, side < d2  # (j, k) lies in A', in B'
    s_k, t_j = s[k], t[j]
    weight = np.maximum(s_k, t_j)
    coupled = weight > cut
    norm = np.hypot(s_k, t_j) + ~coupled  # never 0; a free unit's value is replaced below
    alpha, beta = t_j / norm * in_a, s_k / norm * in_b
    kept = (coupled & (alpha + beta > 0)).nonzero()[0]
    free = (~coupled).nonzero()[0]
    free_a, free_b = free[in_a[free]], free[in_b[free]]
    idx = np.concatenate([kept, free_a, free_b])
    r, c, alpha, beta, g = j[idx], k[idx], alpha[idx], beta[idx], len(idx)
    na = len(kept) + len(free_a)
    alpha[len(kept):na], alpha[na:], beta[len(kept):na], beta[na:] = 1.0, 0.0, 0.0, 1.0
    a, b = alpha.nonzero()[0], beta.nonzero()[0]
    (ra, ca, wa), (rb, cb, wb) = (r[a], c[a], alpha[a]), (r[b], c[b], beta[b])
    X, Y = _into_frames(Z, frames)
    # row (p, q) of A' X'_i - Y'_i B': A'_rc adds X'_i[c, q] at p = r, B'_rc
    # subtracts Y'_i[p, r] at q = c; of B' X'_i^dag - Y'_i^dag A': B'_rc adds
    # conj(X'_i[q, c]) at p = r, A'_rc subtracts conj(Y'_i[r, p]) at q = c
    rows = np.zeros((2 if adjoint else 1, n, d1, d2, g), dtype=complex)
    top = rows[0]
    top[:, ra, :, a] = wa[:, None, None] * X[:, ca, :].transpose(1, 0, 2)
    top[:, :, cb, b] -= wb * Y[:, :, rb]
    if adjoint:
        bottom = rows[1].reshape(n, d2, d1, g)
        bottom[:, rb, :, b] = wb[:, None, None] * X[:, :, cb].conj().transpose(2, 0, 1)
        bottom[:, :, ca, a] -= wa * Y[:, ra, :].conj().transpose(0, 2, 1)
    basis_a = np.zeros((g, d1, d1), dtype=complex)
    basis_a[a, ra, ca] = wa
    basis_b = np.zeros((g, d2, d2), dtype=complex)
    basis_b[b, rb, cb] = wb
    system = LinearSystem(rows.reshape(-1, g), basis_a, basis_b, scale=float(np.hypot(s[0], t[0])))
    margin = float(weight[kept].min() / cut) if kept.size else None
    return system, {"pivot_unknowns": g, "pivot_free_units": len(free_a) + len(free_b),
                    "pivot_coupling_margin": margin}


def _usable_algebras(inst: UepInstance, tol: Tolerances) -> list:
    """The verify_algebra reports of G1 and G2; InvalidAlgebraError unless both
    are unital and multiplicatively closed."""
    reports = []
    for name, G in (("G1", inst.G1), ("G2", inst.G2)):
        report = verify_algebra(G, tol)
        if not (report.unital and report.multiplicatively_closed):
            raise InvalidAlgebraError(
                f"{name} is not a usable algebra: unital={report.unital}, "
                f"multiplicatively_closed={report.multiplicatively_closed}"
            )
        reports.append(report)
    return reports


def build_linear_system(inst: UepInstance, tol: Tolerances = Tolerances()) -> LinearSystem:
    """Complex-linear constraint matrix of the linearized system.

    Unknowns are the coordinates of A over a basis of G1 cap G1^dag followed
    by those of B over one of G2 cap G2^dag (_star_part), whose larger factor
    f sets the scale f * sigma_1. decide_uep takes this plain system only
    with a span algebra; over factor shapes it is the reference that the
    pivot route (_pivot_system) is tested against.
    """
    (E1, f1), (E2, f2) = (_star_part(G, report.star_closed, tol)
                          for report, G in zip(_usable_algebras(inst, tol), (inst.G1, inst.G2)))
    M, f = _linear_system(E1, E2, inst.pairs), max(f1, f2)
    return LinearSystem(M, *_separate_unknowns(E1, E2), f * np.linalg.norm(M, 2) if f > 1 else 0.0)


def solve_solution_space(system: LinearSystem, tol: Tolerances = Tolerances()) -> SolutionSpace:
    ns = nullspace_basis(system.matrix, tol, system.scale).T
    return SolutionSpace(*((ns @ E.reshape(len(E), -1)).reshape((-1,) + E.shape[1:])
                           for E in (system.basis_a, system.basis_b)))


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
    coeffs = _RE_IM @ rng.integers(1, cfg.sample_max + 1, size=(2, space.dimension))
    return tuple((coeffs @ E.reshape(len(E), -1)).reshape(E.shape[1:]) for E in (space.A, space.B))


class SampleResult(NamedTuple):
    A: np.ndarray
    B: np.ndarray
    trials_used: int
    U: np.ndarray  # the polar factors of A and of B (extract_unitaries)
    V: np.ndarray


def sample_invertible(space: SolutionSpace, cfg: SamplerConfig, tol: Tolerances = Tolerances()):
    """Search the solution space for a pair with both blocks invertible.

    A candidate is accepted exactly when extract_unitaries takes its polar
    factors, which the hit keeps. Returns the first hit, or None after all
    trials fail; in the latter case the caller reports the failure bound
    per_trial_bound ** trials.
    """
    if space.dimension < 1:
        raise InputError("sample_invertible needs a non-trivial solution space")
    for t in range(cfg.trials):
        A, B = draw_candidate(space, cfg, t)
        try:
            U, V = extract_unitaries(A, B, tol)
        except DegenerateCandidateError:
            continue
        return SampleResult(A=A, B=B, trials_used=t + 1, U=U, V=V)
    return None


def extract_unitaries(A, B, tol: Tolerances = Tolerances()):
    """Polar factors: U = W Vh from the SVD A = W S Vh, and V likewise from B.

    A block is rejected under the sampler's own rule: numerical rank below full.
    """
    factors = []
    for name, M in (("A", A), ("B", B)):
        W, s, Vh = np.linalg.svd(as_complex_matrix(M, name), full_matrices=False)
        if numerical_rank(s, tol) < len(s):
            raise DegenerateCandidateError(
                f"{name} is numerically singular: singular values in [{s[-1]:.3e}, {s[0]:.3e}]"
            )
        factors.append(W @ Vh)
    return tuple(factors)


def certificate_residuals(mode: str, payload, U, V, tol: Tolerances = Tolerances()):
    """(residual, defect) of the certificate (U, V) for an instance of mode.

    payload is what serialize.parse_instance returns for the mode. residual
    is the largest relative Frobenius residual of the mode's own equations:
    U X_i V^dag = Y_i, (U (x) V)|psi_i> = |phi_i>, (U (x) I) rho_i (U (x) I)^dag
    = sigma_i, (U (x) V) rho (U (x) V)^dag = sigma, or U X_i V^(-1) = Y_i for
    matpoly, whose U, V are the invertible A, B. defect is the worst side
    condition: the unitarity defect of U and V, with the distance to G1, G2
    for matrix-pairs; for matpoly 0.0 when A and B have full numerical rank,
    otherwise inf (and the residual is then inf too). V is None exactly for
    unilocal-mixed; any other shape raises InputError.
    """
    if mode == "matrix-pairs":
        dims, pairs = (payload.d1, payload.d2), payload.pairs
    elif mode == "matpoly":
        P, Q = payload
        dims, pairs = P.shape, tuple(zip(P.coefficients, Q.coefficients))
    elif mode == "pure-sets":
        dims = (payload[0][0].d1, payload[0][0].d2)
        pairs = [(a.amplitudes.reshape(dims), b.amplitudes.reshape(dims)) for a, b in zip(*payload)]
    else:  # unilocal-mixed: two lists of density operators; generic-mixed: one pair
        rhos, sigmas = payload if mode == "unilocal-mixed" else ([payload[0]], [payload[1]])
        dims = (rhos[0].d1, rhos[0].d2)
        pairs = [(r.matrix, s.matrix) for r, s in zip(rhos, sigmas)]
    expected = ((dims[0],) * 2, None if mode == "unilocal-mixed" else (dims[1],) * 2)
    for name, M, shape in zip("UV", (U, V), expected):
        got = None if M is None else np.shape(M)
        if got != shape:
            raise InputError(f"certificate {name} has shape {got}, expected {shape} for {mode}")
    X, Y = np.asarray(pairs, dtype=complex).transpose(1, 0, 2, 3)
    if mode == "matpoly":
        if any(numerical_rank(singular_values(M), tol) < len(M) for M in (U, V)):
            return np.inf, np.inf
        UXVinv = np.linalg.solve(V.T, (U @ X).transpose(0, 2, 1)).transpose(0, 2, 1)
        return _worst_relative(UXVinv - Y, Y), 0.0
    defect = max(frobenius(W.conj().T @ W - np.eye(len(W))) for W in (U, V) if W is not None)
    if mode == "matrix-pairs":
        defect = max(defect, span_residual(payload.G1, U), span_residual(payload.G2, V))
        L, Rh = U, V.conj().T
    elif mode == "pure-sets":
        L, Rh = U, V.T  # (U (x) V)|psi> is U psi V^T
    else:
        L = np.kron(U, np.eye(dims[1]) if V is None else V)
        Rh = L.conj().T
    return _worst_relative(L @ X @ Rh - Y, Y), defect


def check_certificate(verdict: UepVerdict, mode: str, payload,
                      tol: Tolerances = Tolerances()) -> UepVerdict:
    """The YES check every decide path ends in.

    Sets the residual of a YES from certificate_residuals; when the residual
    or the defect exceeds residual_abs, the YES becomes INCONCLUSIVE with both
    stated. Other verdicts pass unchanged.
    """
    if verdict.verdict != "YES":
        return verdict
    verdict.residual, defect = certificate_residuals(mode, payload, verdict.U, verdict.V, tol)
    if not max(verdict.residual, defect) <= tol.residual_abs:  # a nan fails too
        verdict.verdict = "INCONCLUSIVE"
        verdict.detail = ("numerical breakdown: certificate failed verification "
                          f"(residual={verdict.residual:.3e}, defect={defect:.3e})")
    return verdict


def _decide(system: LinearSystem, cfg: SamplerConfig, tol: Tolerances,
            kind: str = "unitary") -> UepVerdict:
    """The decide tail of every mode: solve, sample, and answer YES with the
    sample's polar factors, or for kind "invertible" the sampled A, B itself;
    each caller checks a YES."""
    space = solve_solution_space(system, tol)
    if space.dimension == 0:
        return UepVerdict(verdict="NO", certainty="exact", solution_dimension=0,
                          certificate_kind=kind,
                          detail="linear system has only the trivial solution")
    found = sample_invertible(space, cfg, tol)
    if found is None:
        eps = per_trial_failure_bound(space.A.shape[1], space.B.shape[1], cfg.sample_max)
        return UepVerdict(verdict="NO", certainty="probabilistic",
                          trials_used=cfg.trials, failure_bound=eps ** cfg.trials,
                          solution_dimension=space.dimension, certificate_kind=kind,
                          detail="no invertible element found by randomized search")
    U, V = (found.A, found.B) if kind == "invertible" else (found.U, found.V)
    return UepVerdict(verdict="YES", certainty="probabilistic", U=U, V=V,
                      trials_used=found.trials_used, solution_dimension=space.dimension,
                      certificate_kind=kind)


def _realigned_blocks(Z, shape1, shape2) -> np.ndarray:
    """The a x a' blocks (X_pq, Y_pq), X_pq[r, c] = X_i[(r, p), (c, q)], of the
    (n, 2, d1, d2) stack Z of pairs as one stack in the order (i, p, q), for
    shape1 = (a, b), shape2 = (a', b'); over (a, 1) and (a', 1), Z itself."""
    (a, b), (a2, b2) = shape1, shape2
    return Z.reshape(-1, 2, a, b, a2, b2).transpose(0, 3, 5, 1, 2, 4).reshape(-1, 2, a, a2)


def _spanning_pairs(Z) -> np.ndarray:
    """The (n, 2, a, a') stack Z of pairs (X_j, Y_j) when n <= 2 a a'; else the
    rows of T from the QR [vec X_j, vec Y_j] = Q T, as 2 a a' pairs with the
    same span. As Q has orthonormal columns, the linear system keeps its
    nullspace and its singular values."""
    n = len(Z)
    if n <= Z[0].size:
        return Z
    return np.linalg.qr(Z.reshape(n, -1), mode="r").reshape((-1,) + Z.shape[1:])


def _pivot_decide(Z, cfg: SamplerConfig, tol: Tolerances, kind: str = "unitary") -> UepVerdict:
    """Decide u X_j v^dag = Y_j over two full algebras, or for kind "invertible"
    A X_j = Y_j B, for the (n, 2, a, a') stack Z of pairs, leaving Z unchanged
    and a YES unchecked.

    Neither equation changes when a pair is scaled, so each nonzero pair of a
    copy of Z is divided by its largest real or imaginary part (a norm would
    square the entries, and overflow near 1e154), and the result cut to its
    spanning pairs: one rank cut then sees small pairs next to large ones. A
    unitary pivot drawn from cfg.seed with differing spectra is an exact NO;
    an invertible one takes one cluster and no adjoint rows. The solution
    space is sampled in the pivot frames: only a YES's certificate is carried
    back. Every verdict past the pivot records the aux of _clusters (unitary
    only) and _pivot_system.
    """
    Z = np.array(Z, dtype=complex, order="C")
    R = Z.view(float).reshape(len(Z), -1)  # re and im of pair j in row j; dividing R divides Z
    m = np.abs(R).max(axis=1, keepdims=True)
    R /= m + (m == 0)
    Z = _spanning_pairs(Z)
    frames = _pivot_frames(_pivot_pair(Z, cfg.seed), tol)
    unitary = kind == "unitary"
    if unitary and not same_spectrum(frames.s, frames.t, tol):
        return UepVerdict(verdict="NO", certainty="exact",
                          detail="singular values differ at the random pivot pair "
                                 "sum_i c_i (X_i, Y_i)")
    label, aux = _clusters(frames) if unitary else (np.zeros(len(frames.s), dtype=int), {})
    system, system_aux = _pivot_system(Z, frames, label, adjoint=unitary)
    verdict = _decide(system, cfg, tol, kind)
    if verdict.verdict == "YES":  # A = W_y A' W_x^dag, B = R_y B' R_x^dag
        (W_x, W_y), (R_x, R_y) = frames.W, frames.R
        verdict.U, verdict.V = W_y @ verdict.U @ W_x.conj().T, R_y @ verdict.V @ R_x.conj().T
    verdict.aux.update(aux, **system_aux)
    return verdict


def _spectrum_mismatch(pairs, blocks, shape: tuple, tol: Tolerances):
    """The first of the stacked pairs (i,), else of their realigned blocks (i, p, q)
    (shape = (b, b') per pair), whose singular values differ; None when every
    spectrum matches. The first pair's blocks are compared alone, as a NO's
    mismatch mostly shows there, then the rest in one batch."""
    ok, i = singular_value_prefilter(pairs, tol)
    if not ok:
        return (i,)
    first = shape[0] * shape[1]
    for lo, hi in ((0, first), (first, len(blocks))):
        if lo == hi:
            continue
        ok, idx = singular_value_prefilter(blocks[lo:hi], tol)
        if not ok:
            return tuple(int(v) for v in np.unravel_index(lo + idx, (len(pairs),) + shape))
    return None


def decide_uep(inst: UepInstance, cfg: SamplerConfig = SamplerConfig(),
               tol: Tolerances = Tolerances()) -> UepVerdict:
    """Full decision pipeline; YES verdicts carry a verified (U, V) certificate.

    Over a span algebra, and over two full algebras, where the blocks below
    are the pairs, pairs whose singular values differ are an exact NO first.
    A span algebra then takes the plain system. Factor shapes (a, b) and
    (a', b') are checked against d1 and d2 without a projection, so unless
    b = b' = 1 a shape that does not tile its dimension raises before any
    NO; _pivot_decide solves the realigned blocks, normalized pair by pair
    and spanned, and u, v lift to u (x) I_b, v (x) I_b'.
    The failure bound is that of the blocks' (a, a'). Over any other pair of
    shapes the pairs' and then the blocks' singular values are compared only
    when the solve ends in anything but a verified YES: they explain a
    non-YES, as the exact NO naming the pair or the block, instead of gating
    the solve. So a certificate that passes check_certificate stands even
    where the comparison would have said NO, which its residual allows only
    within about sqrt(rank) of the comparison's tolerance.
    """
    def no(where):
        return UepVerdict(verdict="NO", certainty="exact",
                          detail=f"singular values differ at {where}")

    shapes = inst.G1.factor_shape, inst.G2.factor_shape
    blocks_are_pairs = None in shapes or shapes[0][1] * shapes[1][1] == 1
    pairs = np.array(inst.pairs)
    if blocks_are_pairs:
        ok, idx = singular_value_prefilter(pairs, tol)
        if not ok:
            return no(f"pair index {idx}")
    if None in shapes:
        return check_certificate(_decide(build_linear_system(inst, tol), cfg, tol),
                                 "matrix-pairs", inst, tol)
    _usable_algebras(inst, tol)  # unprojected: a shape passes when a * b = dim
    (a, b), (a2, b2) = shapes
    blocks = _realigned_blocks(pairs, (a, b), (a2, b2))
    verdict = _pivot_decide(blocks, cfg, tol)
    if verdict.verdict == "YES":
        verdict.U, verdict.V = (W if n == 1 else np.kron(W, np.eye(n))
                                for W, n in ((verdict.U, b), (verdict.V, b2)))
    verdict = check_certificate(verdict, "matrix-pairs", inst, tol)
    if blocks_are_pairs or verdict.verdict == "YES":
        return verdict
    mismatch = _spectrum_mismatch(pairs, blocks, (b, b2), tol)
    if mismatch is None:
        return verdict
    i, *block = mismatch
    return no(f"block ({block[0]}, {block[1]}) of pair index {i}" if block else f"pair index {i}")


def decide_invertible_equivalence(P: MatrixPolynomial, Q: MatrixPolynomial,
                                  cfg: SamplerConfig = SamplerConfig(),
                                  tol: Tolerances = Tolerances()) -> UepVerdict:
    """Decide whether invertible A, B exist with A X_i B^(-1) = Y_i for all i.

    Coefficient ranks are invariant under the equivalence and serve as an
    exact prefilter. Past it, one _pivot_decide of kind "invertible" solves
    A X_i = Y_i B over full algebras on the normalized coefficient pairs,
    with every unit in one cluster and no adjoint rows, and records
    pivot_unknowns, pivot_free_units and pivot_coupling_margin in aux. The
    certificate is the sampled (A, B) itself, checked on the unscaled (P, Q).
    """
    if P.shape != Q.shape or P.degree != Q.degree:
        raise InputError("matrix polynomials must share shape and degree")
    Z = np.stack([P.coefficients, Q.coefficients], axis=1)
    for idx, (sx, sy) in enumerate(np.linalg.svd(Z, compute_uv=False)):
        if numerical_rank(sx, tol) != numerical_rank(sy, tol):
            return UepVerdict(verdict="NO", certainty="exact", certificate_kind="invertible",
                              detail=f"coefficient ranks differ at index {idx}")
    verdict = _pivot_decide(Z, cfg, tol, "invertible")
    return check_certificate(verdict, "matpoly", (P, Q), tol)


def uep_instance_full(d1: int, d2: int, pairs) -> UepInstance:
    """Convenience constructor with both algebras full."""
    return UepInstance(d1=d1, d2=d2, pairs=tuple(pairs),
                       G1=full_algebra(d1), G2=full_algebra(d2))
