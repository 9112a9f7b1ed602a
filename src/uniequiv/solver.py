"""The core decision procedure for simultaneous unitary equivalence.

Given pairs (X_i, Y_i) and algebras G1, G2, decide whether unitaries
U in G1, V in G2 exist with U X_i V^dag = Y_i for all i. The quadratic
problem is linearized into the system

    A X_i = Y_i B,   X_i B^dag = A^dag Y_i,   A, A^dag in G1,  B, B^dag in G2,

whose invertible solutions are exactly the certificates: the polar factors
U of A and V of B then solve the original equations and stay inside the
algebras. Invertible elements of the solution space are found by randomized
polynomial identity testing (Schwartz-Zippel).

Every random draw is the module's own: the pivot combinations and each
trial's integer coefficients come from SplitMix64 streams named by (seed,
name, index) (_stream_state, _words), computed as uint64 array operations
on a counter. A verdict is a function of the instance, the seed and this
module, and deciding never imports numpy.random.

The system is complex-linear, so the solution set is a complex-linear space:
the adjoint equation is imposed as its adjoint B X_i^dag = Y_i^dag A, and
A, A^dag in G1 by drawing A from a basis of G1 cap G1^dag (likewise B), which
holds every unitary of G1, as U^dag = U^-1 is a polynomial in U. One column
per basis pair (A_j, B_j) in every system lets one solve serve every route.

Over two factor shapes (a, b) and (a', b') (full is (d, 1)), U = u (x) I_b
and V = v (x) I_b' solve the equations exactly when u X_pq v^dag = Y_pq for
the realigned blocks X_pq[r, c] = X_i[(r, p), (c, q)]: a system over two
full algebras. _pivot_decide solves it, and decide_invertible_equivalence
the matrix-polynomial system A X_i = Y_i B (invertible A, B, no adjoint
equation), both on the pairs each divided by its largest entry and spanned
(_pivot_prepared), for A' = W_y^dag A W_x and
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
singular values. A matrix polynomial has one cluster and keeps d^2 of 2d^2
in these frames, unless it is square and its pivot invertible. Then a
certificate makes X_c^-1 X_j and Y_c^-1 Y_j similar up to its residual, so
traces of the two that differ past a Neumann bound on that residual are an
exact NO before any system is built (_trace_no); otherwise the eigen frames
of X_c^-1 X_c2, for a second random combination, take the pivot to (I, I)
and leave one unknown per eigenvalue where the eigenvalues are distinct
(_eigen_frames), and only a YES they give that passes the certificate
check stands. Clusters merge below a relative gap of the pivot
cut, 1e3 eps / min(rank_rel, residual_abs): merging only enlarges the
searched space, while a split leaves the frames about eps / gap off, and
every solution a residual of that size. As the pivot rows hold exactly, a
system of pivot rows alone is rounding noise, so the rank cut is
rank_rel * max(sigma_1, hypot(s_1, t_1)). Frames whose indices below
r = min(d1, d2) are one cluster each with a coupled column, and whose padded
indices form one cluster (a unitary pivot of distinct singular values, or
the eigen frames), hold one line of solutions A' = diag(a),
B' = diag(a) (+) C (C in A' when d1 > d2), a_j X'_i[j, k] = Y'_i[j, k] a_k:
a is read off column 0 of the rotated pairs and C from one least-squares
solve of their padded columns, while two coefficients in the eigen frames
are both diagonal, so A' = B' = I solves them. The sampler's own rule
accepts a read from the moduli |a_j| and the singular values of C, so such
a YES counts no columns and builds, solves and samples nothing
(_read_diagonal), and whatever the read declines is solved in a system of
at most _MAX_SYSTEM_BYTES, or INCONCLUSIVE.

On every pivot route and the span route the solve decides: equal singular
values are only necessary, so they are compared only to word a solve that
ended without a verified YES (_explained), and a pair or block whose
spectra differ generically ends a pivot route at the pivot's exact NO,
before any system is built. Matpoly's coefficient ranks likewise only word
a NO (_rank_no), so a failed certificate check stays INCONCLUSIVE. A
comparison gates a step only where it spares a costly search and no input
is left unvalidated: generic-mixed's Schmidt and marginal spectra before
the phase grid of a disconnected trace graph, which may run up to 4^5
solves. Every singular-value
NO but the pivot's, in every mode, is found and worded by _spectrum_no.
Every exact NO, in every mode, is built by _exact_no.

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

MODES = ("matrix-pairs", "matpoly", "pure-sets", "unilocal-mixed", "generic-mixed")


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

    Coefficients are drawn uniformly from the integers {1, ..., sample_max},
    2 <= sample_max <= 2^63 - 1. Trial t draws from the SplitMix64 stream
    (seed, "trial", t) and the pivot from (seed, "pivot", key), so trials
    are independent of each other and of the pivot, and the whole run is
    reproducible from the seed, of any size, with no other generator.
    """

    sample_max: int = 1_000_000
    trials: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sample_max < 2:
            raise InputError("sample_max must be at least 2")
        if self.sample_max > 2**63 - 1:
            raise InputError(f"sample_max must be at most {2**63 - 1}")
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


def _exact_no(detail: str, **fields) -> UepVerdict:
    """An exact NO, the one verdict that claims NO without a failure bound:
    every such verdict in the package is built here."""
    return UepVerdict(verdict="NO", certainty="exact", detail=detail, **fields)


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

# bytes the rows and bases of one reduced system (_pivot_system) may take, as
# _MAX_GRID_SOLVES bounds generic-mixed's phase grid: a planted YES of three
# d x d pairs needs about 1.03e9 at d = 192 (218 unknowns) and 1.78e10 at
# d = 384 (941 unknowns)
_MAX_SYSTEM_BYTES = 2**31

# (1, i): _RE_IM @ parts is parts[0] + i parts[1], exactly
_RE_IM = np.array([1.0, 1.0j])

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014; Vigna's splitmix64.c): word
# i = 1, 2, ... of the stream at state s is the output function of
# s + i * _GOLDEN mod 2^64, z -> (z ^ z >> 30) * _M1 -> (z ^ z >> 27) * _M2
# -> z ^ z >> 31, a bijection of 64-bit words
_GOLDEN, _M1, _M2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK64 = 2**64 - 1
_U64 = tuple(np.uint64(c) for c in (_GOLDEN, _M1, _M2, 30, 27, 31))


def _mix64(z: int) -> int:
    """SplitMix64's output function on a Python int below 2^64."""
    z = (z ^ z >> 30) * _M1 & _MASK64
    z = (z ^ z >> 27) * _M2 & _MASK64
    return z ^ z >> 31


def _stream_state(seed: int, name: str, index: int) -> int:
    """The state of the stream (seed, name, index), for a name of at most 8
    bytes: h -> _mix64((h ^ w) + _GOLDEN) folded from h = 0 over the words
    w: the number of the seed's 64-bit limbs, the limbs, the name's bytes and
    the index. Each fold is a bijection of h and of w, so two streams that
    differ only in the seed (of as many limbs), only in the name or only in
    the index never share a state."""
    limbs = [seed >> b & _MASK64 for b in range(0, seed.bit_length() or 1, 64)]
    h = 0
    for w in (len(limbs), *limbs, int.from_bytes(name.encode(), "little"), index):
        h = _mix64((h ^ w) + _GOLDEN & _MASK64)
    return h


def _words(state: int, start: int, n: int) -> np.ndarray:
    """Words start + 1, ..., start + n of the SplitMix64 stream at `state`:
    the output function as uint64 array operations on the counter, whose
    products wrap mod 2^64 as the reference's do."""
    golden, m1, m2, r1, r2, r3 = _U64
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64) * golden + np.uint64(state)
    z = (z ^ z >> r1) * m1
    z = (z ^ z >> r2) * m2
    return z ^ z >> r3


def _uniform_ints(state: int, n: int, high: int) -> np.ndarray:
    """n integers uniform on {1, ..., high}, 2 <= high < 2^64: in stream order,
    each word's top ceil(log2 high) bits that fall below high, plus 1.

    A word is kept with probability high / 2^bits > 1/2. A batch of words is
    expected to keep 4 sqrt(n) + 16 more than n, so one batch nearly always
    serves; the batch size never changes which integers are drawn.
    """
    bits = (high - 1).bit_length()
    batch, shift = ((n + 4 * math.isqrt(n) + 16) << bits) // high, np.uint64(64 - bits)
    kept, start = np.empty(0, dtype=np.uint64), 0
    while len(kept) < n:
        v = _words(state, start, batch) >> shift
        kept, start = np.concatenate([kept, v[v < high]]), start + batch
    return kept[:n] + 1


class _PivotFrames(NamedTuple):
    """Frames X_c = W_x S R_x^-1, Y_c = W_y T R_y^-1 of a pivot pair as the
    stacks W = (W_x, W_y) and R = (R_x, R_y), the diagonals s, t of S, T
    zero-padded to max(d1, d2), and the cut on them: the singular frames
    (_pivot_frames), with unitary W and R, or the eigen frames of a square
    pencil (_eigen_frames), with S = T = I."""

    W: np.ndarray
    R: np.ndarray
    s: np.ndarray
    t: np.ndarray
    cut: float
    unitary: bool = True


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


def _star_part(G: MatrixAlgebra, tol: Tolerances) -> tuple:
    """A stacked basis of G cap G^dag, where every unitary of G lies, and the
    factor 1 + 1/gap by which restricting to it widens the plain system's cut.

    A shape keeps its basis (factor 1). A span's orthonormal F_j =
    span_q[:, j] combine over the right singular vectors, at most
    residual_abs, of K = (I - conj(Q) Q^T) vec(F_j^T): ||K a|| is how far
    (sum a_j F_j)^dag lies off G. An element whose adjoint lies r off G lies
    r / gap off them, gap K's next singular value: a cut rank_rel (1 + 1/gap)
    sigma_1 keeps solutions within rank_rel of the equations and G cap G^dag.
    A star-closed span has no singular value above the cut, so it gets an
    orthonormal basis of all of G and factor 1, whatever basis G was given in.
    """
    if G.factor_shape is not None:
        return np.stack(G.basis), 1.0
    Q = G.span_q
    T = Q.T.reshape(-1, G.dim, G.dim).transpose(0, 2, 1).reshape(Q.shape[1], -1).T
    _, s, vh = np.linalg.svd(T - Q.conj() @ (Q.T @ T), full_matrices=False)
    r = numerical_rank(s, Tolerances(rank_rel=tol.residual_abs), 1.0)
    return (vh[r:].conj() @ Q.T).reshape(-1, G.dim, G.dim), (1.0 + 1.0 / s[r - 1] if r else 1.0)


def _separate_unknowns(E1, E2):
    """Basis pairs (E1[j], 0), then (0, E2[k]): one column per unknown of A, then of B."""
    return (np.concatenate([E1, np.zeros((len(E2),) + E1.shape[1:], dtype=complex)]),
            np.concatenate([np.zeros((len(E1),) + E2.shape[1:], dtype=complex), E2]))


def _pivot_pair(Z, seed: int, key: int = 0) -> np.ndarray:
    """The pivot pair (X_c, Y_c) = sum_i c_i (X_i, Y_i) of the (n, 2, a, a') stack
    Z of pairs, in one product, for c the unit vector along n complex
    coefficients whose real and imaginary parts are uniform on [-1, 1).

    The 2n parts are words 1, ..., 2n of the stream (seed, "pivot", key),
    real parts first: key 0 for the pivot, 1 for the eigen frames' second
    combination; the sampler's streams (seed, "trial", t) reach neither.
    """
    words = _words(_stream_state(int(seed), "pivot", key), 0, 2 * len(Z))
    re, im = parts = (words >> np.uint64(11)).reshape(2, -1) * 2.0**-52 - 1.0  # 53 bits each
    c = (_RE_IM @ parts) / math.sqrt(re @ re + im @ im)  # the 2-norm as np.linalg.norm takes it
    return (c @ Z.reshape(len(Z), -1)).reshape(Z.shape[1:])


def _pivot_cut(tol: Tolerances) -> float:
    """The relative pivot cut, _PIVOT_MARGIN * eps / min(rank_rel, residual_abs)."""
    return _PIVOT_MARGIN * _EPS / min(tol.rank_rel, tol.residual_abs)


def _pivot_frames(P, tol: Tolerances) -> _PivotFrames:
    """Full SVDs of the pivot pair P = (X_c, Y_c) in one batched call, its padded
    spectra and its cut, _pivot_cut times max(1, s_1, t_1)."""
    W, sv, Rh = np.linalg.svd(P)
    cut = _pivot_cut(tol) * max(1.0, float(sv[:, 0].max()))
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


def _trace_no(Z, m, frames: _PivotFrames, tol: Tolerances) -> UepVerdict | None:
    """The exact NO that the traces of a regular pencil give, or None.

    Z is the prepared (n, 2, d, d) stack of square pairs (X_j, Y_j), n >= 2,
    m the scales m_i of the pairs as given (_pivot_prepared), and frames the
    singular frames X_c = W_x S R_x^dag, Y_c = W_y T R_y^dag of its pivot,
    both of full numerical rank. X_c^-1 = R_x S^-1 W_x^dag and Y_c^-1 give
    tr(X_c^-1 X_j) and tr(Y_c^-1 Y_j) for every pair j in one elementwise
    product, and M_j = X_c^-1 X_j, N_j = Y_c^-1 Y_j their norms.

    The bound. certificate_residuals accepts (A, B) when every given pair has
    E_i = A X_i B^-1 - Y_i with ||E_i||_F <= r max(1, ||Y_i||_F), r =
    residual_abs. The scaled pair's error E_i / m_i is then at most
    r max(1 / m_i, ||Y_i / m_i||_F), and 0 for a zero pair. The spanning QR
    and the pivot's unit vector c combine the scaled pairs with coefficient
    vectors of 2-norm at most 1, and the QR keeps the Y side's Frobenius
    norm, so by Cauchy-Schwarz every prepared pair's error E_j and the
    pivot's E_c lie within
        e = r (sum_i m_i^-2 + sum_j ||Y_j||_F^2)^(1/2)
    in Frobenius norm, the first sum over the nonzero pairs. A X_c B^-1 =
    Y_c + E_c holds exactly, so X_c^-1 X_j = B^-1 (Y_c + E_c)^-1 (Y_j + E_j) B
    and tr(X_c^-1 X_j) = tr((Y_c + E_c)^-1 (Y_j + E_j)). For G = Y_c^-1 E_c,
    ||G||_2 <= e / t_min = f with t_min = t_d; if f < 1, (I + G)^-1 =
    I - G (I + G)^-1 with ||G (I + G)^-1||_2 <= f / (1 - f), and

        (Y_c + E_c)^-1 (Y_j + E_j) - Y_c^-1 Y_j
            = Y_c^-1 E_j - G (I + G)^-1 (Y_c^-1 Y_j + Y_c^-1 E_j).

    A trace is at most d times the 2-norm, so the two traces differ by at most
    d [f + f / (1 - f) (||N_j||_F + f)], the Neumann bound with its
    second-order term kept. Added to it is the rounding margin
    d _pivot_cut max(1, ||(M_j, N_j)||_F), the cut that the clusters and
    eigenvalues are split at. Past the bound on some pair, no certificate
    passes the check: the NO names the pair j with the largest gap over its
    bound, and aux records trace_pair (j), trace_gap_ratio (that ratio) and
    trace_f (f). f >= 1 claims nothing. Two tests come first, each enough
    to claim nothing: every gap at most d _pivot_cut, below every bound,
    which ends a YES after the traces alone; and a nonzero m_i <= r / ||Y||_F,
    which makes f >= 1 (t_min <= ||Y_c||_F <= ||Y||_F over the stack), so
    that no m_i^-2 overflows.
    """
    d, r, cut = Z.shape[2], tol.residual_abs, _pivot_cut(tol)
    inverse = (frames.R / np.array((frames.s, frames.t))[:, None]) @ frames.W.conj().swapaxes(1, 2)
    traces = (Z * inverse.swapaxes(1, 2)).sum(axis=(2, 3))
    gap = np.abs(traces[:, 0] - traces[:, 1])
    if not gap.max() > d * cut:
        return None
    norm_y = frobenius(Z[:, 1])
    m = m[m > 0]
    if not m.min() * norm_y > r:
        return None
    f = float(r * math.sqrt((m ** -2.0).sum() + norm_y * norm_y) / frames.t[d - 1])
    if not f < 1.0:
        return None
    norms = np.sqrt(np.square((inverse @ Z).view(float)).sum(axis=(2, 3)))  # ||M_j||_F, ||N_j||_F
    bound = d * (f + f / (1 - f) * (norms[:, 1] + f) + cut * np.maximum(1.0, np.hypot(*norms.T)))
    ratio = gap / bound
    j = int(ratio.argmax())
    if not ratio[j] > 1.0:
        return None
    return _exact_no(f"traces of X_c^-1 X_j and Y_c^-1 Y_j differ at spanned pair index {j}",
                     certificate_kind="invertible",
                     aux={"trace_pair": j, "trace_gap_ratio": float(ratio[j]), "trace_f": f})


def _eigen_frames(Z, frames: _PivotFrames, seed: int, tol: Tolerances) -> tuple:
    """(eigen frames, pivot_eigen_margin) of the spanned (n, 2, d, d) stack Z of
    a regular pencil (n >= 2, X_c and Y_c of full numerical rank), from the
    singular frames of its pivot (X_c, Y_c); (None, None) where they do not
    apply.

    With X_c and Y_c invertible, every solution of A X_i = Y_i B has
    N B = B M for M = X_c^-1 X_c2 and N = Y_c^-1 Y_c2, (X_c2, Y_c2) the
    combination of pivot key 1; an invertible B makes them similar (the
    eigenvalues of a regular pencil are invariants of strict equivalence).
    Taken into the singular frames X_c = W_x S R_x^dag, R_x^dag M R_x =
    S^-1 W_x^dag X_c2 R_x needs no solve; one batched eig gives
    U diag(lam) U^-1 for both sides, and each eigenvalue of N is matched to
    its nearest of M. With V = (R_x U_x, R_y U_y), in the frames
    W = (X_c V_x, Y_c V_y) and R = V the pivot is (I, I) and the second
    combination (diag lam, diag lam), so A' = W_y^-1 A W_x equals
    B' = R_y^-1 B R_x, and (lam_k - lam_j) A'_jk = 0 leaves it diagonal.

    The frames apply when the match is one to one within the eigen cut,
    _pivot_cut times max(1, |lam|), and every gap between two eigenvalues of
    one side lies above it; pivot_eigen_margin is the smallest gap over the
    cut. A gap at the cut leaves the frames about eps / gap off, as a cluster
    split does in the singular frames; an ill-conditioned X_c or V multiplies
    that, which only the certificate check sees.
    """
    d = Z.shape[2]
    st = np.array((frames.s, frames.t))[:, :, None]
    rel = _pivot_cut(tol)
    lam, U = np.linalg.eig(frames.W.conj().swapaxes(1, 2) @ _pivot_pair(Z, seed, key=1)
                           @ frames.R / st)
    gaps = np.abs(lam[:, :, None] - lam[:, None, :])  # within each side
    gaps.reshape(2, -1)[:, ::d + 1] = np.inf
    match = np.abs(lam[0][:, None] - lam[1]).argmin(axis=1)
    cut = rel * max(1.0, float(np.abs(lam).max()))
    gap = float(gaps.min())
    if not gap > cut >= np.abs(lam[0] - lam[1][match]).max() or len(set(match.tolist())) < d:
        return None, None
    U[1] = U[1][:, match]
    ones = np.ones(d)
    return _PivotFrames(frames.W @ (st * U), frames.R @ U, ones, ones, rel, unitary=False), gap / cut


def _inverse(F, unitary: bool):
    """F^-1 for the matrix or stack F: its adjoint when F is unitary."""
    return F.conj().swapaxes(-1, -2) if unitary else np.linalg.inv(F)


def _into_frames(Z, frames: _PivotFrames):
    """X' = W_x^-1 X_i R_x and Y' = W_y^-1 Y_i R_y for the (n, 2, d1, d2) stack Z
    of pairs, as two stacks, in one GEMM per side for each factor."""
    n, _, d1, d2 = Z.shape
    T = (Z.transpose(1, 0, 2, 3).reshape(2, n * d1, d2) @ frames.R).reshape(2, n, d1, d2)
    T = _inverse(frames.W, frames.unitary) @ T.transpose(0, 2, 1, 3).reshape(2, d1, n * d2)
    return T.reshape(2, d1, n, d2).transpose(0, 2, 1, 3)


def _pivot_columns(frames: _PivotFrames, label, d1: int, d2: int) -> tuple:
    """The columns of _pivot_system for pivots of d1 x d2 pairs, as the units
    (r, c) and their weights alpha on A' and beta on B', and the system's aux.

    Of the units (j, k) with label[j] == label[k], those with
    w = max(s_k, t_j) above frames.cut keep one coupled column, alpha E_jk on
    A' and beta E_jk on B' for (alpha, beta) = (t_j, s_k) / hypot(s_k, t_j),
    with weight 0 on a side outside A' (d1 x d1) or B' (d2 x d2); a column
    with no side is dropped, as row (j, k) forces the other entry to 0. Then
    the units below the cut keep free columns E_jk in A', then in B'. aux
    holds pivot_unknowns (columns), pivot_free_units and
    pivot_coupling_margin (the smallest w / cut of a coupled column, None
    without one).
    """
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
    alpha, beta = alpha[idx], beta[idx]
    na = len(kept) + len(free_a)
    alpha[len(kept):na], alpha[na:], beta[len(kept):na], beta[na:] = 1.0, 0.0, 0.0, 1.0
    margin = float(weight[kept].min() / cut) if kept.size else None
    return (j[idx], k[idx], alpha, beta), {"pivot_unknowns": len(idx),
                                           "pivot_free_units": len(free_a) + len(free_b),
                                           "pivot_coupling_margin": margin}


def _pivot_system(XY, frames: _PivotFrames, columns, adjoint: bool) -> LinearSystem:
    """The reduced system of the rotated pairs XY = (X', Y') (_into_frames) in
    the pivot frames, on the columns (r, c, alpha, beta) of _pivot_columns.

    The rows are the entries of A' X'_i - Y'_i B', then with adjoint those of
    B' X'_i^dag - Y'_i^dag A', for X' = W_x^-1 X R_x and Y' = W_y^-1 Y R_y.
    The bases are the units alpha E_jk and beta E_jk, in the frames: a
    solution (A', B') carries back as (W_y A' W_x^-1, R_y B' R_x^-1). The
    scale is hypot(s_1, t_1), the size of the rotated pivot's rows; in
    frames that are not unitary the other rotated pairs can be far larger
    than the pivot (I, I), so there it is at least their largest entry.
    """
    X, Y = XY
    n, d1, d2 = X.shape
    r, c, alpha, beta = columns
    g = len(r)
    a, b = alpha.nonzero()[0], beta.nonzero()[0]
    (ra, ca, wa), (rb, cb, wb) = (r[a], c[a], alpha[a]), (r[b], c[b], beta[b])
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
    scale = float(np.hypot(frames.s[0], frames.t[0]))
    if not frames.unitary:
        scale = max(scale, float(np.abs(XY).max()))
    return LinearSystem(rows.reshape(-1, g), basis_a, basis_b, scale=scale)


def _usable_algebras(inst: UepInstance) -> None:
    """InvalidAlgebraError unless verify_algebra finds G1 and G2 both unital
    and multiplicatively closed, at its fixed bounds: `decide` and `verify`
    reject the same files at every setting."""
    for name, G in (("G1", inst.G1), ("G2", inst.G2)):
        report = verify_algebra(G)
        if not (report.unital and report.multiplicatively_closed):
            raise InvalidAlgebraError(
                f"{name} is not a usable algebra: unital={report.unital}, "
                f"multiplicatively_closed={report.multiplicatively_closed}"
            )


def build_linear_system(inst: UepInstance, tol: Tolerances = Tolerances()) -> LinearSystem:
    """Complex-linear constraint matrix of the linearized system.

    Unknowns are the coordinates of A over a basis of G1 cap G1^dag followed
    by those of B over one of G2 cap G2^dag (_star_part), whose larger factor
    f sets the scale f * sigma_1; a span's basis is orthonormal, so the
    system reads the span, never the basis the file wrote it in. decide_uep
    takes this plain system only with a span algebra; over factor shapes it
    is the reference that the pivot route (_pivot_system) is tested against.
    """
    _usable_algebras(inst)
    (E1, f1), (E2, f2) = (_star_part(G, tol) for G in (inst.G1, inst.G2))
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

    The 2k integers uniform on {1, ..., sample_max} drawn from the stream
    (seed, "trial", trial) (_uniform_ints) are the real, then the imaginary
    parts of the k complex coefficients.
    """
    k = space.dimension
    ints = _uniform_ints(_stream_state(int(cfg.seed), "trial", int(trial)), 2 * k, cfg.sample_max)
    coeffs = _RE_IM @ ints.reshape(2, k)
    return tuple((coeffs @ E.reshape(len(E), -1)).reshape(E.shape[1:]) for E in (space.A, space.B))


class SampleResult(NamedTuple):
    A: np.ndarray
    B: np.ndarray
    trials_used: int
    U: np.ndarray  # the certificate: the polar factors of A and of B
    V: np.ndarray  # (extract_unitaries), or for kind "invertible" A and B


def _full_rank(A, B, tol: Tolerances = Tolerances()) -> bool:
    """Whether the square A and B both have full numerical rank, from their
    singular values alone, in one batched SVD when they share a shape."""
    spectra = (np.linalg.svd(np.stack([A, B]), compute_uv=False) if A.shape == B.shape
               else [np.linalg.svd(M, compute_uv=False) for M in (A, B)])
    return all(numerical_rank(s, tol) == len(s) for s in spectra)


def sample_invertible(space: SolutionSpace, cfg: SamplerConfig, tol: Tolerances = Tolerances(),
                      kind: str = "unitary"):
    """Search the solution space for a pair with both blocks invertible.

    For kind "unitary" a candidate is accepted exactly when extract_unitaries
    takes its polar factors, which the hit keeps as U, V; for kind
    "invertible" when both blocks have full numerical rank (_full_rank), and
    the hit's U, V are A, B themselves. Returns the first hit, or None after
    all trials fail; in the latter case the caller reports the failure bound
    per_trial_bound ** trials.
    """
    if space.dimension < 1:
        raise InputError("sample_invertible needs a non-trivial solution space")
    for t in range(cfg.trials):
        A, B = draw_candidate(space, cfg, t)
        found = _accepted(A, B, tol, kind)
        if found is not None:
            return SampleResult(A, B, t + 1, *found)
    return None


def _accepted(A, B, tol: Tolerances, kind: str):
    """The certificate (U, V) of the candidate (A, B) under the sampler's rule
    for kind, or None when the rule rejects it."""
    if kind == "invertible":
        return (A, B) if _full_rank(A, B, tol) else None
    try:
        return extract_unitaries(A, B, tol)
    except DegenerateCandidateError:
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


def certificate_residuals(mode: str, payload, U, V):
    """(residual, defect) of the certificate (U, V) for an instance of mode.

    payload is what serialize.parse_instance returns for the mode. residual
    is the largest relative Frobenius residual of the mode's own equations:
    U X_i V^dag = Y_i, (U (x) V)|psi_i> = |phi_i>, (U (x) I) rho_i (U (x) I)^dag
    = sigma_i, (U (x) V) rho (U (x) V)^dag = sigma, or U X_i V^(-1) = Y_i for
    matpoly, whose U, V are the invertible A, B. defect is the worst side
    condition: the unitarity defect of U and V, with the distance to G1, G2
    for matrix-pairs; for matpoly 0.0 when A and B have full numerical rank
    at numerical_rank's default rank_rel (1e-10), otherwise inf (and the
    residual is then inf too). It takes no tolerances, so check_certificate
    and `uniequiv verify` compute the same pair at every setting. V is None
    exactly for unilocal-mixed; any other shape raises InputError, as do
    fewer outputs than inputs or more, and a mode not in MODES.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}, expected one of {MODES}")
    if mode == "matrix-pairs":
        dims, sides = (payload.d1, payload.d2), tuple(zip(*payload.pairs))
    elif mode == "matpoly":
        dims, sides = payload[0].shape, [F.coefficients for F in payload]
    else:  # pure-sets, unilocal-mixed: two lists of states; generic-mixed: one pair
        sides = ([payload[0]], [payload[1]]) if mode == "generic-mixed" else payload
        dims = (sides[0][0].d1, sides[0][0].d2)
        sides = [[s.amplitudes.reshape(dims) if mode == "pure-sets" else s.matrix for s in states]
                 for states in sides]
    if len(sides[0]) != len(sides[1]):
        raise InputError(f"{mode} certificate: {len(sides[0])} inputs but {len(sides[1])} outputs")
    expected = ((dims[0],) * 2, None if mode == "unilocal-mixed" else (dims[1],) * 2)
    for name, M, shape in zip("UV", (U, V), expected):
        got = None if M is None else np.shape(M)
        if got != shape:
            raise InputError(f"certificate {name} has shape {got}, expected {shape} for {mode}")
    X, Y = np.asarray(list(zip(*sides)), dtype=complex).transpose(1, 0, 2, 3)
    if mode == "matpoly":
        for name, M in zip("UV", (U, V)):
            if not np.isfinite(M).all():
                raise InputError(f"certificate {name} contains non-finite entries")
        if not _full_rank(U, V):
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
    verdict.residual, defect = certificate_residuals(mode, payload, verdict.U, verdict.V)
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
        return _exact_no("linear system has only the trivial solution", solution_dimension=0,
                         certificate_kind=kind)
    found = sample_invertible(space, cfg, tol, kind)
    if found is None:
        eps = per_trial_failure_bound(space.A.shape[1], space.B.shape[1], cfg.sample_max)
        return UepVerdict(verdict="NO", certainty="probabilistic",
                          trials_used=cfg.trials, failure_bound=eps ** cfg.trials,
                          solution_dimension=space.dimension, certificate_kind=kind,
                          detail="no invertible element found by randomized search")
    return UepVerdict(verdict="YES", certainty="probabilistic", U=found.U, V=found.V,
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


def _read_diagonal(XY, frames: _PivotFrames, tol: Tolerances, kind: str) -> UepVerdict | None:
    """The YES read off the rotated pairs XY = (X', Y') (_into_frames) of at
    least two d1 x d2 pairs, in frames where the indices 0, ..., r - 1,
    r = min(d1, d2), are one cluster each with a coupled column and the
    padded ones (s = t = 0) one cluster of their own; or None where the read
    does not give one.

    Two pairs in the eigen frames are the span of the pivot (I, I) and the
    second combination (diag lam, diag lam), so every diagonal matrix solves
    them: A' = B' = I is read once X'_i - Y'_i is screened, and reported as
    the solve's solution_dimension d. In all other such frames every
    solution is A' = diag(a), B' = diag(a) (+) C for d1 <= d2
    (_pivot_columns keeps the units (j, j) alone, with s_j = t_j for
    unitaries and S = T = I in the eigen frames, and leaves the padded
    block C free, (d - r) x (d - r) for d = max(d1, d2)), with
    a_j X'_i[j, k] = Y'_i[j, k] a_k for k < r and
    Y'_i[:, r:] C = diag(a) X'_i[:, r:]; for
    d1 > d2, C lies in A' and the transposed equations hold, so the read
    takes the transposes with X' and Y' swapped. Column k = 0 ties a_j to
    a_0 = 1 through p_j = sum_i Y'_i[j, 0] conj(X'_i[j, 0]): a_j = p_j / |p_j|
    for kind "unitary", whose a_j have modulus 1, and the least-squares
    p_j / sum_i |X'_i[j, 0]|^2 for "invertible". One least-squares solve of
    the stacked padded columns gives C. With every index tied to index 0 and
    C pinned by a of full column rank, the solutions form one line, which
    the solve would report as solution_dimension 1 and sample at its first
    trial.

    The read gives None when some |p_j| is at most rank_rel times the
    largest (index j is not tied to index 0, as when every pair shares the
    pivot's frames); when (n - 1) r < d - r, as the pivot's own padded
    columns are zero and the stack cannot reach full column rank (no solve
    is made); when the stack's smallest singular value is at most rank_rel
    times the larger of its largest and hypot(s_1, t_1), the scale of the
    solve's cut (pairs that are all multiples of one leave padded columns of
    rounding noise, whose one singular value is its own largest); when
    (A', B') leaves a relative residual above residual_abs on the rotated
    pairs; or when the sampler's rule rejects it. That rule reads the
    moduli: the singular values of B' are the |a_j| with those of C, and
    each must exceed rank_rel times the largest. The certificate is
    (A', B') for "invertible", and for "unitary" their polar factors, which
    are diag(a) itself (|a_j| = 1) and, for C, W Vh from its SVD.
    """
    X, Y = XY
    n, d1, d2 = X.shape
    if not frames.unitary and n == 2:
        if not _worst_relative(X - Y, Y) <= tol.residual_abs:
            return None
        eye = np.eye(d1, dtype=complex)
        return UepVerdict(verdict="YES", certainty="probabilistic", U=eye, V=eye, trials_used=1,
                          solution_dimension=d1, certificate_kind=kind)
    r, pad = min(d1, d2), abs(d1 - d2)
    if (n - 1) * r < pad:
        return None
    if d1 > d2:  # A' X' = Y' B' transposes to B'^T Y'^T = X'^T A'^T: C moves to the right
        X, Y = Y.swapaxes(1, 2), X.swapaxes(1, 2)
    p = (Y[:, :, 0] * X[:, :, 0].conj()).sum(axis=0)
    size = np.abs(p)
    if not size.min() > tol.rank_rel * size.max():
        return None
    a = p / (size if kind == "unitary" else np.square(np.abs(X[:, :, 0])).sum(axis=0))
    D, moduli = a[:, None] * X, np.abs(a)  # becomes diag(a) X' - Y' B'
    D[:, :, :r] -= Y[:, :, :r] * a
    if pad:
        C, _, _, sv = np.linalg.lstsq(Y[:, :, r:].reshape(-1, pad), D[:, :, r:].reshape(-1, pad),
                                      rcond=None)
        if numerical_rank(sv, tol, float(np.hypot(frames.s[0], frames.t[0]))) < pad:
            return None
        D[:, :, r:] -= Y[:, :, r:] @ C
    # transposed, the residual is measured against Y'^T, which is X here
    if not _worst_relative(D, X if d1 > d2 else Y) <= tol.residual_abs:
        return None
    B = np.zeros((r + pad, r + pad), dtype=complex)
    B[range(r), range(r)] = a
    if pad:
        W, sc, Vh = np.linalg.svd(C)
        moduli = np.concatenate([moduli, sc])
        B[r:, r:] = W @ Vh if kind == "unitary" else C
    if not moduli.min() > tol.rank_rel * moduli.max():
        return None
    A = B[:r, :r]
    return UepVerdict(verdict="YES", certainty="probabilistic", U=B.T if d1 > d2 else A,
                      V=A if d1 > d2 else B, trials_used=1, solution_dimension=1,
                      certificate_kind=kind)


def _solve_in_frames(Z, frames: _PivotFrames, label, cfg: SamplerConfig, tol: Tolerances,
                     kind: str, aux: dict) -> UepVerdict:
    """The verdict on the (n, 2, d1, d2) stack Z in frames, a YES carried back
    as A = W_y A' W_x^-1, B = R_y B' R_x^-1; the verdict records aux, then
    the aux of _pivot_columns.

    The stack is rotated into the frames once (_into_frames), for the read
    and the system alike. Frames whose indices below r = min(d1, d2) are one
    cluster each, with the padded indices one cluster of their own and
    low = max(s_r-1, t_r-1) above the cut, are read first (_read_diagonal)
    when Z holds two pairs or more: a single pair made the singular frames
    and is diagonal in them, so the read would find no index tied to
    another. The weights max(s_j, t_j) of the units (j, j) do not increase
    with j, so there _pivot_columns would couple every index below r and
    leave exactly the (d - r)^2 padded units free, d = max(d1, d2): a read
    YES records that aux from the frames, r + (d - r)^2 unknowns and the
    margin low / cut, and counts no columns. Everything else, and whatever
    the read declines, is _decide on the reduced system (_pivot_system,
    with the adjoint rows for kind "unitary"), unless its rows and bases
    would take more than _MAX_SYSTEM_BYTES: that is INCONCLUSIVE, and
    nothing is allocated.
    """
    n, _, d1, d2 = Z.shape
    r, d = min(d1, d2), len(label)
    XY = _into_frames(Z, frames)
    low = max(frames.s[r - 1], frames.t[r - 1])
    verdict = None
    if n > 1 and label[r - 1] == r - 1 and label[-1] == min(r, d - 1) and low > frames.cut:
        verdict = _read_diagonal(XY, frames, tol, kind)
        system_aux = {"pivot_unknowns": r + (d - r) ** 2, "pivot_free_units": (d - r) ** 2,
                      "pivot_coupling_margin": float(low / frames.cut)}
    if verdict is None:
        columns, system_aux = _pivot_columns(frames, label, d1, d2)
        g = len(columns[0])
        size = 16 * g * ((2 if kind == "unitary" else 1) * n * d1 * d2 + d1 * d1 + d2 * d2)
        if size > _MAX_SYSTEM_BYTES:
            verdict = UepVerdict(verdict="INCONCLUSIVE", certainty="probabilistic",
                                 certificate_kind=kind,
                                 detail=f"the reduced system of {g} unknowns would take {size} "
                                        f"bytes, over the budget of {_MAX_SYSTEM_BYTES} bytes")
        else:
            verdict = _decide(_pivot_system(XY, frames, columns, kind == "unitary"), cfg, tol,
                              kind)
    if verdict.verdict == "YES":
        (W_x, W_y), (R_x, R_y) = frames.W, frames.R
        verdict.U = W_y @ verdict.U @ _inverse(W_x, frames.unitary)
        verdict.V = R_y @ verdict.V @ _inverse(R_x, frames.unitary)
    verdict.aux.update(aux, **system_aux)
    return verdict


def _pivot_prepared(Z, cfg: SamplerConfig, tol: Tolerances) -> tuple:
    """(Z', frames, m) for the (n, 2, a, a') stack Z of pairs, which stays
    unchanged: Z' is a copy of Z with each nonzero pair divided by its largest
    real or imaginary part m_i (a norm would square the entries, and overflow
    near 1e154; m_i = 0 for a zero pair, left as it is), cut to its spanning
    pairs, and frames the singular frames of its pivot pair drawn from
    cfg.seed. Neither u X_j v^dag = Y_j nor A X_j = Y_j B changes when a pair
    is scaled, and one rank cut then sees small pairs next to large ones."""
    Z = np.array(Z, dtype=complex, order="C")
    R = Z.view(float).reshape(len(Z), -1)  # re and im of pair j in row j; dividing R divides Z
    m = np.abs(R).max(axis=1, keepdims=True)
    R /= m + (m == 0)
    Z = _spanning_pairs(Z)
    return Z, _pivot_frames(_pivot_pair(Z, cfg.seed), tol), m


def _pivot_decide(Z, cfg: SamplerConfig, tol: Tolerances) -> UepVerdict:
    """Decide u X_j v^dag = Y_j over two full algebras for the (n, 2, a, a')
    stack Z of pairs, leaving Z unchanged and a YES unchecked.

    On the prepared pairs (_pivot_prepared), differing spectra of the pivot
    are an exact NO; otherwise distinct singular values of the pivot, square
    or rectangular, are first read as one solution (_read_diagonal), and the
    rest, or what the read declines, solves the units inside each cluster of
    equal singular values (_clusters) with the adjoint rows and samples the
    solution space in the frames (_solve_in_frames). Only a YES's
    certificate is carried back. Every verdict past the pivot records the
    aux of _clusters and _pivot_columns.
    """
    Z, frames, _ = _pivot_prepared(Z, cfg, tol)
    if not same_spectrum(frames.s, frames.t, tol):
        return _exact_no("singular values differ at the random pivot pair sum_i c_i (X_i, Y_i)")
    label, aux = _clusters(frames)
    return _solve_in_frames(Z, frames, label, cfg, tol, "unitary", aux)


def _spectrum_no(pairs, tol: Tolerances, pair_detail: str, blocks=None, shape: tuple = (1, 1),
                 block_detail: str = "") -> UepVerdict | None:
    """The exact NO at the first of the stacked pairs whose singular values
    differ, worded pair_detail.format(i=i); else, given the pairs' realigned
    blocks (shape = (b, b') per pair), at the first block (i, p, q) whose
    singular values differ, worded block_detail.format(i=i, p=p, q=q); None
    when every spectrum matches. The first pair's blocks are compared alone,
    as a NO's mismatch mostly shows there, then the rest in one batch; the
    blocks of shape (1, 1) are the pairs themselves, and are not compared
    again."""
    ok, i = singular_value_prefilter(pairs, tol)
    if not ok:
        return _exact_no(pair_detail.format(i=i))
    if blocks is None or shape == (1, 1):
        return None
    first = shape[0] * shape[1]
    for lo, hi in ((0, first), (first, len(blocks))):
        ok, idx = singular_value_prefilter(blocks[lo:hi], tol)
        if not ok:
            i, p, q = (int(v) for v in np.unravel_index(lo + idx, (len(pairs),) + shape))
            return _exact_no(block_detail.format(i=i, p=p, q=q))
    return None


def _explained(verdict: UepVerdict, *spectra) -> UepVerdict:
    """The checked verdict of a pivot route when it is a YES; else the exact
    NO that _spectrum_no(*spectra) finds, or the verdict itself when every
    spectrum matches. So a certificate that passes check_certificate stands
    even where the comparison would say NO, which its residual allows only
    within about sqrt(rank) of the comparison's tolerance."""
    if verdict.verdict == "YES":
        return verdict
    return _spectrum_no(*spectra) or verdict


def decide_uep(inst: UepInstance, cfg: SamplerConfig = SamplerConfig(),
               tol: Tolerances = Tolerances()) -> UepVerdict:
    """Full decision pipeline; YES verdicts carry a verified (U, V) certificate.

    Over a span algebra, build_linear_system validates the algebras, so an
    invalid one raises before any NO, and builds the plain system. Factor
    shapes (a, b) and (a', b') (full is (d, 1)) are checked against d1 and
    d2 without a projection, so a shape that does not tile its dimension
    raises before any NO; _pivot_decide solves the realigned blocks,
    normalized pair by pair and spanned, and u, v lift to u (x) I_b,
    v (x) I_b'. The failure bound is that of the blocks' (a, a').
    On either route the solve decides: the pairs' (and then the blocks')
    singular values are compared only when it ends in anything but a
    verified YES, and a mismatch is the exact NO naming the pair or the
    block (_explained).
    """
    shapes = inst.G1.factor_shape, inst.G2.factor_shape
    pairs = np.array(inst.pairs)
    pair_detail = "singular values differ at pair index {i}"
    if None in shapes:
        return _explained(check_certificate(_decide(build_linear_system(inst, tol), cfg, tol),
                                            "matrix-pairs", inst, tol), pairs, tol, pair_detail)
    _usable_algebras(inst)  # unprojected: a shape passes when a * b = dim
    (a, b), (a2, b2) = shapes
    blocks = _realigned_blocks(pairs, (a, b), (a2, b2))
    verdict = _pivot_decide(blocks, cfg, tol)
    if verdict.verdict == "YES":
        verdict.U, verdict.V = (W if n == 1 else np.kron(W, np.eye(n))
                                for W, n in ((verdict.U, b), (verdict.V, b2)))
    return _explained(check_certificate(verdict, "matrix-pairs", inst, tol),
                      pairs, tol, pair_detail, blocks, (b, b2),
                      "singular values differ at block ({p}, {q}) of pair index {i}")


def decide_invertible_equivalence(P: MatrixPolynomial, Q: MatrixPolynomial,
                                  cfg: SamplerConfig = SamplerConfig(),
                                  tol: Tolerances = Tolerances()) -> UepVerdict:
    """Decide whether invertible A, B exist with A X_i B^(-1) = Y_i for all i.

    A X_i = Y_i B is solved over full algebras, without adjoint rows, on
    the coefficient pairs prepared as for the unitary pivot
    (_pivot_prepared: normalized pair by pair and spanned). A regular pencil
    (square, two or more spanned pairs, a pivot X_c, Y_c of full numerical
    rank) first compares tr(X_c^-1 X_j) with tr(Y_c^-1 Y_j)
    for every pair j: a gap past the bound that the certificate check
    allows is an exact NO, and no system is built (_trace_no). Otherwise a
    regular pencil of d >= 2 with distinct eigenvalues of X_c^-1 X_c2 is
    solved in d unknowns in its eigen frames (_eigen_frames), where it is
    first read without a system (_read_diagonal: its one diagonal solution,
    or A' = B' = I for a pencil of two coefficients, which is diagonal
    there), and their YES is checked at once; a YES that passes stands.
    Every other pencil, and an eigen-frame answer that is not a verified
    YES, is solved in the singular frames with every unit in one cluster
    (d^2 unknowns for square coefficients), and a YES checked there. The
    certificate is the sampled or read (A, B) itself, checked on the
    unscaled (P, Q). Coefficient ranks are invariant under the
    equivalence, but a rank gap can lie within the condition numbers that
    the check accepts, so they only word a NO: ranks that differ make it
    the exact NO naming the first such coefficient (_rank_no), and an
    INCONCLUSIVE, a candidate that failed the check, stays one. aux records
    trace_pair, trace_gap_ratio and trace_f on a trace NO, and on every
    verdict of a system pivot_unknowns, pivot_free_units,
    pivot_coupling_margin and pivot_eigen_margin (the smallest eigenvalue gap
    over the eigen cut, None unless the eigen frames answered); a rank NO
    records none.
    """
    if P.shape != Q.shape or P.degree != Q.degree:
        raise InputError("matrix polynomials must share shape and degree")
    Z = np.stack([P.coefficients, Q.coefficients], axis=1)
    spanned, frames, m = _pivot_prepared(Z, cfg, tol)
    n, _, d, d2 = spanned.shape
    regular = (n >= 2 and d == d2
               and all(numerical_rank(st, tol) == len(st) for st in (frames.s, frames.t)))
    verdict = _trace_no(spanned, m, frames, tol) if regular else None
    if verdict is None:
        # a 1 x 1 pencil has no eigenvalue gap, and its singular frames hold one unknown
        eigen, margin = (_eigen_frames(spanned, frames, cfg.seed, tol) if regular and d > 1
                         else (None, None))
        tries = [(eigen, np.arange(d), margin)] if eigen is not None else []
        for F, label, eigen_margin in tries + [(frames, np.zeros(len(frames.s), dtype=int), None)]:
            verdict = _solve_in_frames(spanned, F, label, cfg, tol, "invertible",
                                       {"pivot_eigen_margin": eigen_margin})
            verdict = check_certificate(verdict, "matpoly", (P, Q), tol)
            if verdict.verdict == "YES":
                return verdict
    return (verdict.verdict == "NO" and _rank_no(Z, tol)) or verdict


def _rank_no(Z, tol: Tolerances) -> UepVerdict | None:
    """The exact NO at the first coefficient pair of the (n, 2, a, a') stack Z
    whose numerical ranks differ, or None. Ranks are invariant under the
    equivalence, but a gap may lie within the condition numbers the check
    accepts, so decide_invertible_equivalence compares them only to word a
    NO."""
    for idx, (sx, sy) in enumerate(np.linalg.svd(Z, compute_uv=False)):
        if numerical_rank(sx, tol) != numerical_rank(sy, tol):
            return _exact_no(f"coefficient ranks differ at index {idx}",
                             certificate_kind="invertible")
    return None


def uep_instance_full(d1: int, d2: int, pairs) -> UepInstance:
    """Convenience constructor with both algebras full."""
    return UepInstance(d1=d1, d2=d2, pairs=tuple(pairs),
                       G1=full_algebra(d1), G2=full_algebra(d2))
