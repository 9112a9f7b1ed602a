"""Property-based invariances of decide_uep on small full and factor instances,
its agreement with the plain system over mixed factor shapes, of
generic_mixed_lu under local unitaries, of the matpoly verdict under
(P, Q) -> (S P T, Q) and swapping P and Q, the matpoly trace NO against
noisy planted pencils whose certificate passes, of the pure-sets verdict under
swapping inputs with outputs and local unitaries on the inputs, the state
reductions against the
decide_uep round trip they replaced, and of the pivot reductions'
solution spaces (matrix pairs and matrix polynomials); the exact NO that
the deferred singular-value comparisons give on every pivot route; and the Gram route of nullspace_basis against the dense
QR + SVD reference on planted spectra around the rank cut."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from uniequiv import (MatrixPolynomial, SamplerConfig, Tolerances, UepInstance,
                      build_linear_system, decide_invertible_equivalence, decide_uep,
                      density_operator, generic_mixed_lu, nullspace_basis, pure_state,
                      sample_invertible, simultaneous_lu_pure, singular_value_prefilter,
                      solve_solution_space, uep_instance_full, unilocal_mixed_equivalence)
from uniequiv.algebra import span_residual
from uniequiv.linalg import same_spectrum
from uniequiv.oracle import haar_unitary_in_algebra, random_yes_instance
from uniequiv.solver import (SolutionSpace, _clusters, _into_frames, _pivot_columns, _pivot_frames,
                             _pivot_pair, _pivot_system, certificate_residuals)

import uniequiv.solver as solver_mod

from conftest import ginibre, haar, random_density
from exact_reference import (dense_nullspace_basis, generic_mixed_by_matrix_pairs,
                             lu_by_matrix_pairs)

SETTINGS = settings(max_examples=25, deadline=None)


def _with_pairs(inst, pairs):
    return UepInstance(d1=inst.d1, d2=inst.d2, pairs=tuple(pairs), G1=inst.G1, G2=inst.G2)


def _algebra_unitaries(inst, rng):
    return haar_unitary_in_algebra(inst.G1, rng), haar_unitary_in_algebra(inst.G2, rng)


@st.composite
def instances(draw):
    """A planted YES instance, or a NO one whose last pair is regauged by its
    own unitaries (the singular values still match, so the solver decides)."""
    seed = draw(st.integers(0, 2**16))
    kinds = [draw(st.sampled_from(["full", ("factor", 2, 2), ("factor", 1, 3)])) for _ in "12"]
    d1, d2 = (draw(st.integers(1, 4)) if k == "full" else k[1] * k[2] for k in kinds)
    m = draw(st.integers(0, 2))
    inst, _ = random_yes_instance(d1, d2, m, *kinds, seed=seed)
    if m and draw(st.booleans()):
        U, V = _algebra_unitaries(inst, np.random.default_rng(seed))
        X, Y = inst.pairs[-1]
        inst = _with_pairs(inst, inst.pairs[:-1] + ((X, U @ Y @ V.conj().T),))
    return inst, seed


def _assert_same_decision(inst, other, seed):
    cfg = SamplerConfig(seed=seed)
    v1, v2 = decide_uep(inst, cfg), decide_uep(other, cfg)
    assert ((v1.verdict, v1.certainty, v1.solution_dimension)
            == (v2.verdict, v2.certainty, v2.solution_dimension))


@SETTINGS
@given(instances(), st.integers(0, 2**16))
def test_invariant_under_unitaries_of_the_algebras(case, unitary_seed):
    # (A, B) solves the system for Y_i exactly when (U1 A, V1 B) does for U1 Y_i V1^dag
    inst, seed = case
    U1, V1 = _algebra_unitaries(inst, np.random.default_rng(unitary_seed))
    moved = _with_pairs(inst, ((X, U1 @ Y @ V1.conj().T) for X, Y in inst.pairs))
    _assert_same_decision(inst, moved, seed)


@SETTINGS
@given(instances(), st.data())
def test_invariant_under_pair_permutation(case, data):
    inst, seed = case
    order = data.draw(st.permutations(range(len(inst.pairs))))
    _assert_same_decision(inst, _with_pairs(inst, (inst.pairs[i] for i in order)), seed)


@SETTINGS
@given(instances(), st.floats(1 / 8, 8))
def test_invariant_under_global_scaling(case, c):
    # (A, B) solves the system for (X_i, Y_i) exactly when it does for (c X_i, c Y_i)
    inst, seed = case
    _assert_same_decision(inst, _with_pairs(inst, ((c * X, c * Y) for X, Y in inst.pairs)), seed)


@st.composite
def per_pair_scales(draw):
    """Three pairs over full (2..6) or factor algebras, planted YES or with the
    last pair regauged as in instances(), and a power 10^k per pair, k drawn
    uniformly from [-6, 6] by the seed (hypothesis would repeat one k)."""
    seed = draw(st.integers(0, 2**16))
    kinds = [draw(st.sampled_from(["full", ("factor", 2, 2), ("factor", 3, 2), ("factor", 2, 3)]))
             for _ in "12"]
    d1, d2 = (draw(st.integers(2, 6)) if k == "full" else k[1] * k[2] for k in kinds)
    inst, _ = random_yes_instance(d1, d2, 2, *kinds, seed=seed)
    if draw(st.booleans()):
        U, V = _algebra_unitaries(inst, np.random.default_rng(seed))
        X, Y = inst.pairs[-1]
        inst = _with_pairs(inst, inst.pairs[:-1] + ((X, U @ Y @ V.conj().T),))
    return inst, seed, np.random.default_rng([seed, 2]).integers(-6, 7, size=3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(per_pair_scales())
def test_invariant_under_per_pair_scales(case):
    # (A, B) solves the system for (X_i, Y_i) exactly when it does for
    # (c_i X_i, c_i Y_i); one rank cut over pairs left at their own scales
    # would lose the small pairs' constraints
    inst, seed, powers = case
    scaled = _with_pairs(inst, ((10.0 ** k * X, 10.0 ** k * Y)
                                for (X, Y), k in zip(inst.pairs, powers)))
    _assert_same_decision(inst, scaled, seed)


@SETTINGS
@given(st.sampled_from([(2, 2), (2, 3)]), st.integers(0, 2**16), st.integers(0, 2**16))
def test_generic_mixed_yes_under_repeated_local_unitaries(dims, seed, sampler_seed):
    # the NO tests run before the solver must never fire on LU-equivalent states
    d1, d2 = dims
    rng = np.random.default_rng(seed)
    rho = sigma = random_density(d1, d2, rng, min_gap=1e-3)
    for _ in range(2):
        local = np.kron(haar(d1, rng), haar(d2, rng))
        sigma = density_operator(d1, d2, local @ sigma.matrix @ local.conj().T)
        assert generic_mixed_lu(rho, sigma, SamplerConfig(seed=sampler_seed)).verdict == "YES"


@st.composite
def factor_shape_instances(draw):
    """Instances over factor shapes (a, b) and (a', b') in 1..3, mixing full
    (b = 1) and factor kinds, square or not: planted YES; I (x) W, with
    Y_i = (I_a (x) W1) X_i (I_a' (x) W2)^dag, which keeps the spectrum of
    every pair (a phase, so a YES, when b = b' = 1); gauged, with unitaries
    of the algebras drawn per pair, which keeps the spectrum of every block
    (a NO for m >= 1 that no block prefilter sees); and random NO."""
    shapes = [(draw(st.integers(1, 3)), draw(st.integers(1, 3))) for _ in "12"]
    kinds = ["full" if b == 1 else ("factor", a, b) for a, b in shapes]
    family = draw(st.sampled_from(["planted", "ixw", "gauged", "random"]))
    seed = draw(st.integers(0, 2**16))
    (a, b), (a2, b2) = shapes
    inst, _ = random_yes_instance(a * b, a2 * b2, draw(st.integers(0, 2)), *kinds, seed=seed)
    rng = np.random.default_rng([seed, 1])  # apart from the planted instance's stream
    if family == "ixw":
        L, R = np.kron(np.eye(a), haar(b, rng)), np.kron(np.eye(a2), haar(b2, rng))
        inst = _with_pairs(inst, ((X, L @ X @ R.conj().T) for X, _ in inst.pairs))
    elif family == "gauged":
        inst = _with_pairs(inst, ((X, U @ X @ V.conj().T) for X, _ in inst.pairs
                                  for U, V in [_algebra_unitaries(inst, rng)]))
    elif family == "random":
        inst = _with_pairs(inst, ((X, ginibre(*X.shape, rng)) for X, _ in inst.pairs))
    return inst, draw(st.integers(0, 2**16)), family == "planted"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(factor_shape_instances())
def test_factor_shapes_decide_as_the_plain_system(case):
    # the realigned blocks carry the plain system's solutions: the same
    # dimension wherever a solve ran, and an invertible element exactly when
    # the plain space has one
    inst, seed, planted = case
    cfg = SamplerConfig(seed=seed)
    verdict = decide_uep(inst, cfg)
    plain = solve_solution_space(build_linear_system(inst))
    if verdict.solution_dimension is not None:
        assert verdict.solution_dimension == plain.dimension
    has_invertible = plain.dimension > 0 and sample_invertible(plain, cfg) is not None
    assert verdict.verdict == ("YES" if has_invertible else "NO")
    assert has_invertible or not planted
    if has_invertible:
        assert span_residual(inst.G1, verdict.U) <= 1e-10
        assert span_residual(inst.G2, verdict.V) <= 1e-10


# merged at the default tolerances' cut (about 2.2e-3), and split just above it
GAPS = (1e-9, 1e-8, 1e-7, 1.5e-6, 1e-5, 3e-3, 1e-2)


@st.composite
def full_pairs(draw):
    """Pairs over two full algebras, drawn for the pivot reduction: generic,
    rank-deficient (shared range and kernel), one cluster (scaled unitaries,
    all-zero pairs), and shared frames X_i = a_i W D R^dag whose spectrum D has
    one pair of singular values split by a relative gap from GAPS. Y_i is
    U X_i V^dag (planted), or U X_i^T V^dag when square, which keeps the
    spectrum of every combination of the pairs but is not an equivalence in
    general."""
    kind = draw(st.sampled_from(["generic", "rank-deficient", "one-cluster", "zero", "split"]))
    d1, d2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if kind == "one-cluster":
        d2 = d1
    if kind == "split":
        d1, d2 = max(d1, 2), max(d2, 2)
    m = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    coeffs = ginibre(m + 1, 1, rng).ravel() + 0.5
    if kind == "generic":
        Xs = [ginibre(d1, d2, rng) for _ in range(m + 1)]
    elif kind == "rank-deficient":
        r = draw(st.integers(1, max(1, min(d1, d2) - 1)))
        L, R = ginibre(d1, r, rng), ginibre(r, d2, rng)
        Xs = [L @ ginibre(r, r, rng) @ R for _ in range(m + 1)]
    elif kind == "one-cluster":
        Q = haar(d1, rng)
        Xs = [a * Q for a in coeffs]
    elif kind == "zero":
        Xs = [np.zeros((d1, d2), dtype=complex) for _ in range(m + 1)]
    else:
        n = min(d1, d2)
        s = np.sort(rng.uniform(0.5, 2.0, size=n))[::-1]
        k = draw(st.integers(0, n - 2))
        s[k + 1] = s[k] - draw(st.sampled_from(GAPS)) * s[0]
        D = np.zeros((d1, d2))
        D[np.arange(n), np.arange(n)] = s
        W, R = haar(d1, rng), haar(d2, rng)
        Xs = [a * (W @ D @ R.conj().T) for a in coeffs]
    transpose = d1 == d2 and draw(st.booleans())
    U, V = haar(d1, rng), haar(d2, rng)
    pairs = [(X, U @ (X.T if transpose else X) @ V.conj().T) for X in Xs]
    return uep_instance_full(d1, d2, pairs), draw(st.integers(0, 2**16)), not transpose


def _largest_angle_sine(Q1, Q2):
    """Sine of the largest principal angle between two orthonormal column spans."""
    return np.linalg.norm(Q2 - Q1 @ (Q1.conj().T @ Q2), 2)


def _reduced_system(Z, frames, label, adjoint):
    """The reduced system of the (n, 2, d1, d2) stack Z in frames, on the
    columns that label keeps, and the aux of those columns."""
    columns, aux = _pivot_columns(frames, label, *Z.shape[2:])
    return _pivot_system(_into_frames(Z, frames), frames, columns, adjoint), aux


def _carried_back(space, frames):
    """A solution space of a reduced pivot system, taken from the pivot frames
    to the original ones: (W_y A W_x^dag, R_y B R_x^dag)."""
    (W_x, W_y), (R_x, R_y) = frames.W, frames.R
    return SolutionSpace(W_y @ space.A @ W_x.conj().T, R_y @ space.B @ R_x.conj().T)


def _stacked_basis(space):
    """Orthonormal basis of the space of vec A (+) vec B, one column per basis pair."""
    cols = np.array([np.concatenate([A.ravel(), B.ravel()]) for A, B in zip(space.A, space.B)]).T
    return np.linalg.qr(cols)[0] if space.dimension else cols


# derandomized: at a 1e-9 gap the two computed nullspaces each sit about
# eps * sigma_max / gap ~ 1e-7 from the exact one, so one draw in some
# thousands lands near the 1e-6 bound on either side
@settings(max_examples=80, deadline=None, derandomize=True)
@given(full_pairs())
def test_pivot_reduction_keeps_the_solution_space(case):
    # merging pivot clusters only enlarges the searched space, and a block
    # the frames rule out holds no solution, so the reduced and unreduced
    # systems share their nullspace
    inst, seed, planted = case
    Z = np.array(inst.pairs)
    frames = _pivot_frames(_pivot_pair(Z, seed), Tolerances())
    assert same_spectrum(frames.s, frames.t, Tolerances())
    system, _ = _reduced_system(Z, frames, _clusters(frames)[0], adjoint=True)
    full = solve_solution_space(build_linear_system(inst))
    reduced = _carried_back(solve_solution_space(system), frames)
    assert reduced.dimension == full.dimension
    if planted:
        assert decide_uep(inst, SamplerConfig(seed=seed)).verdict == "YES"
    if full.dimension:
        assert _largest_angle_sine(_stacked_basis(full), _stacked_basis(reduced)) <= 1e-6


@st.composite
def matpoly_pairs(draw):
    """Coefficient pairs (X_i, Y_i) of two degree-m matrix polynomials: generic,
    planted (Y_i = A X_i B^-1), rank-deficient planted, a zero coefficient next
    to a rectangular identity (planted), and a commuting pencil (I, Z, Z^2, ...)
    against a similar one, whose solutions (m >= 1) are the d-dimensional
    commutant of Z carried by the similarity."""
    kind = draw(st.sampled_from(["generic", "planted", "rank-deficient", "zero-identity",
                                 "pencil"]))
    d1, d2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    m = draw(st.integers(1 if kind == "zero-identity" else 0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "pencil":
        d2 = d1
        Z = ginibre(d1, d1, rng)
        Xs = [np.linalg.matrix_power(Z, i) for i in range(m + 1)]
    elif kind == "rank-deficient":
        r = draw(st.integers(1, max(1, min(d1, d2) - 1)))
        L, R = ginibre(d1, r, rng), ginibre(r, d2, rng)
        Xs = [L @ ginibre(r, r, rng) @ R for _ in range(m + 1)]
    elif kind == "zero-identity":
        Xs = [np.zeros((d1, d2)), np.eye(d1, d2)] + [ginibre(d1, d2, rng) for _ in range(m - 1)]
    else:
        Xs = [ginibre(d1, d2, rng) for _ in range(m + 1)]
    if kind == "generic":
        Ys = [ginibre(d1, d2, rng) for _ in range(m + 1)]
    else:
        A = ginibre(d1, d1, rng) + 2 * np.eye(d1)
        B = A if kind == "pencil" else ginibre(d2, d2, rng) + 2 * np.eye(d2)
        Ys = [A @ X @ np.linalg.inv(B) for X in Xs]
    return tuple(zip(Xs, Ys)), draw(st.integers(0, 2**16)), kind != "generic"


def _unreduced_matpoly_space(pairs, tol):
    """Orthonormal basis of the solutions (vec A, vec B) of A X_i = Y_i B, from one
    SVD of the plain system in 2d^2 unknowns (row-major vec, so vec(A X) =
    kron(I, X^T) vec A and vec(Y B) = kron(Y, I) vec B)."""
    d1, d2 = pairs[0][0].shape
    M = np.vstack([np.hstack([np.kron(np.eye(d1), X.T), -np.kron(Y, np.eye(d2))])
                   for X, Y in pairs])
    _, s, vh = np.linalg.svd(M)
    rank = int(np.count_nonzero(s > tol.rank_rel * s[0])) if s[0] > 0 else 0
    return vh[rank:].conj().T


# derandomized like the pair reduction above; 3,000 seeded draws of these
# families kept every dimension, with largest angle sines below 4e-13
@settings(max_examples=150, deadline=None, derandomize=True)
@given(matpoly_pairs())
def test_matpoly_pivot_reduction_keeps_the_solution_space(case):
    # the coupled columns span every solution of the pivot rows, so the
    # reduced system in d^2 unknowns has the unreduced one's nullspace
    pairs, seed, planted = case
    tol = Tolerances()
    Z = np.array(pairs, dtype=complex)
    frames = _pivot_frames(_pivot_pair(Z, seed), tol)
    system, aux = _reduced_system(Z, frames, np.zeros(len(frames.s), dtype=int), adjoint=False)
    reduced = _carried_back(solve_solution_space(system, tol), frames)
    full = _unreduced_matpoly_space(pairs, tol)
    assert reduced.dimension == full.shape[1]
    assert aux["pivot_unknowns"] == system.matrix.shape[1] >= reduced.dimension
    if planted:
        P, Q = (MatrixPolynomial(side) for side in zip(*pairs))
        assert decide_invertible_equivalence(P, Q, SamplerConfig(seed=seed)).verdict == "YES"
    if reduced.dimension:
        assert _largest_angle_sine(full, _stacked_basis(reduced)) <= 1e-6


def _well_conditioned(n, rng):
    """W_1 diag(1..2) W_2 for Haar W_1, W_2: condition number at most 2."""
    return (haar(n, rng) * rng.uniform(1.0, 2.0, size=n)) @ haar(n, rng)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matpoly_pairs(), st.integers(0, 2**16))
def test_matpoly_verdict_invariant_under_equivalence_and_swap(case, transform_seed):
    # A P_i B^-1 = Q_i holds exactly when (A S^-1) (S P_i T) (B T)^-1 = Q_i
    # and A^-1 Q_i B = P_i, so neither change can move the verdict
    pairs, seed, _ = case
    cfg = SamplerConfig(seed=seed)
    P, Q = (MatrixPolynomial(side) for side in zip(*pairs))
    rng = np.random.default_rng(transform_seed)
    S, T = (_well_conditioned(n, rng) for n in P.shape)
    moved = MatrixPolynomial(tuple(S @ X @ T for X in P.coefficients))
    verdict = decide_invertible_equivalence(P, Q, cfg).verdict
    assert decide_invertible_equivalence(moved, Q, cfg).verdict == verdict
    assert decide_invertible_equivalence(Q, P, cfg).verdict == verdict


@st.composite
def square_pencils(draw):
    """Planted matrix polynomials Y_i = A X_i B^-1 with X_i = G D_i H and the
    spectrum of X_c^-1 X_c2 set by the D_i: diagonal with random entries
    (distinct eigenvalues), with D_i[1, 1] = D_i[0, 0] (a repeated one), that
    plus a random D_i[0, 1] (a 2 x 2 Jordan block), D_i[1, 1] 1e-12 relative
    off D_i[0, 0] (two clustered ones), or rectangular random coefficients."""
    kind = draw(st.sampled_from(["distinct", "repeated", "jordan", "clustered", "rectangular"]))
    d = draw(st.integers(2, 8))
    m = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "rectangular":
        d2 = d + draw(st.sampled_from([-1, 1]))
        Xs = [ginibre(d, d2, rng) for _ in range(m + 1)]
    else:
        d2 = d
        G, H = (ginibre(d, d, rng) + 3 * np.eye(d) for _ in "GH")
        Ds = [np.diag(ginibre(1, d, rng).ravel()) for _ in range(m + 1)]
        for D in Ds:
            if kind == "clustered":
                D[1, 1] = D[0, 0] * (1 + 1e-12 * ginibre(1, 1, rng)[0, 0])
            elif kind != "distinct":
                D[1, 1] = D[0, 0]
            if kind == "jordan":
                D[0, 1] = ginibre(1, 1, rng)[0, 0]
        Xs = [G @ D @ H for D in Ds]
    A, B = ginibre(d, d, rng) + 2 * np.eye(d), ginibre(d2, d2, rng) + 2 * np.eye(d2)
    Ys = [A @ X @ np.linalg.inv(B) for X in Xs]
    return kind, MatrixPolynomial(tuple(Xs)), MatrixPolynomial(tuple(Ys)), draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(square_pencils())
def test_eigen_frames_answer_exactly_the_distinct_spectra(case):
    # every planted pencil is a YES; the eigen frames answer it (their margin
    # is recorded) only for distinct, well-separated eigenvalues, with one
    # unknown per eigenvalue, and the singular frames alone decide the rest
    kind, P, Q, seed = case
    verdict = decide_invertible_equivalence(P, Q, SamplerConfig(seed=seed))
    assert verdict.verdict == "YES" and verdict.residual <= 1e-8, (kind, verdict.detail)
    if kind == "distinct":
        assert verdict.aux["pivot_eigen_margin"] > 1.0
        assert verdict.aux["pivot_unknowns"] == P.shape[0]
    else:
        assert verdict.aux["pivot_eigen_margin"] is None


@st.composite
def noisy_planted_pencils(draw):
    """(P, Q, A, B, seed) with Q_i = Y_i + eta ||Y_i||_F N_i, Y_i = A P_i B^-1,
    for complex Gaussian P_i and N_i, square or rectangular, d1, d2 in 2..8,
    degree 1 to 3 and eta from 1e-12 to 1e-8: the planted A, B then leave a
    relative residual of about eta sqrt(d1 d2), on either side of the
    certificate check's bound."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    d1 = draw(st.integers(2, 8))
    d2 = d1 if draw(st.booleans()) else draw(st.integers(2, 8))
    eta = 10.0 ** draw(st.floats(-12.0, -8.0))
    A, B = ginibre(d1, d1, rng) + 2 * np.eye(d1), ginibre(d2, d2, rng) + 2 * np.eye(d2)
    Binv = np.linalg.inv(B)
    Xs = [ginibre(d1, d2, rng) for _ in range(draw(st.integers(2, 4)))]
    Ys = [Y + eta * np.linalg.norm(Y) * ginibre(d1, d2, rng) for Y in (A @ X @ Binv for X in Xs)]
    return MatrixPolynomial(tuple(Xs)), MatrixPolynomial(tuple(Ys)), A, B, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(noisy_planted_pencils())
def test_a_verified_planted_pencil_is_never_a_trace_no(case):
    # the trace bound holds for every certificate that passes the check, so
    # the planted one rules out a trace NO; other NOs are out of its scope
    P, Q, A, B, seed = case
    assume(certificate_residuals("matpoly", (P, Q), A, B)[0] <= Tolerances().residual_abs)
    verdict = decide_invertible_equivalence(P, Q, SamplerConfig(seed=seed))
    assert "trace_pair" not in verdict.aux, verdict.detail


def _scale_spectrum(M, rng):
    """M with its singular values scaled by independent factors in [1.001, 1.01]."""
    W, s, Vh = np.linalg.svd(M)
    n = len(s)
    return (W[:, :n] * (s * rng.uniform(1.001, 1.01, n))) @ Vh[:n]


def _blocks(M, shape1, shape2):
    """The blocks M[(r, p), (c, q)] over r, c, in the order (p, q)."""
    (a, b), (a2, b2) = shape1, shape2
    M = M.reshape(a, b, a2, b2)
    return [M[:, p, :, q] for p in range(b) for q in range(b2)]


def _named_mismatch(pairs, shape1, shape2):
    """(i,) for the first pair, else (i, p, q) for the first block, that
    singular_value_prefilter finds, run over the pairs, then over the blocks."""
    ok, i = singular_value_prefilter(pairs)
    if not ok:
        return (i,)
    blocks = [bp for X, Y in pairs
              for bp in zip(_blocks(X, shape1, shape2), _blocks(Y, shape1, shape2))]
    ok, idx = singular_value_prefilter(blocks)
    assert not ok
    return tuple(np.unravel_index(idx, (len(pairs), shape1[1], shape2[1])))


def _local(b, swap, rng):
    """A Haar unitary of size b, or the permutation swapping its last two indices."""
    if not swap or b == 1:
        return haar(b, rng)
    order = np.arange(b)
    order[-2:] = order[-2:][::-1]
    return np.eye(b)[order]


@st.composite
def spectrum_nos(draw):
    """NO instances whose spectra differ: over two full algebras or factor
    shapes (square, rectangular, or a full algebra against a factor one), in
    pure-sets and in unilocal-mixed with 1-3 states. Over factor shapes and
    in unilocal-mixed, one pair's singular values are scaled, one block's
    singular values are scaled, or I (x) V acts on the factor sides of one
    pair, which keeps the pair's spectrum but, generically, not its blocks'.
    V is Haar, or the swap of the last two indices, whose first mismatch is
    a block past (0, 0) when b' > 2. Over full algebras, where the blocks
    are the pairs, and in pure-sets, where the Schmidt coefficients are
    renormalized, one pair's singular values are scaled."""
    plant = draw(st.sampled_from(["pair", "block", "ixv"]))
    swap = plant == "ixv" and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    seed = draw(st.integers(0, 2**16))
    mode = draw(st.sampled_from(["pairs", "pure", "unilocal"]))
    if mode == "pairs":
        kind = draw(st.sampled_from(["square", "rectangular", "mixed", "full"]))
        a, b = draw(st.integers(1, 3)), draw(st.integers(2, 3))
        if kind == "full":
            a, b, plant = draw(st.integers(1, 6)), 1, "pair"
        shape2 = {"square": (a, b), "mixed": (draw(st.integers(2, 6)), 1),
                  "rectangular": (draw(st.integers(1, 3)), draw(st.integers(1, 3))),
                  "full": (draw(st.integers(1, 6)), 1)}[kind]
        shapes = [(a, b), shape2][::draw(st.sampled_from([1, -1]))]
        kinds = ["full" if sb == 1 else ("factor", sa, sb) for sa, sb in shapes]
        m = draw(st.integers(0, 2))
        inst, _ = random_yes_instance(*(sa * sb for sa, sb in shapes), m, *kinds, seed=seed)
        pairs = list(inst.pairs)
        i = draw(st.integers(0, m))
        X, Y = pairs[i]
        if plant == "pair":
            pairs[i] = (X, _scale_spectrum(Y, rng))
        elif plant == "block":
            (sa, sb), (ta, tb) = shapes
            p, q = draw(st.integers(0, sb - 1)), draw(st.integers(0, tb - 1))
            Y = Y.reshape(sa, sb, ta, tb).copy()
            Y[:, p, :, q] = _scale_spectrum(Y[:, p, :, q], rng)
            pairs[i] = (X, Y.reshape(sa * sb, ta * tb))
        else:
            L, R = (np.kron(np.eye(sa), _local(sb, swap, rng)) for sa, sb in shapes)
            pairs[i] = (X, L @ Y @ R.conj().T)
        return "pairs", _with_pairs(inst, pairs), shapes, seed
    d1, d2, k = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 3))
    i = draw(st.integers(0, k - 1))
    if mode == "pure":
        # two Schmidt coefficients at least, as one is 1 after renormalizing
        d1 = max(d1, 2)
        psis = [M / np.linalg.norm(M) for M in (ginibre(d1, d2, rng) for _ in range(k))]
        U, V = haar(d1, rng), haar(d2, rng)
        phis = [U @ M @ V.T for M in psis]
        phis[i] = _scale_spectrum(phis[i], rng)
        phis[i] /= np.linalg.norm(phis[i])
        states = [[pure_state(d1, d2, M.ravel()) for M in side] for side in (psis, phis)]
        return "pure", states, ((d1, 1), (d2, 1)), seed
    rhos = [random_density(d1, d2, rng) for _ in range(k)]
    big = np.kron(haar(d1, rng), np.eye(d2))
    sigmas = [r.matrix for r in rhos]
    if plant == "pair":
        w, Q = np.linalg.eigh(sigmas[i])
        shift = 1e-3 * w[0]  # from the largest eigenvalue to the smallest
        w[0], w[-1] = w[0] + shift, w[-1] - shift
        sigmas[i] = (Q * w) @ Q.conj().T
    elif plant == "block":
        # an off-diagonal block (p, q) and its adjoint (q, p) keep the trace
        p = draw(st.integers(0, d2 - 1))
        q = (p + draw(st.integers(1, d2 - 1))) % d2
        H = np.zeros((d1, d2, d1, d2), dtype=complex)
        H[:, p, :, q] = 1e-5 * ginibre(d1, d1, rng)
        H = H.reshape(d1 * d2, -1)
        sigmas[i] = sigmas[i] + H + H.conj().T
    else:
        local = np.kron(np.eye(d1), _local(d2, swap, rng))
        sigmas[i] = local @ sigmas[i] @ local.conj().T
    sigmas = [density_operator(d1, d2, big @ S @ big.conj().T) for S in sigmas]
    return "unilocal", (rhos, sigmas), ((d1, d2), (d1, d2)), seed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spectrum_nos())
def test_deferred_spectrum_comparisons_name_the_mismatch(case):
    # on every pivot route (full algebras, factor shapes, pure-sets and
    # unilocal-mixed) the singular values are compared only after the solve,
    # and then name the pair, else the block, exactly as
    # singular_value_prefilter run over the pairs and then the blocks does
    mode, payload, (shape1, shape2), seed = case
    cfg = SamplerConfig(seed=seed)
    if mode == "pairs":
        verdict = decide_uep(payload, cfg)
        pairs = payload.pairs
    elif mode == "pure":
        verdict = simultaneous_lu_pure(*payload, cfg)
        pairs = [(a.amplitudes.reshape(a.d1, a.d2), b.amplitudes.reshape(b.d1, b.d2))
                 for a, b in zip(*payload)]
    else:
        verdict = unilocal_mixed_equivalence(*payload, cfg)
        pairs = [(r.matrix, s.matrix) for r, s in zip(*payload)]
    assert (verdict.verdict, verdict.certainty) == ("NO", "exact")
    assert verdict.solution_dimension is None and verdict.aux == {}
    i, *block = _named_mismatch(pairs, shape1, shape2)
    if mode == "unilocal":
        where = f"block ({block[0]}, {block[1]}) of " if block else ""
        assert verdict.detail == f"{where}rho_{i} vs sigma_{i}: singular values differ"
    else:
        where = f"block ({block[0]}, {block[1]}) of pair index {i}" if block else f"pair index {i}"
        assert verdict.detail == f"singular values differ at {where}"


@st.composite
def planted_spectra(draw):
    """(M, rank_rel, scale, planted singular values s) with M = U diag(s) V^dag:
    n <= 24 columns, rows from n/3 (wide) to 30n, real or complex. The cut is
    rank_rel * max(sigma_1, scale), with scale 0 or 10 sigma_1; past sigma_1
    every value is well above the cut, at 10x or 0.1x of it, or exactly 0.
    With scale 10 sigma_1, rank_rel stays <= 1e-2, as at 1e-1 the cut would
    fall on sigma_1 itself."""
    n = draw(st.integers(1, 24))
    rows = draw(st.integers(max(1, -(-n // 3)), 30 * n))
    complex_field = draw(st.booleans())
    c = draw(st.sampled_from([0.0, 10.0]))
    rank_rel = 10.0 ** draw(st.floats(-13, -1 if c == 0 else -2))
    s1 = 10.0 ** draw(st.floats(-3, 3))
    cut = rank_rel * max(1.0, c) * s1
    p = min(rows, n)
    kinds = draw(st.lists(st.sampled_from(["above", "10x", "0.1x", "zero"]),
                          min_size=p - 1, max_size=p - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    above = s1 * (10 * cut / s1) ** rng.uniform(size=p - 1)
    values = {"10x": 10 * cut, "0.1x": cut / 10, "zero": 0.0}
    s = np.array([s1] + [above[i] if k == "above" else values[k] for i, k in enumerate(kinds)])
    draw_matrix = ginibre if complex_field else (lambda a, b, r: r.standard_normal((a, b)))
    U, V = np.linalg.qr(draw_matrix(rows, p, rng))[0], np.linalg.qr(draw_matrix(n, n, rng))[0]
    return (U * s) @ V[:, :p].conj().T, rank_rel, c * s1, s


def _state_stack(d1, d2, k, rng):
    X = ginibre(k * d1, d2, rng).reshape(k, d1, d2)
    return X / np.linalg.norm(X, axis=(1, 2), keepdims=True)


@st.composite
def state_reduction_cases(draw, modes=("pure-sets", "generic-mixed")):
    """(mode, inputs, outputs, seed) of a mode in modes: pure-sets stacks or a
    generic-mixed (rho, sigma), planted YES or one of three NOs. For
    pure-sets: random outputs (Schmidt coefficients differ), rephased outputs
    lam_i (U (x) V) psi_i and conjugated ones (both keep every Schmidt
    coefficient); for generic-mixed: a global unitary (Schmidt test), a
    conjugate (U (x) V) conj(rho) (U (x) V)^dag, and an unrelated state
    (spectrum)."""
    mode = draw(st.sampled_from(modes))
    d1, d2 = draw(st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2)] if mode == "pure-sets"
                                  else [(2, 2), (2, 3)]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    local = haar(d1, rng), haar(d2, rng)
    if mode == "pure-sets":
        kind = draw(st.sampled_from(["yes", "random", "rephased", "conjugate"]))
        X = _state_stack(d1, d2, draw(st.integers(1, 4)), rng)
        Y = {"yes": lambda: local[0] @ X @ local[1].T,
             "random": lambda: _state_stack(d1, d2, len(X), rng),
             "rephased": lambda: (np.exp(2j * np.pi * rng.uniform(size=len(X)))[:, None, None]
                                  * (local[0] @ X @ local[1].T)),
             "conjugate": lambda: X.conj()}[kind]()
        return mode, X, Y, seed
    kind = draw(st.sampled_from(["yes", "global", "conjugate", "random"]))
    rho = random_density(d1, d2, rng, min_gap=1e-3)
    L = {"global": haar(d1 * d2, rng)}.get(kind, np.kron(*local))
    M = {"conjugate": rho.matrix.conj(), "random": None}.get(kind, rho.matrix)
    sigma = (random_density(d1, d2, rng, min_gap=1e-3) if M is None
             else density_operator(d1, d2, L @ M @ L.conj().T))
    return mode, rho, sigma, seed


@settings(max_examples=120, deadline=None, derandomize=True)
@given(state_reduction_cases())
def test_state_reductions_decide_as_the_matrix_pairs_route(case):
    # the stacks go to the pivot route directly, with one prefilter and one
    # certificate check; the decide_uep round trip they replaced is the reference
    mode, ins, outs, seed = case
    cfg = SamplerConfig(seed=seed)
    if mode == "pure-sets":
        got = simultaneous_lu_pure(*([pure_state(*ins.shape[1:], Z.ravel()) for Z in side]
                                     for side in (ins, outs)), cfg)
        ref = lu_by_matrix_pairs(list(ins), list(outs), cfg)
    else:
        ref = generic_mixed_by_matrix_pairs(ins, outs, cfg)
        assume(ref is not None)
        got = generic_mixed_lu(ins, outs, cfg)
    fields = ("verdict", "certainty", "solution_dimension", "detail")
    assert [getattr(got, f) for f in fields] == [getattr(ref, f) for f in fields]
    if got.verdict == "YES":
        assert np.array_equal(got.U, ref.U) and np.array_equal(got.V, ref.V)
        assert got.residual <= Tolerances().residual_abs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(state_reduction_cases(modes=("pure-sets",)), st.integers(0, 2**16))
def test_pure_sets_verdict_invariant_under_swap_and_local_unitaries(case, unitary_seed):
    # (U (x) V)|psi_i> = |phi_i> holds exactly when (U^dag (x) V^dag)|phi_i> =
    # |psi_i> and (U L^dag (x) V R^dag)(L (x) R)|psi_i> = |phi_i>
    _, X, Y, seed = case
    cfg = SamplerConfig(seed=seed)
    d1, d2 = X.shape[1:]
    rng = np.random.default_rng(unitary_seed)
    moved = haar(d1, rng) @ X @ haar(d2, rng).T  # (U (x) V)|psi_i> is U psi_i V^T

    def decide(ins, outs):
        return simultaneous_lu_pure(*([pure_state(d1, d2, Z.ravel()) for Z in side]
                                      for side in (ins, outs)), cfg).verdict

    verdict = decide(X, Y)
    assert decide(Y, X) == verdict
    assert decide(moved, Y) == verdict


# derandomized: 3,000 draws of this family kept every dimension, with
# distances at most 19 units of eps sigma_1^2 / gap to the reference and
# residuals at most 7.4e-4 (cut + sqrt(n) eps sigma_1) above the planted
# null values
@settings(max_examples=300, deadline=None, derandomize=True)
@given(planted_spectra())
def test_gram_nullspace_matches_the_dense_reference(case):
    # the Gram step keeps every direction within 10x of the cut, so the
    # dimension is the planted one; a dropped direction tilts the basis
    # by about eps sigma_1^2 / sigma_b^2, so the distance is measured in
    # the Gram gap between the smallest value kept as rank and the largest
    # one cut as null, and adds at most 1e-3 of the cut to the residual
    M, rank_rel, scale, s = case
    tol = Tolerances(rank_rel=rank_rel)
    ns, ref = nullspace_basis(M, tol, scale), dense_nullspace_basis(M, tol, scale)
    n, eps = M.shape[1], np.finfo(float).eps
    cut = rank_rel * max(s[0], scale)
    assert ns.shape == ref.shape == (n, n - np.count_nonzero(s > cut))
    if ns.shape[1]:
        assert np.allclose(ns.conj().T @ ns, np.eye(ns.shape[1]), atol=1e-12)
        largest_null = s[s <= cut].max(initial=0.0)
        gap = (s[s > cut].min() ** 2 - largest_null ** 2) / s[0] ** 2
        assert _largest_angle_sine(ref, ns) <= 1e2 * eps / gap
        excess = np.linalg.norm(M @ ns, 2) - largest_null
        assert excess <= 1e-2 * (cut + np.sqrt(n) * eps * s[0])
