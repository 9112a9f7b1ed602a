import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uniequiv import (
    InputError,
    InvalidAlgebraError,
    MatrixAlgebra,
    MatrixPolynomial,
    SamplerConfig,
    Tolerances,
    UepInstance,
    build_linear_system,
    decide_invertible_equivalence,
    decide_uep,
    extract_unitaries,
    full_algebra,
    matrix_algebra,
    sample_invertible,
    singular_value_prefilter,
    solve_solution_space,
    uep_instance_full,
)
from uniequiv import (density_operator, generic_mixed_lu, pure_state, simultaneous_lu_pure,
                      unilocal_mixed_equivalence)
from uniequiv.algebra import span_residual
from uniequiv.cli import main
from uniequiv.linalg import same_spectrum
from uniequiv.oracle import random_yes_instance
from uniequiv.serialize import certificate_to_json, dumps_document, instance_to_json
from uniequiv.solver import (SolutionSpace, UepVerdict, certificate_residuals, check_certificate,
                             _clusters, _pivot_frames, _pivot_pair, draw_candidate,
                             per_trial_failure_bound)

import uniequiv.solver as solver_mod

from conftest import algebras, ginibre, haar, random_density
from exact_reference import dense_nullspace_basis, membership_rows_system, singular_value_ratio

CFG = SamplerConfig(seed=17)


def _space(inst, tol=Tolerances()):
    return solve_solution_space(build_linear_system(inst, tol), tol)


def _upper_triangular(d):
    return matrix_algebra([np.outer(np.eye(d)[i], np.eye(d)[j])
                           for i in range(d) for j in range(i, d)])


class TestBuildSystem:
    def test_scalar_instance(self):
        inst = uep_instance_full(1, 1, [(np.array([[2.0]]), np.array([[2.0]]))])
        system = build_linear_system(inst)
        assert system.matrix.shape == (2, 2)
        space = solve_solution_space(system)
        assert space.dimension == 1
        # the span must contain (1, 1)
        (A, B), = zip(space.A, space.B)
        assert abs(A[0, 0]) > 1e-10
        assert abs(B[0, 0] / A[0, 0] - 1.0) < 1e-10

    def test_zero_pairs_leave_everything_free(self):
        Z = np.zeros((2, 2))
        inst = uep_instance_full(2, 2, [(Z, Z)])
        space = _space(inst)
        assert space.dimension == 4 + 4

    def test_identity_pair_forces_equal_blocks(self):
        I2 = np.eye(2)
        inst = uep_instance_full(2, 2, [(I2, I2)])
        space = _space(inst)
        assert space.dimension == 4
        for A, B in zip(space.A, space.B):
            assert np.linalg.norm(A - B) < 1e-10

    def test_rejects_unverified_algebra(self):
        bad = matrix_algebra([np.array([[0.0, 1.0], [0.0, 0.0]])])
        inst = UepInstance(d1=2, d2=2, pairs=((np.eye(2), np.eye(2)),),
                           G1=bad, G2=full_algebra(2))
        with pytest.raises(InvalidAlgebraError):
            build_linear_system(inst)

    @pytest.mark.parametrize("Y", [np.eye(4), np.diag([1.0, 1.0, 1.0, 0.0])],
                             ids=["equal-spectra", "spectra-differ"])
    def test_rejects_a_shape_that_does_not_tile_its_dimension(self, Y):
        # the shapes are checked before any singular values are compared
        bad = MatrixAlgebra(dim=4, kind="factor", factor_shape=(2, 3))
        inst = UepInstance(d1=4, d2=4, pairs=((np.eye(4), Y),),
                           G1=full_algebra(4), G2=bad)
        with pytest.raises(InvalidAlgebraError, match="G2 is not a usable algebra"):
            decide_uep(inst, CFG)

    def test_basis_pairs_satisfy_equations(self, rng):
        inst, _ = random_yes_instance(3, 2, 2, seed=5)
        space = _space(inst)
        assert space.dimension >= 1
        for A, B in zip(space.A, space.B):
            scale = max(1.0, np.linalg.norm(A), np.linalg.norm(B))
            for X, Y in inst.pairs:
                assert np.linalg.norm(A @ X - Y @ B) <= 1e-8 * scale
                assert np.linalg.norm(X @ B.conj().T - A.conj().T @ Y) <= 1e-8 * scale

    def test_complex_linearity_of_solutions(self, rng):
        inst, _ = random_yes_instance(2, 3, 0, seed=8)
        space = _space(inst)
        assert space.dimension >= 2
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        (A1, A2), (B1, B2) = space.A[:2], space.B[:2]
        A, B = a * A1 + b * A2, a * B1 + b * B2
        scale = max(1.0, np.linalg.norm(A), np.linalg.norm(B))
        for X, Y in inst.pairs:
            assert np.linalg.norm(A @ X - Y @ B) <= 1e-8 * scale
            assert np.linalg.norm(X @ B.conj().T - A.conj().T @ Y) <= 1e-8 * scale

    def test_adjoints_stay_in_upper_triangular_algebra(self):
        # with X = Y = I, every A = B in the upper-triangular algebra solves
        # both equations; A^dag in G1 cuts the space down to the diagonal
        G1 = _upper_triangular(3)
        inst = UepInstance(d1=3, d2=3, pairs=((np.eye(3), np.eye(3)),), G1=G1, G2=full_algebra(3))
        space = _space(inst)
        assert space.dimension == 3
        for A, B in zip(space.A, space.B):
            scale = max(1.0, np.linalg.norm(A), np.linalg.norm(B))
            for X, Y in inst.pairs:
                assert np.linalg.norm(A @ X - Y @ B) <= 1e-8 * scale
                assert np.linalg.norm(X @ B.conj().T - A.conj().T @ Y) <= 1e-8 * scale
            assert span_residual(G1, A) <= 1e-10 * scale
            assert span_residual(G1, A.conj().T) <= 1e-10 * scale


def _star_unitary(G, rng):
    """exp(iH) for a random Hermitian H of G cap G^dag, taken from the reference
    solution space of X = Y = I over (G, G): its A lie in G cap G^dag."""
    inst = UepInstance(G.dim, G.dim, ((np.eye(G.dim), np.eye(G.dim)),), G, G)
    space = solve_solution_space(membership_rows_system(inst))
    M = sum(c * A for c, A in zip(ginibre(space.dimension, 1, rng)[:, 0], space.A))
    w, Q = np.linalg.eigh(M + M.conj().T)
    return (Q * np.exp(1j * w)) @ Q.conj().T


def _at_rank_cut(system, tol=Tolerances()):
    """Whether a singular value of the system lies within 3x of its rank cut."""
    s = np.linalg.svd(system.matrix, compute_uv=False)
    cut = tol.rank_rel * max(s[0], system.scale)
    return bool(np.any((cut / 3 < s) & (s < 3 * cut)))


def _outcome(decide):
    try:
        verdict = decide()
    except InvalidAlgebraError:
        return "invalid", None
    return verdict.verdict, verdict.solution_dimension


class TestStarPart:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("s", [1e-12, 1e-6, 1.0, 1e6, 1e11, 1e12, 1e15])
    def test_scalar_pairs_over_upper_triangular_algebra_at_every_scale(self, d, s):
        # membership rows at unit scale vanished under pairs at 1e11 and beyond:
        # the sampled A stayed upper-triangular and its polar factor left G1
        G = _upper_triangular(d)
        inst = UepInstance(d, d, ((s * np.eye(d), s * np.eye(d)),), G, G)
        verdict = decide_uep(inst, CFG)
        assert verdict.verdict == "YES" and verdict.solution_dimension == d
        assert span_residual(G, verdict.U) <= 1e-12 and span_residual(G, verdict.V) <= 1e-12

    def test_star_part_of_upper_triangular_algebra_is_the_diagonal(self):
        # E_12's adjoint lies at distance 1 off the span: the factor is 1 + 1/1
        E, factor = solver_mod._star_part(_upper_triangular(2), False, Tolerances())
        assert len(E) == 2 and factor == pytest.approx(2.0)
        assert np.allclose(np.tril(E, -1), 0) and np.allclose(np.triu(E, 1), 0)
        assert solver_mod._star_part(full_algebra(2), True, Tolerances())[1] == 1.0

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(algebras(), st.sampled_from(["planted", "gauged", "identity"]), st.booleans(),
           st.integers(0, 2**16))
    def test_verdicts_match_the_membership_rows(self, G, kind, full_g2, seed):
        # decide_uep over the star parts against the membership-row system, at unit scale
        rng, d = np.random.default_rng(seed), G.dim
        G2 = full_algebra(d) if full_g2 else G
        U, V = haar(d, rng), haar(d, rng)
        try:
            if kind == "planted":
                U, V = _star_unitary(G, rng), V if full_g2 else _star_unitary(G, rng)
        except InvalidAlgebraError:
            pass  # both routes reject G
        Xs = [np.eye(d)] if kind == "identity" else [ginibre(d, d, rng) for _ in range(2)]
        inst = UepInstance(d, d, tuple((X, X if kind == "identity" else U @ X @ V.conj().T)
                                       for X in Xs), G, G2)

        def reference():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver_mod, "build_linear_system", membership_rows_system)
                return decide_uep(inst, CFG)

        outcome = _outcome(lambda: decide_uep(inst, CFG))
        if outcome != _outcome(reference):
            # a unitary planted 1e-10 off a span perturbed by 1e-10 solves either
            # system only to about the rank cut: the two may split there, and
            # only there, in either direction
            assert _at_rank_cut(build_linear_system(inst))
            assert _at_rank_cut(membership_rows_system(inst))


class TestSampler:
    def test_identity_span_succeeds_first_trial(self):
        space = SolutionSpace(np.eye(2)[None], np.eye(2)[None])
        result = sample_invertible(space, CFG)
        assert result is not None and result.trials_used == 1

    def test_shared_kernel_never_invertible(self):
        E11 = np.diag([1.0, 0.0]).astype(complex)
        space = SolutionSpace(E11[None], E11[None])
        assert sample_invertible(space, CFG) is None

    def test_forced_zero_block(self):
        # X = (1), Y = (0): A X = Y B forces A = 0 and X B^dag = A^dag Y
        # forces B = 0 as well, so the space is trivial
        inst = uep_instance_full(1, 1, [(np.array([[1.0]]), np.array([[0.0]]))])
        space = _space(inst)
        assert space.dimension == 0
        verdict = decide_uep(inst, CFG)
        assert verdict.verdict == "NO" and verdict.certainty == "exact"

    def test_probabilistic_no_reports_bound(self, monkeypatch):
        # exhausted sampling must surface the Schwartz-Zippel bound
        import uniequiv.solver as solver_mod
        monkeypatch.setattr(solver_mod, "sample_invertible", lambda *a, **kw: None)
        inst, _ = random_yes_instance(2, 3, 0, seed=91)
        verdict = decide_uep(inst, CFG)
        assert verdict.verdict == "NO" and verdict.certainty == "probabilistic"
        assert verdict.trials_used == CFG.trials
        assert verdict.failure_bound == pytest.approx(
            per_trial_failure_bound(2, 3, CFG.sample_max) ** CFG.trials
        )

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_draws_and_the_pivot_follow_their_rng_streams(self, seed):
        # over the matrix units a draw's entries are its coefficients: the 2k
        # integers of default_rng([seed, trial]) as real and imaginary parts
        cfg = SamplerConfig(seed=seed, sample_max=1000)
        units = np.eye(4, dtype=complex).reshape(4, 2, 2)
        space = SolutionSpace(units, units[:, ::-1])
        for trial in range(3):
            re, im = np.random.default_rng([seed, trial]).integers(1, 1001, (2, 4))
            A, B = draw_candidate(space, cfg, trial)
            assert np.array_equal(A.ravel(), re + 1j * im)
            assert np.array_equal(B, A[::-1])
        # the pivot pair of pairs (e_i, 0) is (c, 0), c the unit complex
        # Gaussian of the child seed (seed, spawn key (0,))
        Z = np.zeros((5, 2, 1, 5))
        Z[range(5), 0, 0, range(5)] = 1.0
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        re, im = rng.standard_normal((2, 5))
        c = (re + 1j * im) / np.linalg.norm(re + 1j * im)
        pivot = _pivot_pair(Z, seed)
        assert np.array_equal(pivot[0, 0], c) and not pivot[1].any()

    def test_draw_is_deterministic(self):
        space = SolutionSpace(np.eye(2)[None], np.eye(2)[None])
        A1, B1 = draw_candidate(space, CFG, 0)
        A2, B2 = draw_candidate(space, CFG, 0)
        assert np.array_equal(A1, A2) and np.array_equal(B1, B2)


class TestExtract:
    def test_positive_scalings(self):
        U, V = extract_unitaries(2 * np.eye(3), 3 * np.eye(2))
        assert np.allclose(U, np.eye(3), atol=1e-12)
        assert np.allclose(V, np.eye(2), atol=1e-12)

    def test_positive_diagonal(self):
        U, _ = extract_unitaries(np.diag([1.0, 2.0]), np.eye(2))
        assert np.allclose(U, np.eye(2), atol=1e-12)

    def test_full_pipeline_on_yes_instance(self):
        inst, _ = random_yes_instance(3, 3, 2, seed=21)
        space = _space(inst)
        found = sample_invertible(space, CFG)
        U, V = extract_unitaries(found.A, found.B)
        assert np.linalg.norm(U.conj().T @ U - np.eye(3)) <= 1e-8
        assert np.linalg.norm(V.conj().T @ V - np.eye(3)) <= 1e-8
        for X, Y in inst.pairs:
            assert np.linalg.norm(U @ X @ V.conj().T - Y) <= 1e-8 * max(1.0, np.linalg.norm(Y))

    def test_roundtrip_extracted_pair_solves_system(self):
        # the extracted (U, V) must itself solve the linearized system
        inst, _ = random_yes_instance(2, 4, 1, seed=33)
        space = _space(inst)
        found = sample_invertible(space, CFG)
        U, V = extract_unitaries(found.A, found.B)
        for X, Y in inst.pairs:
            assert np.linalg.norm(U @ X - Y @ V) <= 1e-8
            assert np.linalg.norm(X @ V.conj().T - U.conj().T @ Y) <= 1e-8


class TestDecide:
    @pytest.mark.parametrize("rank_rel", [1e-3, 1e-2, 1e-1])
    def test_no_only_when_the_sample_is_singular(self, monkeypatch, rank_rel):
        # extraction uses the sampler's rule, so a candidate the sampler
        # accepts is never rejected, let alone discarded on the way to a NO;
        # a YES from a candidate near the rank cut still has to check out
        import uniequiv.solver as solver_mod
        spaces = []

        def spy(system, tol=Tolerances()):
            spaces.append(solve_solution_space(system, tol))
            return spaces[-1]

        monkeypatch.setattr(solver_mod, "solve_solution_space", spy)
        tol = Tolerances(rank_rel=rank_rel)
        inst = uep_instance_full(6, 6, [(np.eye(6), np.eye(6))])
        near_cut = 0
        for seed in range(200):
            cfg = SamplerConfig(trials=1, seed=seed)
            verdict = decide_uep(inst, cfg, tol)
            # the candidate is drawn from the space decide_uep solved
            A, B = draw_candidate(spaces.pop(), cfg, 0)
            ratio = min(singular_value_ratio(A), singular_value_ratio(B))
            near_cut += rank_rel / 10 <= ratio <= 10 * rank_rel
            if verdict.verdict == "YES":
                residuals = certificate_residuals("matrix-pairs", inst, verdict.U, verdict.V, tol)
                assert max(residuals) <= tol.residual_abs
            else:
                assert verdict.verdict == "NO" and ratio <= rank_rel
        assert near_cut >= 1

    def test_swapped_diagonal_is_yes(self):
        inst = uep_instance_full(2, 2, [(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))])
        verdict = decide_uep(inst, CFG)
        assert verdict.verdict == "YES"
        assert verdict.residual <= 1e-8

    def test_rank_mismatch_is_exact_no(self):
        inst = uep_instance_full(2, 2, [(np.eye(2), np.diag([1.0, 0.0]))])
        verdict = decide_uep(inst, CFG)
        assert verdict.verdict == "NO" and verdict.certainty == "exact"

    @pytest.mark.parametrize("seed", range(8))
    def test_random_yes_instances(self, seed):
        rng = np.random.default_rng(seed)
        d1, d2 = rng.integers(1, 6, size=2)
        m = int(rng.integers(0, 5))
        inst, _ = random_yes_instance(int(d1), int(d2), m, seed=seed + 100)
        verdict = decide_uep(inst, SamplerConfig(seed=seed))
        assert verdict.verdict == "YES"
        assert verdict.residual <= 1e-8
        assert np.linalg.norm(verdict.U.conj().T @ verdict.U - np.eye(int(d1))) <= 1e-8
        assert np.linalg.norm(verdict.V.conj().T @ verdict.V - np.eye(int(d2))) <= 1e-8

    def test_scaling_invariance(self):
        inst, _ = random_yes_instance(2, 3, 1, seed=55)
        scaled = UepInstance(
            d1=2, d2=3,
            pairs=tuple((3.0 * X, 3.0 * Y) for X, Y in inst.pairs),
            G1=inst.G1, G2=inst.G2,
        )
        v1 = decide_uep(inst, CFG)
        v2 = decide_uep(scaled, CFG)
        assert v1.verdict == v2.verdict == "YES"
        assert v1.solution_dimension == v2.solution_dimension

    def test_disparate_pair_scales(self):
        # each pair scaled by 1, 1e6 or 1e-6: one rank cut over unnormalized
        # pairs could not see the small ones' constraints (36 of 200 ended
        # INCONCLUSIVE before the pivot route normalized every pair)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            d1, d2 = (int(d) for d in rng.integers(2, 7, size=2))
            inst, _ = random_yes_instance(d1, d2, 2, seed=seed)
            scales = rng.choice([1.0, 1e6, 1e-6], size=3)
            pairs = tuple((c * X, c * Y) for (X, Y), c in zip(inst.pairs, scales))
            verdict = decide_uep(UepInstance(d1, d2, pairs, inst.G1, inst.G2),
                                 SamplerConfig(seed=seed))
            assert verdict.verdict == "YES", (seed, verdict.detail)

    def test_identity_pair_trick_equalizes_unitaries(self):
        # appending (I, I) forces U = V, turning UEP into similarity
        rng = np.random.default_rng(77)
        from conftest import haar
        W = haar(3, rng)
        Xs = [ginibre(3, 3, rng) for _ in range(2)]
        pairs = [(X, W @ X @ W.conj().T) for X in Xs] + [(np.eye(3), np.eye(3))]
        inst = uep_instance_full(3, 3, pairs)
        verdict = decide_uep(inst, CFG)
        assert verdict.verdict == "YES"
        assert np.linalg.norm(verdict.U - verdict.V) <= 1e-7


def _stacks(inst):
    """The pairs (X_i, Y_i) of an instance as one (n, 2, d1, d2) stack, as the
    pivot route holds them."""
    return np.array(inst.pairs)


def _pivot_systems_seen(monkeypatch):
    """Records (a, a', label, adjoint, columns) for every reduced system the
    pivot routes assemble."""
    seen = []
    real = solver_mod._pivot_system

    def spy(Z, frames, label, adjoint):
        system, aux = real(Z, frames, label, adjoint)
        seen.append((Z.shape[2], Z.shape[3], label.tolist(), adjoint, system.matrix.shape[1]))
        return system, aux

    monkeypatch.setattr(solver_mod, "_pivot_system", spy)
    return seen


def _gauged(Xs, rng):
    """Y_i = U_i X_i V_i^dag with independent unitaries per pair: every pair
    keeps its singular values, but no one (U, V) serves them all."""
    d1, d2 = Xs[0].shape
    return uep_instance_full(d1, d2, [(X, haar(d1, rng) @ X @ haar(d2, rng).conj().T) for X in Xs])


# the relative gap above which the default tolerances split pivot clusters
CUT = 1e3 * np.finfo(float).eps / Tolerances().rank_rel


def _tuned_pivot(d, gap, seed):
    """Pairs X_i = W diag(x_i) R^dag, Y_i = U X_i V^dag (i = 1, 2) whose pivot
    drawn from seed has relative gap `gap` between its two largest singular
    values. The two pairs differ strongly on those two directions, so a frame
    error there is not a symmetry of the instance: a split that rounding
    cannot resolve loses the solutions."""
    rng = np.random.default_rng(seed)
    one = [np.ones((1, 1)), np.zeros((1, 1))]
    c1, c2 = (_pivot_pair(np.stack([probe, probe], axis=1), seed)[0, 0, 0]
              for probe in (one, one[::-1]))
    x1 = np.concatenate([[12.0, 4.0], rng.uniform(0.1, 0.5, d - 2)]).astype(complex)
    x2 = np.concatenate([[0.0, 12.0], rng.uniform(0.1, 0.5, d - 2)]).astype(complex)
    x2[0] = ((1 + gap) * abs(c1 * x1[1] + c2 * x2[1]) - c1 * x1[0]) / c2
    W, R, U, V = (haar(d, rng) for _ in range(4))
    Xs = [W @ np.diag(x) @ R.conj().T for x in (x1, x2)]
    return uep_instance_full(d, d, [(X, U @ X @ V.conj().T) for X in Xs])


class TestPivot:
    def test_clusters_merge_below_the_cut_in_either_spectrum(self):
        # residual_abs = 1e-2 lets the two spectra differ while the cut stays
        # at the rank cut's; the A side pads its spectrum with a zero to d1 = 4
        tol = Tolerances(residual_abs=1e-2)
        Xc = np.zeros((4, 3))
        Xc[range(3), range(3)] = [1.0, 1.0 - 1e-4, 0.5]
        Yc = np.zeros((4, 3))
        Yc[range(3), range(3)] = [1.0, 1.0 - 1e-4, 0.5 - 1e-3]
        label, aux = _clusters(_pivot_frames(np.stack([Xc, Yc]), tol))
        assert label.tolist() == [0, 0, 1, 2]
        assert aux["pivot_clusters"] == [3, 2]
        assert aux["pivot_merged_gap"] == pytest.approx(1e-4)
        assert aux["pivot_split_gap"] == pytest.approx(0.5 - 1e-3)
        # a split needs a gap above the cut in both spectra
        split, merged = np.diag([1.0, 1.0 - 2 * CUT]), np.diag([1.0, 1.0 - CUT / 2])
        assert _clusters(_pivot_frames(np.stack([split, split]), tol))[0].tolist() == [0, 1]
        assert _clusters(_pivot_frames(np.stack([split, merged]), tol))[0].tolist() == [0, 0]
        near = np.diag([1.0, 1.0 - 1e-5, 1.0 - 2e-5])
        label, aux = _clusters(_pivot_frames(np.stack([near, near]), tol))
        assert label.tolist() == [0, 0, 0] and aux["pivot_clusters"] == [1, 1]
        assert aux["pivot_split_gap"] is None
        frames = _pivot_frames(np.stack([np.diag([1.0, 0.5]), np.diag([1.0, 0.4])]), Tolerances())
        assert not same_spectrum(frames.s, frames.t, Tolerances())

    @pytest.mark.parametrize("gap", [1.2e-6, 3e-6, 1e-5, 1.5 * CUT, 1e-2])
    def test_tuned_pivot_gap_keeps_every_solution(self, gap):
        # a split at relative gap g leaves the computed frames about eps / g
        # off, which at g near 1e-6 meets the 1e-10 rank cut and drops
        # solutions; below the cut the pair merges, above it the split is exact
        for seed in range(40):
            inst = _tuned_pivot(6, gap, seed)
            label, _ = _clusters(_pivot_frames(_pivot_pair(_stacks(inst), seed), Tolerances()))
            assert label[:2].tolist() == ([0, 1] if gap > CUT else [0, 0])
            verdict = decide_uep(inst, SamplerConfig(seed=seed))
            assert verdict.verdict == "YES" and verdict.residual <= 1e-12
            assert verdict.solution_dimension == _space(inst).dimension

    def test_pivot_seed_stays_apart_from_the_trials(self):
        inst, _ = random_yes_instance(3, 3, 1, seed=4)
        Z = _stacks(inst)
        X, Xc = Z[:, 0], _pivot_pair(Z, 9)[0]
        assert np.array_equal(Xc, _pivot_pair(Z, 9)[0])
        for trial in range(4):
            re, im = np.random.default_rng([9, trial]).standard_normal((2, 2))
            c = (re + 1j * im) / np.linalg.norm(re + 1j * im)
            assert np.linalg.norm(Xc - np.tensordot(c, X, axes=1)) > 1e-3

    def test_gauged_no_ends_at_the_pivot_without_a_nullspace(self, monkeypatch):
        import uniequiv.solver as solver_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("nullspace_basis called")

        monkeypatch.setattr(solver_mod, "nullspace_basis", forbidden)
        rng = np.random.default_rng(10)
        inst = _gauged([ginibre(10, 10, rng) for _ in range(2)], rng)
        assert singular_value_prefilter(inst.pairs)[0]
        verdict = decide_uep(inst, CFG)
        assert (verdict.verdict, verdict.certainty) == ("NO", "exact")
        assert verdict.solution_dimension is None
        assert "pivot" in verdict.detail and verdict.aux == {}

    def test_rank_deficient_gauged_no_is_exact(self):
        # rank-one pairs leave singular solutions in the linear space: the
        # unreduced search draws only singular candidates and can answer no
        # better than NO/probabilistic, while the pivot spectra already differ
        rng = np.random.default_rng(3)
        inst = _gauged([ginibre(3, 1, rng) @ ginibre(1, 3, rng) for _ in range(2)], rng)
        space = _space(inst)
        assert space.dimension >= 1 and sample_invertible(space, CFG) is None
        verdict = decide_uep(inst, CFG)
        assert (verdict.verdict, verdict.certainty) == ("NO", "exact")
        assert verdict.solution_dimension is None

    @pytest.mark.parametrize("X, unknowns, free", [(np.eye(6), 36, 0), (np.zeros((6, 6)), 72, 72)],
                             ids=["identity", "zero"])
    def test_one_cluster_takes_the_frames(self, monkeypatch, X, unknowns, free):
        # one cluster keeps every matrix unit, rotated into the frames: the
        # plain system's solutions, with no fork to it. The identity keeps 36
        # coupled columns; the zero pivot leaves all 36 units free on each side
        seen = _pivot_systems_seen(monkeypatch)
        inst = uep_instance_full(6, 6, [(X, X)])
        verdict = decide_uep(inst, CFG)
        ((_, _, label, adjoint, _),) = seen
        assert verdict.verdict == "YES" and label == [0] * 6 and adjoint
        margin = verdict.aux.pop("pivot_coupling_margin")
        assert margin is None if free else margin > 1  # no coupled column, no margin
        assert verdict.aux == {"pivot_clusters": [1, 1], "pivot_merged_gap": 0.0,
                               "pivot_split_gap": None, "pivot_unknowns": unknowns,
                               "pivot_free_units": free}
        assert verdict.solution_dimension == _space(inst).dimension

    def test_factor_algebra_takes_the_realigned_pivot(self, monkeypatch):
        # M (x) I_2 against the full algebra on C^4: the pivot route runs on the
        # two realigned 2 x 4 blocks, and the lifted u (x) I_2 checks out on the
        # instance itself
        seen = _pivot_systems_seen(monkeypatch)
        inst, _ = random_yes_instance(4, 4, 0, g1_kind=("factor", 2, 2), seed=6)
        verdict = decide_uep(inst, CFG)
        assert [(a, a2, adjoint) for a, a2, _, adjoint, _ in seen] == [(2, 4, True)]
        assert verdict.verdict == "YES" and verdict.residual <= 1e-12
        assert verdict.aux["pivot_clusters"] == [2, 3]  # the B side merges two padded zeros
        assert span_residual(inst.G1, verdict.U) <= 1e-12
        monkeypatch.undo()
        assert verdict.solution_dimension == _space(inst).dimension

    def test_shapes_never_reach_the_span_machinery(self, monkeypatch):
        # verify_algebra checks a shape without projecting; every projection
        # onto span_q, every star part and every basis read is forbidden
        import uniequiv.algebra as algebra_mod
        import uniequiv.solver as solver_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("span machinery called")

        monkeypatch.setattr(algebra_mod, "_all_in_span", forbidden)
        monkeypatch.setattr(solver_mod, "_star_part", forbidden)
        monkeypatch.setattr(MatrixAlgebra, "basis", property(forbidden))
        rng = np.random.default_rng(5)
        cases = [random_yes_instance(4, 3, 1, seed=5)[0],
                 random_yes_instance(6, 4, 2, ("factor", 3, 2), ("factor", 2, 2), seed=5)[0],
                 _gauged([ginibre(4, 4, rng) for _ in range(2)], rng)]
        for inst, expected in zip(cases, ("YES", "YES", "NO")):
            assert decide_uep(inst, CFG).verdict == expected

    def test_block_mismatch_names_the_block_and_the_pair(self):
        # I (x) W keeps the spectrum of every pair but not of its blocks
        rng = np.random.default_rng(8)
        inst, _ = random_yes_instance(4, 4, 1, ("factor", 2, 2), ("factor", 2, 2), seed=8)
        W = np.kron(np.eye(2), haar(2, rng))
        moved = UepInstance(4, 4, (inst.pairs[0], (inst.pairs[1][0], W @ inst.pairs[1][1])),
                            inst.G1, inst.G2)
        assert singular_value_prefilter(moved.pairs)[0]
        verdict = decide_uep(moved, CFG)
        assert (verdict.verdict, verdict.certainty) == ("NO", "exact")
        assert verdict.solution_dimension is None
        assert verdict.detail.startswith("singular values differ at block (")
        assert verdict.detail.endswith(") of pair index 1")

    def test_reduced_yes_certificate_checks_out(self):
        inst, _ = random_yes_instance(6, 4, 2, seed=12)
        verdict = decide_uep(inst, CFG)
        assert verdict.verdict == "YES" and verdict.residual <= 1e-12
        assert verdict.solution_dimension == _space(inst).dimension
        assert verdict.aux["pivot_clusters"] == [5, 4]

    def test_distinct_spectrum_keeps_one_coupled_column_per_unit(self, monkeypatch):
        # distinct singular values leave one cluster per index, whose unit
        # (j, j) keeps the coupled column (t_j, s_j) / hypot(s_j, t_j): d
        # unknowns where free units of A' and B' would take 2d
        seen = _pivot_systems_seen(monkeypatch)
        inst, _ = random_yes_instance(6, 6, 2, seed=14)
        verdict = decide_uep(inst, CFG)
        ((_, _, label, _, columns),) = seen
        assert label == list(range(6)) and columns == 6
        assert verdict.verdict == "YES" and verdict.residual <= 1e-12
        monkeypatch.undo()
        assert verdict.solution_dimension == _space(inst).dimension

    @pytest.mark.parametrize("kind", ["unitary", "invertible"])
    def test_pivot_decide_leaves_the_callers_stack_unchanged(self, kind, rng):
        # callers reuse their stack after the solve, to explain a NO or for the
        # next grid point; 10 > 2 * 2 * 2 pairs, so the spanning QR runs, and
        # the zero pair is left unscaled
        X = np.stack([ginibre(2, 2, rng) for _ in range(10)])
        X[4] = 0.0
        Z = np.stack([X, haar(2, rng) @ X @ haar(2, rng).conj().T], axis=1)
        before = Z.copy()
        verdict = solver_mod._pivot_decide(Z, CFG, Tolerances(), kind)
        assert verdict.verdict == "YES"
        assert np.array_equal(Z, before)

    @pytest.mark.parametrize("adjoint", [True, False], ids=["unitary", "matpoly"])
    @pytest.mark.parametrize("shared", [True, False], ids=["clusters", "generic"])
    def test_index_built_system_matches_the_unit_products(self, shared, adjoint, rng):
        # the reduced system assembled by index has the rows that the plain
        # system's products give on the rotated pairs, with the alpha-weighted
        # units of its columns as E1 and the beta-weighted ones as E2: a coupled
        # column is the sum of its two halves, over every row for the unitary
        # route and over the rows of A X_i - Y_i B for matpoly. Its bases are
        # those units, in the pivot frames. Pairs in shared
        # frames give a 2-cluster and a padded zero on the 5 side, and a
        # rank-4 pivot leaves free units on the padded index
        W, R, U, V = haar(5, rng), haar(4, rng), haar(5, rng), haar(4, rng)
        D = np.zeros((5, 4))
        D[range(4), range(4)] = [3.0, 3.0, 2.0, 1.0]
        X = np.stack([a * (W @ D @ R.conj().T) if shared else ginibre(5, 4, rng)
                      for a in (1.0, 2j, -0.5)])
        Y = U @ X @ V.conj().T
        Z = np.stack([X, Y], axis=1)
        frames = _pivot_frames(_pivot_pair(Z, 3), Tolerances())
        label = _clusters(frames)[0] if adjoint else np.zeros(5, dtype=int)
        if shared and adjoint:
            assert label.tolist() == [0, 0, 1, 2, 3]
        system, aux = solver_mod._pivot_system(Z, frames, label, adjoint)

        def unit(d, j, k):
            return np.outer(np.eye(d)[j], np.eye(d)[k]) if max(j, k) < d else np.zeros((d, d))

        coupled, free_a, free_b = [], [], []
        for j in range(5):
            for k in range(5):
                if label[j] != label[k]:
                    continue
                sk, tj = frames.s[k], frames.t[j]
                if max(sk, tj) > frames.cut:
                    h = np.hypot(sk, tj)
                    alpha, beta = tj / h * (max(j, k) < 5), sk / h * (max(j, k) < 4)
                    if alpha or beta:
                        coupled.append((alpha * unit(5, j, k), beta * unit(4, j, k)))
                else:
                    free_a.append((unit(5, j, k), np.zeros((4, 4))))
                    if max(j, k) < 4:
                        free_b.append((np.zeros((5, 5)), unit(4, j, k)))
        E1, E2 = (np.array(side, dtype=complex) for side in zip(*coupled + free_a + free_b))
        g = len(E1)
        assert system.matrix.shape[1] == aux["pivot_unknowns"] == g
        assert aux["pivot_free_units"] == len(free_a) + len(free_b) > 0
        # the route's stacked rotation is the per-pair one up to rounding; the
        # rows are then assembled from it exactly
        Xr, Yr = solver_mod._into_frames(Z, frames)
        (W_x, W_y), (R_x, R_y) = frames.W, frames.R
        np.testing.assert_allclose(Xr, W_x.conj().T @ X @ R_x, rtol=0, atol=1e-13)
        np.testing.assert_allclose(Yr, W_y.conj().T @ Y @ R_y, rtol=0, atol=1e-13)
        plain = solver_mod._linear_system(E1, E2, list(zip(Xr, Yr)))
        rows = len(plain) if adjoint else X.size
        assert np.array_equal(system.matrix, plain[:rows, :g] + plain[:rows, g:])
        assert np.array_equal(system.basis_a, E1) and np.array_equal(system.basis_b, E2)
        assert system.scale == np.hypot(frames.s[0], frames.t[0])


def _perturbed_full_yes(d, size):
    inst, _ = random_yes_instance(d, d, 2, seed=d)
    rng = np.random.default_rng(d)
    pairs = tuple((X, Y + size * ginibre(d, d, rng)) for X, Y in inst.pairs)
    verdict = decide_uep(UepInstance(d1=d, d2=d, pairs=pairs, G1=inst.G1, G2=inst.G2),
                         SamplerConfig(seed=d))
    return verdict.verdict, verdict.solution_dimension


def _matpoly_yes(d, seed):
    rng = np.random.default_rng(seed)
    A, B = (ginibre(d, d, rng) + 2 * np.eye(d) for _ in "AB")
    P = [ginibre(d, d, rng) for _ in range(2)]
    Q = [A @ C @ np.linalg.inv(B) for C in P]
    verdict = decide_invertible_equivalence(MatrixPolynomial(tuple(P)), MatrixPolynomial(tuple(Q)),
                                            SamplerConfig(seed=seed))
    return verdict.verdict, verdict.solution_dimension


# every d in 6..24 unperturbed, and 95 sizes from 1e-13 to 1e-8 spread over
# them, so the solution's singular value crosses the 1e-10 cut between cases
_CUT_CROSSING = [(d, 0.0) for d in range(6, 25)] + [
    (6 + i % 19, 10.0 ** (-13 + 5 * i / 94)) for i in range(95)]


class TestGramNullspace:
    def test_cut_crossing_decides_as_the_dense_reference(self, monkeypatch):
        # planted full-algebra YES cases perturbed across the cut, and degree-1
        # matpoly YES cases, whose reduced system has sigma_1 below its
        # reference scale, so the cut is rank_rel * scale
        cases = [(_perturbed_full_yes, case) for case in _CUT_CROSSING]
        cases += [(_matpoly_yes, (d, seed)) for d in (8, 9, 10) for seed in range(4)]
        scales = []

        def recording(M, tol=Tolerances(), scale=0.0):
            scales.append(scale / np.linalg.norm(M, 2))
            return dense_nullspace_basis(M, tol, scale)

        gram = [decide(*args) for decide, args in cases]
        monkeypatch.setattr(solver_mod, "nullspace_basis", recording)
        dense = [decide(*args) for decide, args in cases]
        assert gram == dense
        assert {verdict for verdict, _ in gram} == {"YES", "NO"}
        assert min(scales[-12:]) > 1.0

    @pytest.mark.parametrize("c", [1e-160, 1e160])
    def test_planted_yes_at_extreme_scales(self, c):
        # the Gram of the reduced system would underflow (a NO with no
        # solution) or overflow (eigh fails) without its power-of-two rescaling;
        # a pair's Frobenius norm, which squares the entries, would overflow
        # at 1e160 unless the pair is divided by its largest entry first
        inst, _ = random_yes_instance(4, 4, 2, seed=3)
        pairs = tuple((c * X, c * Y) for X, Y in inst.pairs)
        verdict = decide_uep(UepInstance(d1=4, d2=4, pairs=pairs, G1=inst.G1, G2=inst.G2), CFG)
        assert (verdict.verdict, verdict.solution_dimension) == ("YES", 1)
        rng = np.random.default_rng(3)
        A, B = (ginibre(4, 4, rng) + 2 * np.eye(4) for _ in "AB")
        P = [c * ginibre(4, 4, rng) for _ in range(3)]
        Q = [A @ C @ np.linalg.inv(B) for C in P]
        verdict = decide_invertible_equivalence(MatrixPolynomial(tuple(P)),
                                                MatrixPolynomial(tuple(Q)), CFG)
        assert verdict.verdict == "YES" and verdict.residual <= 1e-10


class TestPrefilter:
    def test_identical_pairs_pass(self, rng):
        X = ginibre(2, 3, rng)
        ok, idx = singular_value_prefilter([(X, X)])
        assert ok and idx is None

    def test_rank_mismatch_fails_at_index(self):
        ok, idx = singular_value_prefilter([(np.eye(2), np.eye(2)), (np.eye(2), np.diag([1.0, 0.0]))])
        assert not ok and idx == 1

    def test_yes_instances_always_pass(self):
        for seed in range(10):
            inst, _ = random_yes_instance(3, 2, 2, seed=seed)
            ok, _ = singular_value_prefilter(inst.pairs)
            assert ok


class TestInvertibleEquivalence:
    def test_equal_polynomials(self, rng):
        P = MatrixPolynomial(tuple(ginibre(2, 3, rng) for _ in range(3)))
        verdict = decide_invertible_equivalence(P, P, CFG)
        assert verdict.verdict == "YES"
        assert verdict.certificate_kind == "invertible"
        assert verdict.residual <= 1e-10

    def test_scalar_rescaling(self):
        E11 = np.zeros((2, 2)); E11[0, 0] = 1.0
        P = MatrixPolynomial((np.zeros((2, 2)), E11))
        Q = MatrixPolynomial((np.zeros((2, 2)), 5.0 * E11))
        verdict = decide_invertible_equivalence(P, Q, CFG)
        assert verdict.verdict == "YES"
        A, B = verdict.U, verdict.V
        for X, Y in zip(P.coefficients, Q.coefficients):
            assert np.linalg.norm(A @ X - Y @ B) <= 1e-6 * max(1.0, np.linalg.norm(A @ X))

    def test_disparate_coefficient_scales(self):
        # each pair scaled by 1e6 or 1e-6: one rank cut over unnormalized pairs
        # could not see the small ones' constraints (about half ended INCONCLUSIVE)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            d1, d2, k = rng.integers(2, 5), rng.integers(2, 5), rng.integers(2, 4)
            A = ginibre(d1, d1, rng) + 2 * np.eye(d1)
            B = ginibre(d2, d2, rng) + 2 * np.eye(d2)
            P = [ginibre(d1, d2, rng) * rng.choice([1e6, 1e-6]) for _ in range(k)]
            Q = [A @ C @ np.linalg.inv(B) for C in P]
            verdict = decide_invertible_equivalence(MatrixPolynomial(tuple(P)),
                                                    MatrixPolynomial(tuple(Q)),
                                                    SamplerConfig(seed=seed))
            assert verdict.verdict == "YES", (seed, verdict.detail)

    def test_rank_profile_mismatch_is_no(self, rng):
        P = MatrixPolynomial((np.eye(2), np.eye(2)))           # ranks (2, 2)
        Q = MatrixPolynomial((np.diag([1.0, 0.0]), np.eye(2)))  # ranks (1, 2)
        verdict = decide_invertible_equivalence(P, Q, CFG)
        assert verdict.verdict == "NO"
        assert verdict.certainty == "exact"

    def test_planted_invertible_pair(self, rng):
        A = ginibre(3, 3, rng) + 2 * np.eye(3)
        B = ginibre(2, 2, rng) + 2 * np.eye(2)
        P = MatrixPolynomial(tuple(ginibre(3, 2, rng) for _ in range(3)))
        Q = MatrixPolynomial(tuple(A @ C @ np.linalg.inv(B) for C in P.coefficients))
        verdict = decide_invertible_equivalence(P, Q, CFG)
        assert verdict.verdict == "YES" and verdict.residual <= 1e-8

    def test_rejects_shape_mismatch(self, rng):
        P = MatrixPolynomial((ginibre(2, 2, rng),))
        Q = MatrixPolynomial((ginibre(2, 3, rng),))
        with pytest.raises(InputError):
            decide_invertible_equivalence(P, Q, CFG)


MODES = ("matrix-pairs", "matpoly", "pure-sets", "unilocal-mixed", "generic-mixed")
UNITARY_MODES = tuple(m for m in MODES if m != "matpoly")


def _planted(mode, rng):
    """(payload, U, V) of an instance of mode with its planted certificate."""
    if mode == "matrix-pairs":
        inst, (U0, V0) = random_yes_instance(4, 3, 1, g1_kind=("factor", 2, 2), seed=61)
        return inst, U0, V0
    if mode == "matpoly":
        A, B = ginibre(3, 3, rng) + 2 * np.eye(3), ginibre(2, 2, rng) + 2 * np.eye(2)
        P = MatrixPolynomial(tuple(ginibre(3, 2, rng) for _ in range(2)))
        Q = MatrixPolynomial(tuple(A @ C @ np.linalg.inv(B) for C in P.coefficients))
        return (P, Q), A, B
    U0, V0 = haar(2, rng), haar(3, rng)
    if mode == "pure-sets":
        vecs = [ginibre(1, 6, rng).ravel() for _ in range(3)]
        ins = [pure_state(2, 3, v / np.linalg.norm(v)) for v in vecs]
        outs = [pure_state(2, 3, np.kron(U0, V0) @ s.amplitudes) for s in ins]
        return (ins, outs), U0, V0
    if mode == "unilocal-mixed":
        big = np.kron(U0, np.eye(3))
        rhos = [random_density(2, 3, rng) for _ in range(2)]
        return (rhos, [density_operator(2, 3, big @ r.matrix @ big.conj().T) for r in rhos]), U0, None
    local = np.kron(U0, V0)
    rho = random_density(2, 3, rng, min_gap=1e-3)
    return (rho, density_operator(2, 3, local @ rho.matrix @ local.conj().T)), U0, V0


class TestCertificateResiduals:
    @pytest.mark.parametrize("mode", MODES)
    def test_planted_certificate_passes(self, mode, rng):
        payload, U, V = _planted(mode, rng)
        residual, defect = certificate_residuals(mode, payload, U, V)
        assert residual <= 1e-12 and defect <= 1e-12

    @pytest.mark.parametrize("mode", UNITARY_MODES)
    def test_scaled_unitary_fails_on_the_defect(self, mode, rng):
        payload, U, V = _planted(mode, rng)
        _, defect = certificate_residuals(mode, payload, 1.01 * U, V)
        assert defect > Tolerances().residual_abs

    def test_matrix_pairs_defect_counts_the_algebra(self):
        # swap @ U0 is unitary but lies outside G1 = M (x) I_2: only membership rejects it
        inst, (U0, V0) = random_yes_instance(4, 3, 0, g1_kind=("factor", 2, 2), seed=62)
        swap = np.eye(4)[[0, 2, 1, 3]]
        _, defect = certificate_residuals("matrix-pairs", inst, swap @ U0, V0)
        assert defect >= span_residual(inst.G1, swap @ U0) > 1e-3

    def test_singular_matpoly_block_fails(self, rng):
        payload, A, B = _planted("matpoly", rng)
        A[0] = 0.0
        assert certificate_residuals("matpoly", payload, A, B) == (np.inf, np.inf)

    @pytest.mark.parametrize("mode", MODES)
    def test_wrong_shapes_raise(self, mode, rng):
        payload, U, V = _planted(mode, rng)
        with pytest.raises(InputError):
            certificate_residuals(mode, payload, np.eye(len(U) + 1), V)
        with pytest.raises(InputError):
            certificate_residuals(mode, payload, U, np.eye(2) if V is None else None)

    @pytest.mark.parametrize("case, checked_as", [
        ("full", "matrix-pairs"), ("factor", "matrix-pairs"), ("matpoly", "matpoly"),
        ("pure-sets", "pure-sets"), ("unilocal-mixed", "unilocal-mixed"),
        ("generic-mixed", "generic-mixed")])
    def test_a_yes_is_checked_once(self, case, checked_as, monkeypatch, rng):
        # every decide path ends in one certificate check, in its own mode:
        # the state reductions check their states or density operators. The
        # sampler accepts a candidate by taking its polar factors, so each
        # pivot route calls extract_unitaries once per trial
        modes, extracted = [], []
        real_check, real_extract = solver_mod.certificate_residuals, solver_mod.extract_unitaries

        def spy(mode, *args, **kwargs):
            modes.append(mode)
            return real_check(mode, *args, **kwargs)

        def extract_spy(*args, **kwargs):
            extracted.append(args)
            return real_extract(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "certificate_residuals", spy)
        monkeypatch.setattr(solver_mod, "extract_unitaries", extract_spy)
        if case in ("full", "factor"):
            kind = "full" if case == "full" else ("factor", 2, 2)
            verdict = decide_uep(random_yes_instance(4, 4, 1, kind, kind, seed=62)[0], CFG)
        else:
            (ins, outs), _, _ = _planted(case, rng)
            decide = {"matpoly": decide_invertible_equivalence,
                      "pure-sets": simultaneous_lu_pure, "generic-mixed": generic_mixed_lu,
                      "unilocal-mixed": unilocal_mixed_equivalence}[case]
            verdict = decide(ins, outs, CFG)
        assert verdict.verdict == "YES" and modes == [checked_as]
        assert len(extracted) == verdict.trials_used >= 1

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e160, 1e200])
    def test_turned_certificate_fails_at_every_scale(self, scale, tmp_path, capsys):
        # U turned by exp(1e-7 i H) reads the same residual however large the
        # entries; unless each pair is divided by its largest entry first,
        # ||Y_i||_F overflows at 1e160 and the residual reads 0, and at 1e200
        # ||D_i||_F too and it reads nan, both accepted by check_certificate
        inst, (U, V) = random_yes_instance(4, 4, 2, seed=3)
        G = ginibre(4, 4, np.random.default_rng(1))
        w, Q = np.linalg.eigh(G + G.conj().T)
        U = U @ (Q * np.exp(0.5e-7j * w)) @ Q.conj().T
        scaled = UepInstance(4, 4, tuple((scale * X, scale * Y) for X, Y in inst.pairs),
                             inst.G1, inst.G2)
        verdict = check_certificate(UepVerdict(verdict="YES", certainty="probabilistic", U=U, V=V),
                                    "matrix-pairs", scaled)
        assert verdict.verdict == "INCONCLUSIVE"
        assert verdict.residual == pytest.approx(1.558529e-7, rel=1e-6)
        inst_path, cert_path = tmp_path / "i.json", tmp_path / "c.json"
        inst_path.write_text(dumps_document(instance_to_json(scaled)))
        cert_path.write_text(json.dumps(certificate_to_json(U, V)))
        assert main(["verify", str(inst_path), str(cert_path)]) == 1
        residual = float(capsys.readouterr().out.split()[1])
        assert residual == pytest.approx(1.558529e-7, rel=1e-6)

    def test_failed_check_turns_yes_into_inconclusive(self, rng):
        payload, U, V = _planted("generic-mixed", rng)
        verdict = check_certificate(UepVerdict(verdict="YES", certainty="exact", U=1.01 * U, V=V),
                                    "generic-mixed", payload)
        assert verdict.verdict == "INCONCLUSIVE"
        assert "residual=" in verdict.detail and "defect=" in verdict.detail
        assert verdict.residual > Tolerances().residual_abs
