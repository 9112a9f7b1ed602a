import ast
import json
import tracemalloc
from functools import partial
from itertools import islice
from pathlib import Path
from unittest import mock

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
    verify_algebra,
)
from uniequiv import (density_operator, generic_mixed_lu, pure_state, simultaneous_lu_pure,
                      unilocal_mixed_equivalence)
from uniequiv.algebra import factor_algebra, matrix_units, span_residual
from uniequiv.cli import main
from uniequiv.linalg import same_spectrum
from uniequiv.oracle import random_yes_instance
from uniequiv.serialize import (certificate_to_json, dumps_document, instance_to_json,
                                verdict_document)
from uniequiv.solver import (SolutionSpace, UepVerdict, certificate_residuals, check_certificate,
                             _clusters, _pivot_frames, _pivot_pair, draw_candidate,
                             per_trial_failure_bound)

import uniequiv.solver as solver_mod

from conftest import algebras, ginibre, haar, random_density
from exact_reference import dense_nullspace_basis, membership_rows_system, singular_value_ratio
from test_properties import _reduced_system, factor_shape_instances, full_pairs

CFG = SamplerConfig(seed=17)


def _space(inst, tol=Tolerances()):
    return solve_solution_space(build_linear_system(inst, tol), tol)


def _upper_triangular(d):
    return matrix_algebra([np.outer(np.eye(d)[i], np.eye(d)[j])
                           for i in range(d) for j in range(i, d)])


_EYE2 = np.eye(2)
BAD_INSTANCES = [
    (dict(d1=0, d2=2, pairs=((_EYE2, _EYE2),)), "dimensions must be positive"),
    (dict(d1=2, d2=-1, pairs=((_EYE2, _EYE2),)), "dimensions must be positive"),
    (dict(d1=2, d2=2, pairs=()), "an instance needs at least one matrix pair"),
    (dict(d1=2, d2=2, pairs=((_EYE2, _EYE2), (_EYE2, np.eye(2, 3)))),
     r"pairs\[1\] has shape \(2, 2\)/\(2, 3\), expected \(2, 2\)"),
    (dict(d1=2, d2=2, pairs=((_EYE2, _EYE2),), G2=full_algebra(3)),
     "algebra ambient dimensions must match d1, d2"),
]


@pytest.mark.parametrize("fields, message", BAD_INSTANCES,
                         ids=["d1", "d2", "no-pairs", "pair-shape", "algebra-dimension"])
def test_instance_checks_name_the_fault(fields, message):
    algebras = {"G1": full_algebra(2), "G2": full_algebra(2)}
    with pytest.raises(InputError, match=f"^{message}$"):
        UepInstance(**{**algebras, **fields})


def test_every_exact_no_is_built_by_exact_no():
    """An exact NO claims NO without a failure bound, so a rule that every
    such NO must obey needs one place to hook into: no UepVerdict call in the
    package but the one in solver._exact_no names verdict "NO" with
    certainty "exact"."""
    sites = []
    for path in sorted(Path(solver_mod.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name == "_exact_no"
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            name = getattr(func, "id", getattr(func, "attr", None))
            if name != "UepVerdict" or id(node) in allowed:
                continue
            fields = dict(zip(("verdict", "certainty"), node.args))
            fields.update((k.arg, k.value) for k in node.keywords)
            if all(getattr(fields.get(k), "value", None) == v
                   for k, v in (("verdict", "NO"), ("certainty", "exact"))):
                sites.append(f"{path.name}:{node.lineno}")
    assert sites == []
    assert solver_mod._exact_no("d", solution_dimension=0).__dict__ == UepVerdict(
        verdict="NO", certainty="exact", detail="d", solution_dimension=0).__dict__


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
        E, factor = solver_mod._star_part(_upper_triangular(2), Tolerances())
        assert len(E) == 2 and factor == pytest.approx(2.0)
        assert np.allclose(np.tril(E, -1), 0) and np.allclose(np.triu(E, 1), 0)
        assert solver_mod._star_part(full_algebra(2), Tolerances())[1] == 1.0

    def test_star_part_of_a_span_forms_no_d2_by_d2_array(self):
        # nine diagonal projections at d = 64: the full SVD of the d^2 x 9
        # matrix formed a d^2 x d^2 U of 268 MB and discarded it
        G = matrix_algebra([np.diag((np.arange(64) % 9 == k) * 1.0) for k in range(9)])
        tracemalloc.start()
        try:
            E, factor = solver_mod._star_part(G, Tolerances())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert len(E) == 9 and factor == 1.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(algebras().filter(lambda G: verify_algebra(G).star_closed))
    def test_a_star_closed_span_gets_an_orthonormal_basis_of_itself(self, G):
        # no adjoint direction lies above the cut: all of G, in orthonormal elements
        E, factor = solver_mod._star_part(G, Tolerances())
        assert factor == 1.0 and len(E) == G.size
        F = E.reshape(len(E), -1)
        assert np.abs(F.conj() @ F.T - np.eye(len(E))).max() <= 1e-12
        assert max(span_residual(G, M) for M in E) <= 1e-12

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


# the first outputs of Vigna's reference splitmix64.c at state 1234567
SPLITMIX64_AT_1234567 = [6457827717110365317, 3203168211198807973, 9817491932198370423]


def _splitmix64(state):
    """Vigna's splitmix64.c next(), one word at a time, in Python ints."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        yield z ^ (z >> 31)


def _stream(seed, name, index, n):
    """The first n words of the package's stream (seed, name, index), by the reference."""
    return list(islice(_splitmix64(solver_mod._stream_state(seed, name, index)), n))


def _unit_combination(words):
    """The pivot's coefficients from 2n words: real, then imaginary parts uniform
    on [-1, 1), the words' top 53 bits, normalized to a unit vector."""
    re, im = np.reshape([(w >> 11) * 2.0**-52 - 1.0 for w in words], (2, -1))
    return (re + 1j * im) / np.linalg.norm(re + 1j * im)


class TestSampler:
    def test_the_core_is_splitmix64(self):
        assert list(islice(_splitmix64(1234567), 3)) == SPLITMIX64_AT_1234567
        assert solver_mod._words(1234567, 0, 3).tolist() == SPLITMIX64_AT_1234567
        # any stretch of a stream, at a state with every bit in use
        state = 2**64 - 1 - 1234567
        assert solver_mod._words(state, 5, 300).tolist() == list(islice(_splitmix64(state), 5, 305))

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

    def test_the_largest_sample_max_draws(self):
        # 2^63 - 1 is the last bound a sampler takes; one more is an
        # InputError (tests/test_input_checks.py), not a crash in the draw
        units = np.eye(4, dtype=complex).reshape(4, 2, 2)
        A, _ = draw_candidate(SolutionSpace(units, units), SamplerConfig(sample_max=2**63 - 1), 0)
        assert np.all(A.real >= 1) and np.all(A.imag >= 1)

    @pytest.mark.parametrize("sample_max", [2, 2**63 - 1])
    def test_draws_stay_in_range_at_both_ends(self, sample_max):
        # the integers as drawn, before a float holds them; the upper half of
        # the range is reached, so the top bits are the ones used
        ints = solver_mod._uniform_ints(solver_mod._stream_state(5, "trial", 0), 512, sample_max)
        assert 1 <= min(ints.tolist()) and max(ints.tolist()) <= sample_max
        assert max(ints.tolist()) > sample_max // 2 and len(ints) == 512

    @pytest.mark.parametrize("seed", [0, 7, 2**40, 2**70])
    def test_draws_and_the_pivot_follow_their_rng_streams(self, seed):
        # over the matrix units a draw's entries are its coefficients: the top
        # 10 bits of the words of stream (seed, "trial", trial) that fall below
        # sample_max = 600, plus 1, as real parts, then imaginary parts
        cfg = SamplerConfig(seed=seed, sample_max=600)
        units = np.eye(4, dtype=complex).reshape(4, 2, 2)
        space = SolutionSpace(units, units[:, ::-1])
        rejected = 0
        for trial in range(3):
            tops = [w >> 54 for w in _stream(seed, "trial", trial, 40)]
            last = [i for i, v in enumerate(tops) if v < 600][7]  # where the 8th is kept
            kept = [v + 1 for v in tops[:last + 1] if v < 600]
            rejected += last + 1 - len(kept)
            A, B = draw_candidate(space, cfg, trial)
            assert np.array_equal(A.ravel(), np.add(kept[:4], 1j * np.array(kept[4:])))
            assert np.array_equal(B, A[::-1])
        assert rejected  # 424 of 1024 tops are rejected: the rule is exercised
        # the pivot pair of pairs (e_i, 0) is (c, 0), c from the first 10 words
        # of stream (seed, "pivot", 0)
        Z = np.zeros((5, 2, 1, 5))
        Z[range(5), 0, 0, range(5)] = 1.0
        pivot = _pivot_pair(Z, seed)
        np.testing.assert_allclose(pivot[0, 0], _unit_combination(_stream(seed, "pivot", 0, 10)),
                                   rtol=1e-15, atol=0)
        assert not pivot[1].any()

    def test_seeds_of_any_size_draw_their_own_streams(self):
        units = np.eye(16, dtype=complex).reshape(16, 4, 4)
        space, seeds = SolutionSpace(units, units), (0, 7, 2**40, 2**70)
        Z = np.stack([units[:6], units[6:12]], axis=1)
        draws = [(draw_candidate(space, SamplerConfig(seed=s), 0)[0], _pivot_pair(Z, s))
                 for s in seeds]
        for (A, P), s in zip(draws, seeds):
            assert np.array_equal(A, draw_candidate(space, SamplerConfig(seed=s), 0)[0])
            assert np.array_equal(P, _pivot_pair(Z, s))
        for i, (A, P) in enumerate(draws):
            for B, Q in draws[i + 1:]:
                assert not np.array_equal(A, B) and not np.array_equal(P, Q)

    @pytest.mark.parametrize("seed", [0, 7, 2**40, 2**70])
    def test_pivot_and_trial_streams_share_no_word(self, seed):
        streams = [_stream(seed, "pivot", key, 64) for key in (0, 1)]
        streams += [_stream(seed, "trial", trial, 64) for trial in range(4)]
        assert len(set().union(*streams)) == 6 * 64

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
                residuals = certificate_residuals("matrix-pairs", inst, verdict.U, verdict.V)
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

    @pytest.mark.parametrize("d1, d2, m", [(3, 3, 1), (4, 2, 2)])
    def test_span_written_full_algebras_decide_as_the_shape(self, d1, d2, m, rng):
        # a gauged NO over a Ginibre basis of C^(d1 x d1) and the matrix units
        # of C^(d2 x d2); as spans it took the plain system, with another
        # solution_dimension (a planted YES is the disparate-scale test below)
        inst = _gauged([ginibre(d1, d2, rng) for _ in range(m + 1)], rng)
        spans = (matrix_algebra([ginibre(d1, d1, rng) for _ in range(d1 * d1)]),
                 matrix_algebra(matrix_units(d2)))
        verdict, shape = (decide_uep(UepInstance(d1, d2, inst.pairs, *G), CFG)
                          for G in (spans, (full_algebra(d1), full_algebra(d2))))
        assert verdict.verdict == shape.verdict == "NO"
        assert verdict.solution_dimension == shape.solution_dimension

    def test_disparate_scales_over_a_span_written_full_algebra(self):
        # (1e6 I, 1e6 I) beside two planted pairs at 1e-6, G1 the span of the
        # matrix units: as a span, its unnormalized plain system ended
        # INCONCLUSIVE on all 30 seeds; as the shape (3, 1) it decides YES
        G1 = matrix_algebra(matrix_units(3))
        for seed in range(30):
            rng = np.random.default_rng(seed)
            U = haar(3, rng)
            Xs = [1e-6 * ginibre(3, 3, rng) for _ in range(2)]
            pairs = (((1e6 * np.eye(3), 1e6 * np.eye(3)),)
                     + tuple((X, U @ X @ U.conj().T) for X in Xs))
            verdict = decide_uep(UepInstance(3, 3, pairs, G1, full_algebra(3)),
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
    """Records (a, a', adjoint, columns) for every reduced system the pivot
    routes assemble."""
    seen = []
    real = solver_mod._pivot_system

    def spy(XY, frames, columns, adjoint):
        system = real(XY, frames, columns, adjoint)
        seen.append((XY.shape[2], XY.shape[3], adjoint, system.matrix.shape[1]))
        return system

    monkeypatch.setattr(solver_mod, "_pivot_system", spy)
    return seen


def _declined(*args):
    """Stands in for solver._read_diagonal where a test needs the solve: every
    read declines."""
    return None


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
    cannot resolve loses the solutions. x_1 and x_2 are scaled so that the
    pivot's s_1 is 1: the pivot cut is relative to max(1, s_1), so a gap
    relative to s_1 is relative to the cut only where s_1 >= 1."""
    rng = np.random.default_rng(seed)
    one = [np.ones((1, 1)), np.zeros((1, 1))]
    c1, c2 = (_pivot_pair(np.stack([probe, probe], axis=1), seed)[0, 0, 0]
              for probe in (one, one[::-1]))
    x1 = np.concatenate([[12.0, 4.0], rng.uniform(0.1, 0.5, d - 2)]).astype(complex)
    x2 = np.concatenate([[0.0, 12.0], rng.uniform(0.1, 0.5, d - 2)]).astype(complex)
    s1 = (1 + gap) * abs(c1 * x1[1] + c2 * x2[1])
    x2[0] = (s1 - c1 * x1[0]) / c2
    x1, x2 = x1 / s1, x2 / s1
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
            # the combination the pivot would take from a trial's stream
            c = _unit_combination(_stream(9, "trial", trial, 4))
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
        ((_, _, adjoint, _),) = seen
        assert verdict.verdict == "YES" and adjoint
        margin = verdict.aux.pop("pivot_coupling_margin")
        assert margin is None if free else margin > 1  # no coupled column, no margin
        assert verdict.aux == {"pivot_clusters": [1, 1], "pivot_merged_gap": 0.0,
                               "pivot_split_gap": None, "pivot_unknowns": unknowns,
                               "pivot_free_units": free}
        assert verdict.solution_dimension == _space(inst).dimension

    def test_factor_algebra_takes_the_realigned_pivot(self, monkeypatch):
        # M (x) I_2 against the full algebra on C^4: the pivot route runs on the
        # two realigned 2 x 4 blocks, and the lifted u (x) I_2 checks out on the
        # instance itself. The blocks would be read; declined, they build the
        # system
        monkeypatch.setattr(solver_mod, "_read_diagonal", _declined)
        seen = _pivot_systems_seen(monkeypatch)
        inst, _ = random_yes_instance(4, 4, 0, g1_kind=("factor", 2, 2), seed=6)
        verdict = decide_uep(inst, CFG)
        assert [(a, a2, adjoint) for a, a2, adjoint, _ in seen] == [(2, 4, True)]
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

    def test_one_pair_of_two_blocks_leaves_an_empty_second_batch(self, monkeypatch):
        # M (x) I_2 against the full algebra on C^3: the one pair has the two
        # blocks y_p = u_p x_p v^dag, whose spectra, and the pair's, are kept;
        # the first batch of blocks is all of them and the second is empty
        rng = np.random.default_rng(21)
        x = [ginibre(3, 3, rng) for _ in range(2)]
        v = haar(3, rng)
        y = [haar(3, rng) @ x_p @ v.conj().T for x_p in x]
        X, Y = (np.stack(blocks, axis=1).reshape(6, 3) for blocks in (x, y))
        compared = []
        real = solver_mod.singular_value_prefilter

        def spy(pairs, tol=Tolerances()):
            compared.append(len(pairs))
            return real(pairs, tol)

        monkeypatch.setattr(solver_mod, "singular_value_prefilter", spy)
        verdict = decide_uep(UepInstance(6, 3, ((X, Y),), factor_algebra(3, 2), full_algebra(3)),
                             CFG)
        assert compared == [1, 2, 0]
        assert (verdict.verdict, verdict.certainty) == ("NO", "exact")
        assert verdict.detail == ("singular values differ at the random pivot pair "
                                  "sum_i c_i (X_i, Y_i)")

    def test_reduced_yes_certificate_checks_out(self):
        inst, _ = random_yes_instance(6, 4, 2, seed=12)
        verdict = decide_uep(inst, CFG)
        assert verdict.verdict == "YES" and verdict.residual <= 1e-12
        assert verdict.solution_dimension == _space(inst).dimension
        assert verdict.aux["pivot_clusters"] == [5, 4]

    def test_distinct_spectrum_keeps_one_coupled_column_per_unit(self, monkeypatch):
        # distinct singular values leave one cluster per index, whose unit
        # (j, j) keeps the coupled column (t_j, s_j) / hypot(s_j, t_j): d
        # unknowns where free units of A' and B' would take 2d. One pair
        # leaves every index untied to the others, so the diagonal read
        # declines and the system is built
        seen = _pivot_systems_seen(monkeypatch)
        inst, _ = random_yes_instance(6, 6, 0, seed=14)
        verdict = decide_uep(inst, CFG)
        ((_, _, _, columns),) = seen
        assert verdict.aux["pivot_clusters"] == [6, 6] and columns == 6
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
        if kind == "unitary":
            verdict = solver_mod._pivot_decide(Z, CFG, Tolerances())
        else:
            # matpoly shares the preparation only; its coefficients are views of Z
            solver_mod._pivot_prepared(Z, CFG, Tolerances())
            assert np.array_equal(Z, before)
            P, Q = (MatrixPolynomial(tuple(Z[:, side])) for side in (0, 1))
            verdict = decide_invertible_equivalence(P, Q, CFG)
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
        system, aux = _reduced_system(Z, frames, label, adjoint)

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


def _pencil(d, n, rng):
    """Coefficients P_i and Q_i = A P_i B^-1 of a planted regular pencil."""
    A, B = (ginibre(d, d, rng) + 2 * np.eye(d) for _ in "AB")
    P = [ginibre(d, d, rng) for _ in range(n)]
    return (MatrixPolynomial(tuple(P)),
            MatrixPolynomial(tuple(A @ X @ np.linalg.inv(B) for X in P)))


def _read_yes(case):
    """The verdict on a planted YES that the diagonal read answers: square,
    rectangular either way and wide pairs of random_yes_instance, a
    degree-3 matrix polynomial (its one diagonal solution in the eigen
    frames) and a pencil of two coefficients (A' = B' = I there)."""
    if case in ("matpoly-4", "pencil-6"):
        P, Q = _pencil(*((4, 3) if case == "matpoly-4" else (6, 2)), np.random.default_rng(2))
        return decide_invertible_equivalence(P, Q, CFG)
    d1, d2, m = {"square": (5, 5, 2), "rectangular": (4, 5, 2), "transposed": (5, 4, 2),
                 "wide": (2, 4, 1)}[case]
    return decide_uep(random_yes_instance(d1, d2, m, seed=31)[0], CFG)


def _shared_frames(d1, d2, spectrum, rng):
    """Two planted pairs a W D R^dag, a = 1 and 0.5i, whose d1 x d2 D carries
    spectrum: every combination shares their singular frames."""
    W, R, U, V = haar(d1, rng), haar(d2, rng), haar(d1, rng), haar(d2, rng)
    D = np.zeros((d1, d2))
    D[range(len(spectrum)), range(len(spectrum))] = spectrum
    X = W @ D @ R.conj().T
    return uep_instance_full(d1, d2, [(a * X, a * U @ X @ V.conj().T) for a in (1.0, 0.5j)])


class TestDiagonalRead:
    # frames whose indices below r = min(d1, d2) are one coupled cluster
    # each, with the padded indices one cluster of their own, hold one line of
    # solutions A' = diag(a), B' = diag(a) (+) C (C in A' when d1 > d2), which
    # the read takes from column 0 and one least-squares solve of the padded
    # columns; two coefficients in the eigen frames are read as A' = B' = I.
    # Whatever the read declines is built, solved and sampled

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(full_pairs(), factor_shape_instances()).filter(lambda case: case[2]))
    def test_a_read_yes_reports_what_the_solve_reports(self, case):
        # every planted YES of the strategies, square or rectangular either way
        inst, seed, _ = case
        cfg = SamplerConfig(seed=seed)
        read = decide_uep(inst, cfg)
        with mock.patch.object(solver_mod, "_read_diagonal", _declined):
            solved = decide_uep(inst, cfg)
        for verdict in (read, solved):
            assert verdict.verdict == "YES"
            assert max(certificate_residuals("matrix-pairs", inst, verdict.U, verdict.V)) <= 1e-8
        assert ((read.trials_used, read.solution_dimension)
                == (solved.trials_used, solved.solution_dimension))
        assert read.aux == solved.aux  # the pivot_* integers, and the margins and gaps too

    @pytest.mark.parametrize("d", range(2, 9))
    def test_a_pencil_read_reports_what_the_solve_reports(self, d):
        # two coefficients are diagonal in the eigen frames: the read's
        # identity and the solve's sampled diagonal both pass the check, and
        # both report the solve's d-dimensional space
        for seed in range(3):
            P, Q = _pencil(d, 2, np.random.default_rng(seed))
            cfg = SamplerConfig(seed=seed)
            read = decide_invertible_equivalence(P, Q, cfg)
            with mock.patch.object(solver_mod, "_read_diagonal", _declined):
                solved = decide_invertible_equivalence(P, Q, cfg)
            for verdict in (read, solved):
                assert verdict.verdict == "YES" and verdict.residual <= 1e-8
                assert (verdict.trials_used, verdict.solution_dimension) == (1, d)
            assert read.aux == solved.aux and read.aux["pivot_eigen_margin"] > 1.0

    @pytest.mark.parametrize("case, unknowns, free, dimension", [
        ("square", 5, 0, 1), ("rectangular", 5, 1, 1), ("transposed", 5, 1, 1),
        ("wide", 6, 4, 1), ("matpoly-4", 4, 0, 1), ("pencil-6", 6, 0, 6)])
    def test_a_read_yes_builds_solves_and_samples_nothing(self, case, unknowns, free, dimension,
                                                          monkeypatch):
        # the read accepts from the moduli of its diagonal and the SVD of the
        # padded block alone, so no polar factor is taken, and the YES still
        # leaves through one certificate check
        calls = []

        def spy(name):
            real = getattr(solver_mod, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(solver_mod, name, wrapped)

        for name in ("_pivot_system", "nullspace_basis", "draw_candidate", "extract_unitaries",
                     "certificate_residuals"):
            spy(name)
        verdict = _read_yes(case)
        if case not in ("matpoly-4", "pencil-6"):
            assert verdict.aux["pivot_coupling_margin"] > 1
        assert calls == ["certificate_residuals"]
        assert verdict.verdict == "YES" and verdict.residual <= 1e-12
        assert (verdict.trials_used, verdict.solution_dimension) == (1, dimension)
        assert (verdict.aux["pivot_unknowns"], verdict.aux["pivot_free_units"]) == (unknowns, free)

    @pytest.mark.parametrize("case", ["square", "rectangular", "transposed", "wide", "matpoly-4",
                                      "pencil-6"])
    def test_a_read_yes_counts_no_columns_and_reports_theirs(self, case, monkeypatch):
        # the read's gate and aux come from the frames: a read YES never runs
        # _pivot_columns, and records what it returns on the same frames
        seen, counted = [], []
        real_solve, real_columns = solver_mod._solve_in_frames, solver_mod._pivot_columns

        def solve(Z, frames, label, *args):
            seen.append((frames, label, *Z.shape[2:]))
            return real_solve(Z, frames, label, *args)

        monkeypatch.setattr(solver_mod, "_solve_in_frames", solve)
        monkeypatch.setattr(solver_mod, "_pivot_columns", lambda *args: counted.append(args))
        verdict = _read_yes(case)
        assert verdict.verdict == "YES" and counted == []
        ((frames, label, d1, d2),) = seen  # read in the first frames tried
        assert frames.unitary == (case not in ("matpoly-4", "pencil-6"))  # else the eigen frames
        _, expected = real_columns(frames, label, d1, d2)
        assert {key: verdict.aux[key] for key in expected} == expected

    @pytest.mark.parametrize("case, columns, dimension", [
        ("one-pair", 6, 6), ("rectangular", 5, 1), ("repeated", 6, 6), ("matpoly-4", 16, 1),
        ("pencil-6", 6, 6), ("shared-frames", 4, 4), ("padded-rank", 18, 5),
        ("rectangular-repeated", 9, 9)])
    def test_a_declined_read_reports_the_solve(self, case, columns, dimension, monkeypatch, rng):
        # one spanned pair is diagonal in the frames it made; a repeated
        # singular value, square or rectangular, and matpoly's singular frames
        # (one cluster) are never read; pairs that share the pivot's frames
        # leave p_j = 0 off index 0; a 2 x 6 pair beside the pivot pins at most
        # 2 of the 4 padded columns' rows, so the read declines before its
        # least-squares solve. The rectangular pivot and the pencil of two
        # coefficients are read: with the read declined, their solve shows
        # what the read reports, and matpoly-4 is kept in its singular frames.
        # Each builds its system and reports its solution space, and no case
        # reaches the read's least-squares solve
        def forbidden(*args, **kwargs):
            raise AssertionError("lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", forbidden)
        if case in ("rectangular", "pencil-6"):
            monkeypatch.setattr(solver_mod, "_read_diagonal", _declined)
        if case == "matpoly-4":
            monkeypatch.setattr(solver_mod, "_eigen_frames", lambda *args: (None, None))
        seen = _pivot_systems_seen(monkeypatch)
        if case.startswith(("matpoly", "pencil")):
            P, Q = _pencil(*((4, 3) if case == "matpoly-4" else (6, 2)), rng)
            verdict = decide_invertible_equivalence(P, Q, CFG)
        else:
            if case in ("repeated", "shared-frames"):
                third = 1.0 if case == "repeated" else 0.8
                inst = _shared_frames(4, 4, [2.0, 1.0, third, 0.5], rng)
            elif case == "rectangular-repeated":
                inst = _shared_frames(3, 5, [2.0, 1.0, 1.0], rng)
            else:
                shape = {"one-pair": (6, 6, 0), "rectangular": (4, 5, 2), "padded-rank": (2, 6, 1)}
                inst, _ = random_yes_instance(*shape[case], seed=14)
            verdict = decide_uep(inst, CFG)
            monkeypatch.undo()
            assert dimension == _space(inst).dimension
        ((_, _, _, built),) = seen
        assert built == columns == verdict.aux["pivot_unknowns"]
        assert verdict.verdict == "YES" and verdict.solution_dimension == dimension
        clusters = {"repeated": [3, 3], "rectangular-repeated": [2, 3]}
        if case in clusters:
            assert verdict.aux["pivot_clusters"] == clusters[case]

    def test_a_singular_padded_block_fails_the_samplers_rule(self):
        # rotated 2 x 3 pairs with the pivot (S, S) first: the second pair ties
        # index 1 to index 0 (a = 1) and pins C = 0 through a zero padded
        # column of X' against a nonzero one of Y'. (I, I (+) 0) leaves no
        # residual, but B' has the singular value 0, which the rule rejects
        S = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        X1 = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0]])
        Y1 = X1 + np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        XY = np.array([[S, X1], [S, Y1]], dtype=complex)
        st = np.array([2.0, 1.0, 0.0])
        frames = solver_mod._PivotFrames(np.stack([np.eye(2)] * 2), np.stack([np.eye(3)] * 2),
                                         st, st, solver_mod._pivot_cut(Tolerances()))
        assert solver_mod._read_diagonal(XY, frames, Tolerances(), "unitary") is None
        XY[:, 1, :, 2] = [[1.0], [2.0]]  # C = 1/2, whose polar factor is 1
        verdict = solver_mod._read_diagonal(XY, frames, Tolerances(), "unitary")
        assert (verdict.verdict, verdict.trials_used, verdict.solution_dimension) == ("YES", 1, 1)
        np.testing.assert_allclose(verdict.U, np.eye(2), rtol=0, atol=1e-15)
        np.testing.assert_allclose(verdict.V, np.eye(3), rtol=0, atol=1e-15)

    def test_a_read_that_leaves_a_residual_declines_to_the_solve(self, monkeypatch, rng):
        # Y_i = U X_i^T V^dag keeps the spectrum of every combination, so the
        # pivot passes and every index is tied to index 0, but diag(a) leaves
        # a residual of order 1: the solve answers, with its trivial space
        seen = _pivot_systems_seen(monkeypatch)
        U, V = haar(4, rng), haar(4, rng)
        Xs = [ginibre(4, 4, rng) for _ in range(3)]
        verdict = decide_uep(uep_instance_full(4, 4, [(X, U @ X.T @ V.conj().T) for X in Xs]),
                             CFG)
        ((_, _, _, built),) = seen
        assert verdict.aux["pivot_clusters"] == [4, 4] and built == 4
        assert (verdict.verdict, verdict.certainty, verdict.solution_dimension) == ("NO", "exact", 0)

    @pytest.mark.parametrize("eta", [1e-10, 3e-10, 1e-9])
    def test_a_noisy_square_planted_yes_is_read(self, eta):
        # Y_i + eta N_i with ||N_i||_F = 1: the planted certificate passes the
        # check, while the solve's rank cut leaves only the trivial solution
        for seed in range(40):
            inst, _ = random_yes_instance(4, 4, 2, seed=seed)
            rng = np.random.default_rng(seed)
            noise = [ginibre(4, 4, rng) for _ in inst.pairs]
            pairs = tuple((X, Y + eta * N / np.linalg.norm(N))
                          for (X, Y), N in zip(inst.pairs, noise))
            verdict = decide_uep(UepInstance(4, 4, pairs, inst.G1, inst.G2),
                                 SamplerConfig(seed=seed))
            assert verdict.verdict == "YES" and verdict.residual <= 1e-8, (seed, verdict.detail)


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


def _budget_case(kind):
    """(decide, bytes, unknowns) of a YES whose read declines, with the bytes
    16 g (k n d1 d2 + d1^2 + d2^2) of its reduced system's rows and bases:
    one 6 x 6 pair (a single pair is never read) over full algebras, g = 6
    and k = 2 with the adjoint rows, or one 3 x 3 coefficient pair in the
    singular frames, one cluster of g = 9 units and k = 1."""
    if kind == "unitary":
        inst, _ = random_yes_instance(6, 6, 0, seed=14)
        return partial(decide_uep, inst, CFG), 16 * 6 * (2 * 36 + 72), 6
    P, Q = _pencil(3, 1, np.random.default_rng(4))
    return partial(decide_invertible_equivalence, P, Q, CFG), 16 * 9 * (9 + 18), 9


class TestSystemBudget:
    # a declined read counts its columns; a reduced system whose rows and
    # bases would take more than _MAX_SYSTEM_BYTES is INCONCLUSIVE before
    # anything is allocated

    @pytest.mark.parametrize("kind", ["unitary", "invertible"])
    def test_a_system_over_the_budget_is_inconclusive_and_never_built(self, kind, monkeypatch):
        solve, size, g = _budget_case(kind)
        seen = _pivot_systems_seen(monkeypatch)
        monkeypatch.setattr(solver_mod, "_MAX_SYSTEM_BYTES", size)
        verdict = solve()
        assert verdict.verdict == "YES" and len(seen) == 1 and verdict.aux["pivot_unknowns"] == g
        monkeypatch.setattr(solver_mod, "_MAX_SYSTEM_BYTES", size - 1)
        verdict = solve()
        assert len(seen) == 1  # the second call built nothing
        assert (verdict.verdict, verdict.certainty, verdict.certificate_kind) == (
            "INCONCLUSIVE", "probabilistic", kind)
        assert verdict.detail == (f"the reduced system of {g} unknowns would take {size} bytes, "
                                  f"over the budget of {size - 1} bytes")
        assert verdict.aux["pivot_unknowns"] == g and verdict.U is None

    @pytest.mark.parametrize("d, unknowns, built", [(192, 218, True), (384, 941, False)])
    def test_the_budget_admits_d_192_and_stops_d_384(self, d, unknowns, built, monkeypatch):
        # the planted YES of three pairs has clusters of two below the cut of
        # the pivot drawn from seed 0, so it is solved: about 1.03e9 bytes at
        # d = 192, inside 2^31, and 1.78e10 at d = 384, where np.zeros raised
        # MemoryError. Neither system is built here
        class Built(Exception):
            pass

        def refuse(XY, frames, columns, adjoint):
            raise Built(len(columns[0]))

        monkeypatch.setattr(solver_mod, "_pivot_system", refuse)
        inst, _ = random_yes_instance(d, d, 2, seed=1)
        if built:
            with pytest.raises(Built, match=f"^{unknowns}$"):
                decide_uep(inst)
            return
        verdict = decide_uep(inst)
        size = 16 * unknowns * (2 * 3 * d * d + 2 * d * d)
        assert verdict.verdict == "INCONCLUSIVE" and size > solver_mod._MAX_SYSTEM_BYTES == 2**31
        assert verdict.detail.startswith(f"the reduced system of {unknowns} unknowns would take "
                                         f"{size} bytes")


class TestGramNullspace:
    def test_cut_crossing_decides_as_the_dense_reference(self, monkeypatch):
        # planted full-algebra YES cases perturbed across the cut, and degree-1
        # matpoly YES cases, whose reduced system has sigma_1 below its
        # reference scale, so the cut is rank_rel * scale; the diagonal read
        # declines, so every case reaches the Gram nullspace
        monkeypatch.setattr(solver_mod, "_read_diagonal", _declined)
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
    def test_planted_yes_at_extreme_scales(self, c, monkeypatch):
        # the Gram of the reduced system would underflow (a NO with no
        # solution) or overflow (eigh fails) without its power-of-two rescaling;
        # a pair's Frobenius norm, which squares the entries, would overflow
        # at 1e160 unless the pair is divided by its largest entry first. The
        # diagonal read declines, so the square unitary case reaches the Gram
        monkeypatch.setattr(solver_mod, "_read_diagonal", _declined)
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

    @pytest.mark.parametrize("seed", range(10))
    def test_a_rank_gap_inside_the_check_is_no_exact_no(self, seed):
        # P = (diag(1, 1e-11), X_1) and Q = A P with A = diag(1, 1e9): the
        # first coefficients' ranks differ at rank_rel, but (A, I) passes the
        # check, so the ranks only word a NO and the solve's YES stands
        P, Q, A = _rank_gap_pair(seed)
        assert certificate_residuals("matpoly", (P, Q), A, np.eye(2)) == (0.0, 0.0)
        verdict = decide_invertible_equivalence(P, Q)
        assert verdict.verdict == "YES"
        assert max(certificate_residuals("matpoly", (P, Q), verdict.U, verdict.V)) <= 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_a_failed_check_across_a_rank_gap_stays_inconclusive(self, seed):
        # (Q, P) the other way round: the singular frames' candidate fails the
        # check, though (A^-1, I) passes it, and the ranks that differ do not
        # word that INCONCLUSIVE as the exact NO
        P, Q, A = _rank_gap_pair(seed)
        assert max(certificate_residuals("matpoly", (Q, P), np.linalg.inv(A), np.eye(2))) <= 1e-16
        verdict = decide_invertible_equivalence(Q, P)
        assert (verdict.verdict, verdict.certainty) == ("INCONCLUSIVE", "probabilistic")
        assert verdict.detail.startswith("numerical breakdown: certificate failed verification")

    def test_rejects_shape_mismatch(self, rng):
        P = MatrixPolynomial((ginibre(2, 2, rng),))
        Q = MatrixPolynomial((ginibre(2, 3, rng),))
        with pytest.raises(InputError):
            decide_invertible_equivalence(P, Q, CFG)


def _rank_gap_pair(seed):
    """P = (diag(1, 1e-11), X_1), Q = A P and A = diag(1, 1e9): the first
    coefficients' ranks differ at rank_rel, and (A, I) passes the check."""
    X1 = ginibre(2, 2, np.random.default_rng(seed))
    A = np.diag([1.0, 1e9])
    P = MatrixPolynomial((np.diag([1.0, 1e-11]), X1))
    return P, MatrixPolynomial(tuple(A @ C for C in P.coefficients)), A


def _matpoly_document(P, Q, seed):
    verdict = decide_invertible_equivalence(P, Q, SamplerConfig(seed=seed))
    return dumps_document(verdict_document(verdict, "matpoly", seed, verbose=True))


class TestEigenFrames:
    # the random-NO shapes (d, degree) of the benchmark's matpoly cases, and
    # the rank-profile NO
    @pytest.mark.parametrize("d, degree", [(3, 3), (6, 2), (8, 1), (10, 3)])
    def test_no_documents_match_the_singular_frames_alone(self, d, degree, monkeypatch):
        # the eigen frames claim no NO, and every random NO ends at the trace
        # test before them: with them switched off, every random NO reads the
        # same document, verdict, certainty and detail included
        for seed in range(3):
            rng = np.random.default_rng(seed)
            P, Q = (MatrixPolynomial(tuple(ginibre(d, d, rng) for _ in range(degree + 1)))
                    for _ in "PQ")
            with_eigen = _matpoly_document(P, Q, seed + 1)
            assert json.loads(with_eigen)["verdict"] == "NO"
            with monkeypatch.context() as patch:
                patch.setattr(solver_mod, "_eigen_frames", lambda *args: (None, None))
                assert _matpoly_document(P, Q, seed + 1) == with_eigen

    def test_rank_profile_no_matches_the_singular_frames_alone(self, monkeypatch):
        P = MatrixPolynomial((np.eye(2), np.eye(2)))
        Q = MatrixPolynomial((np.diag([1.0, 0.0]), np.eye(2)))
        with_eigen = _matpoly_document(P, Q, 1)
        monkeypatch.setattr(solver_mod, "_eigen_frames", lambda *args: (None, None))
        assert _matpoly_document(P, Q, 1) == with_eigen
        assert json.loads(with_eigen)["detail"] == "coefficient ranks differ at index 0"

    def test_eigen_yes_reruns_byte_identical(self):
        # acceptance criterion 9 on a YES that the eigen frames answer: one
        # unknown per eigenvalue, and the same document from the same seed
        rng = np.random.default_rng(8)
        A, B = (ginibre(8, 8, rng) + 2 * np.eye(8) for _ in "AB")
        P = MatrixPolynomial(tuple(ginibre(8, 8, rng) for _ in range(3)))
        Q = MatrixPolynomial(tuple(A @ C @ np.linalg.inv(B) for C in P.coefficients))
        first = _matpoly_document(P, Q, 5)
        doc = json.loads(first)
        assert doc["verdict"] == "YES" and doc["residual"] <= 1e-10
        assert doc["aux"]["pivot_unknowns"] == 8 and doc["aux"]["pivot_eigen_margin"] > 1.0
        assert _matpoly_document(P, Q, 5) == first


def _trace_returns(monkeypatch):
    """Records what every _trace_no call returns."""
    returned = []
    real = solver_mod._trace_no

    def spy(*args):
        returned.append(real(*args))
        return returned[-1]

    monkeypatch.setattr(solver_mod, "_trace_no", spy)
    return returned


def _pencil_to_skip(case, rng):
    """(P, Q) of a pencil whose traces claim nothing, and the _trace_no returns
    expected: rectangular, a singular pivot (every last column zero) and one
    pair are not regular pencils; Q_i = a_i Y_0 with sigma_min(Y_0) = 1e-9
    keeps full numerical rank but makes f >= sqrt(3) 1e-8 / 1e-9; pairs of
    entries near 1e-10 make f >= 1, and there (I, I) passes the certificate
    check's absolute floor; a planted pencil with noise has traces apart by
    more than d times the cut but within their bound. How far the noise moves
    the traces follows the pivot, so the noise is scaled for CFG's pivot to
    put the largest gap at 2 d times the cut, a few times below the bound's
    rounding margin d times the cut times max(1, ||(M_j, N_j)||_F)."""
    if case == "rectangular":
        return [[ginibre(4, 5, rng) for _ in range(3)] for _ in "PQ"], []
    if case == "singular pivot":
        sides = [[ginibre(4, 4, rng) for _ in range(3)] for _ in "PQ"]
        for C in sides[0] + sides[1]:
            C[:, -1] = 0.0
        return sides, []
    if case == "one pair":
        return [[ginibre(4, 4, rng)] for _ in "PQ"], []
    if case == "f >= 1":
        Y0 = haar(4, rng) @ np.diag([1.0, 1.0, 1.0, 1e-9]) @ haar(4, rng)
        Qs = [a * Y0 for a in ginibre(1, 3, rng)[0]]
        return [[ginibre(4, 4, rng) for _ in range(3)], Qs], [None]
    if case == "below the floor":
        return [[1e-10 * ginibre(4, 4, rng) for _ in range(2)] for _ in "PQ"], [None]
    rng = np.random.default_rng(3)
    A, B = (ginibre(3, 3, rng) + 2 * np.eye(3) for _ in "AB")
    Xs = [ginibre(3, 3, rng) for _ in range(2)]
    Ys, Es = [A @ X @ np.linalg.inv(B) for X in Xs], [ginibre(3, 3, rng) for _ in Xs]
    Z, frames, _ = solver_mod._pivot_prepared(
        np.stack([Xs, [Y + 1e-3 * E for Y, E in zip(Ys, Es)]], axis=1), CFG, Tolerances())
    Xc, Yc = (W * st @ R.conj().T for W, st, R in zip(frames.W, (frames.s, frames.t), frames.R))
    gap = max(abs(np.trace(np.linalg.solve(Xc, X) - np.linalg.solve(Yc, Y))) for X, Y in Z)
    eta = 1e-3 * 2 * 3 * solver_mod._pivot_cut(Tolerances()) / gap  # the gap is about linear in it
    return [Xs, [Y + eta * E for Y, E in zip(Ys, Es)]], [None]


class TestTraceNo:
    @pytest.mark.parametrize("d, degree", [(3, 3), (6, 2), (8, 1), (10, 3)])
    def test_random_nos_end_at_the_trace_test(self, d, degree, monkeypatch):
        # the benchmark's random-NO shapes: no reduced system is built, and
        # the NO names the pair whose traces differ most past their bound
        seen = _pivot_systems_seen(monkeypatch)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            P, Q = (MatrixPolynomial(tuple(ginibre(d, d, rng) for _ in range(degree + 1)))
                    for _ in "PQ")
            verdict = decide_invertible_equivalence(P, Q, SamplerConfig(seed=seed + 1))
            aux = verdict.aux
            assert (verdict.verdict, verdict.certainty) == ("NO", "exact")
            assert verdict.detail == ("traces of X_c^-1 X_j and Y_c^-1 Y_j differ at spanned "
                                      f"pair index {aux['trace_pair']}")
            assert 0 <= aux["trace_pair"] <= degree and verdict.solution_dimension is None
            assert aux["trace_gap_ratio"] > 1.0 > aux["trace_f"] > 0.0
        assert seen == []

    @pytest.mark.parametrize("case", ["rectangular", "singular pivot", "one pair", "f >= 1",
                                      "below the floor", "within the bound"])
    def test_pencils_the_test_must_skip(self, case, monkeypatch, rng):
        sides, expected = _pencil_to_skip(case, rng)
        P, Q = (MatrixPolynomial(tuple(side)) for side in sides)
        returned = _trace_returns(monkeypatch)
        verdict = decide_invertible_equivalence(P, Q, CFG)
        assert returned == expected and "trace_pair" not in verdict.aux
        if case == "below the floor":
            I = np.eye(4)
            assert certificate_residuals("matpoly", (P, Q), I, I)[0] <= Tolerances().residual_abs
        if case == "one pair":
            assert verdict.verdict == "YES"
        if case == "within the bound":
            # past the first test, which every gap below d times the cut ends
            Z, frames, _ = solver_mod._pivot_prepared(np.stack(sides, axis=1), CFG, Tolerances())
            Xc, Yc = (W * st @ R.conj().T
                      for W, st, R in zip(frames.W, (frames.s, frames.t), frames.R))
            gaps = [abs(np.trace(np.linalg.solve(Xc, X) - np.linalg.solve(Yc, Y))) for X, Y in Z]
            assert max(gaps) > 3 * solver_mod._pivot_cut(Tolerances())


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

    @pytest.mark.parametrize("name", ["U", "V"])
    def test_non_finite_matpoly_certificate_raises(self, name, rng):
        # a library caller's certificate is checked for finite entries before
        # its ranks are taken
        payload, A, B = _planted("matpoly", rng)
        (A if name == "U" else B)[0, 0] = np.nan
        with pytest.raises(InputError, match=f"certificate {name} contains non-finite entries"):
            certificate_residuals("matpoly", payload, A, B)

    def test_non_finite_certificate_fails_the_check(self, rng):
        # the residual of a certificate with a nan entry is inf, never nan
        payload, U, V = _planted("pure-sets", rng)
        U[0, 0] = np.nan
        assert certificate_residuals("pure-sets", payload, U, V)[0] == np.inf
        verdict = check_certificate(UepVerdict(verdict="YES", certainty="probabilistic", U=U, V=V),
                                    "pure-sets", payload)
        assert verdict.verdict == "INCONCLUSIVE" and verdict.residual == np.inf

    @pytest.mark.parametrize("mode", MODES)
    def test_wrong_shapes_raise(self, mode, rng):
        payload, U, V = _planted(mode, rng)
        with pytest.raises(InputError):
            certificate_residuals(mode, payload, np.eye(len(U) + 1), V)
        with pytest.raises(InputError):
            certificate_residuals(mode, payload, U, np.eye(2) if V is None else None)

    @pytest.mark.parametrize("mode", ["matpoly", "pure-sets", "unilocal-mixed"])
    def test_unequal_lists_raise(self, mode, rng):
        # zip would drop the longer list's tail and pass I, I on the pairs left
        I = np.eye(2)
        if mode == "matpoly":
            payload = (MatrixPolynomial((I, np.diag([1.0, 2.0]))), MatrixPolynomial((I,)))
        elif mode == "pure-sets":
            ket00, ket01 = (pure_state(2, 2, e) for e in np.eye(4)[:2])
            payload = ([ket00, ket01], [ket00])
        else:
            rho = random_density(2, 2, rng)
            payload = ([rho, random_density(2, 2, rng)], [rho])
        with pytest.raises(InputError, match=f"^{mode} certificate: 2 inputs but 1 outputs$"):
            certificate_residuals(mode, payload, I, None if mode == "unilocal-mixed" else I)

    def test_misspelt_mode_raises_before_the_payload_is_read(self):
        # a mode outside MODES once fell into the state branch and raised TypeError
        inst, _ = random_yes_instance(2, 2, 1, seed=3)
        I = np.eye(2)
        message = (r"^unknown mode 'matrix-pair', expected one of \('matrix-pairs', 'matpoly', "
                   r"'pure-sets', 'unilocal-mixed', 'generic-mixed'\)$")
        with pytest.raises(InputError, match=message):
            certificate_residuals("matrix-pair", inst, I, I)
        with pytest.raises(InputError, match=message):
            check_certificate(UepVerdict(verdict="YES", certainty="probabilistic", U=I, V=I),
                              "matrix-pair", inst)

    @pytest.mark.parametrize("case, checked_as", [
        ("full", "matrix-pairs"), ("factor", "matrix-pairs"), ("matpoly", "matpoly"),
        ("pure-sets", "pure-sets"), ("unilocal-mixed", "unilocal-mixed"),
        ("generic-mixed", "generic-mixed")])
    def test_a_yes_is_checked_once(self, case, checked_as, monkeypatch, rng):
        # every decide path ends in one certificate check, in its own mode:
        # the state reductions check their states or density operators. The
        # sampler accepts a unitary candidate by taking its polar factors, so
        # each unitary route calls extract_unitaries once per trial; matpoly's
        # certificate is the sampled A, B, accepted on their singular values.
        # The diagonal read declines, so every route samples
        monkeypatch.setattr(solver_mod, "_read_diagonal", _declined)
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
        assert verdict.trials_used >= 1
        assert len(extracted) == (0 if case == "matpoly" else verdict.trials_used)

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
