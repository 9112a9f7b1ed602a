from fractions import Fraction

import numpy as np
import pytest

from uniequiv import (
    InputError,
    SamplerConfig,
    decide_uep,
    factor_algebra,
    full_algebra,
    haar_unitary_in_algebra,
    matrix_algebra,
    random_no_instance,
    random_yes_instance,
    singular_value_prefilter,
)
from uniequiv.algebra import span_residual
from uniequiv.solver import build_linear_system, solve_solution_space

from exact_reference import GaussianRational, exact_nullspace_dimension


class TestGaussianRational:
    def test_field_operations(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3))
        b = GaussianRational(Fraction(2), Fraction(-1, 3))
        prod = a * b
        assert prod.re == Fraction(1, 2) * 2 - Fraction(3) * Fraction(-1, 3)
        assert prod.im == Fraction(1, 2) * Fraction(-1, 3) + Fraction(3) * 2
        quot = (a * b) / b
        assert quot == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(Fraction(1)) / GaussianRational(Fraction(0))

    def test_conjugate(self):
        z = GaussianRational(Fraction(1), Fraction(2))
        assert z.conjugate().im == Fraction(-2)


class TestExactNullspace:
    def test_identity(self):
        assert exact_nullspace_dimension(np.eye(3)) == 0

    def test_zero(self):
        assert exact_nullspace_dimension(np.zeros((2, 5))) == 5

    def test_complex_entries(self):
        M = [[GaussianRational(Fraction(1), Fraction(1)), GaussianRational(Fraction(0), Fraction(2))]]
        assert exact_nullspace_dimension(M) == 1

    def test_matches_floating_nullspace_on_chi_prime(self):
        # exact elimination agrees with SVD nullity on integer-built systems
        rng = np.random.default_rng(7)
        for _ in range(10):
            d1, d2 = rng.integers(1, 4, size=2)
            m = int(rng.integers(0, 3))
            pairs = tuple(
                (rng.integers(-2, 3, size=(d1, d2)).astype(complex),
                 rng.integers(-2, 3, size=(d1, d2)).astype(complex))
                for _ in range(m + 1)
            )
            from uniequiv.solver import UepInstance
            inst = UepInstance(d1=int(d1), d2=int(d2), pairs=pairs,
                               G1=full_algebra(int(d1)), G2=full_algebra(int(d2)))
            system = build_linear_system(inst)
            space = solve_solution_space(system)
            assert space.dimension == exact_nullspace_dimension(system.matrix)


class TestHaarUnitary:
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_full_algebra_unitarity(self, d):
        U = haar_unitary_in_algebra(full_algebra(d), seed=d)
        assert np.linalg.norm(U.conj().T @ U - np.eye(d)) <= 1e-12
        assert span_residual(full_algebra(d), U) <= 1e-12

    def test_factor_algebra_structure(self):
        G = factor_algebra(2, 3)
        U = haar_unitary_in_algebra(G, seed=5)
        assert np.linalg.norm(U.conj().T @ U - np.eye(6)) <= 1e-12
        assert span_residual(G, U) <= 1e-12

    def test_scalar_factor_is_phase(self):
        U = haar_unitary_in_algebra(factor_algebra(1, 3), seed=9)
        phase = U[0, 0]
        assert abs(abs(phase) - 1.0) <= 1e-12
        assert np.allclose(U, phase * np.eye(3), atol=1e-12)

    def test_first_moment_vanishes(self):
        # Haar first moment is zero: empirical mean within 3 standard errors
        rng = np.random.default_rng(123)
        G = full_algebra(2)
        draws = np.array([haar_unitary_in_algebra(G, rng)[0, 0] for _ in range(4000)])
        se = np.sqrt(0.25 / draws.size)  # Re/Im variance of one entry is 1/(2n)
        assert abs(draws.real.mean()) <= 3 * se
        assert abs(draws.imag.mean()) <= 3 * se

    def test_custom_span_rejected(self):
        G = matrix_algebra([np.eye(2)])
        with pytest.raises(InputError):
            haar_unitary_in_algebra(G, seed=1)


class TestGenerators:
    def test_planted_witness_residual(self):
        inst, (U0, V0) = random_yes_instance(3, 4, 2, seed=11)
        for X, Y in inst.pairs:
            assert np.linalg.norm(U0 @ X @ V0.conj().T - Y) <= 1e-12 * max(1.0, np.linalg.norm(Y))

    def test_scalar_case_is_phase_pair(self):
        inst, (U0, V0) = random_yes_instance(1, 1, 0, seed=2)
        assert abs(abs(U0[0, 0]) - 1.0) <= 1e-12
        assert abs(abs(V0[0, 0]) - 1.0) <= 1e-12

    def test_factor_kind_witness_in_algebra(self):
        inst, (U0, V0) = random_yes_instance(4, 2, 1, g1_kind=("factor", 2, 2), seed=13)
        assert span_residual(inst.G1, U0) <= 1e-12

    def test_reproducibility(self):
        a, _ = random_yes_instance(2, 2, 1, seed=42)
        b, _ = random_yes_instance(2, 2, 1, seed=42)
        for (Xa, Ya), (Xb, Yb) in zip(a.pairs, b.pairs):
            assert np.array_equal(Xa, Xb) and np.array_equal(Ya, Yb)

    @pytest.mark.parametrize("seed", range(5))
    def test_yes_instances_decide_yes(self, seed):
        inst, _ = random_yes_instance(2, 3, 1, seed=seed)
        assert decide_uep(inst, SamplerConfig(seed=seed)).verdict == "YES"

    @pytest.mark.parametrize("seed", range(5))
    def test_no_instances_fail_prefilter(self, seed):
        inst = random_no_instance(2, 2, 0, seed=seed)
        ok, idx = singular_value_prefilter(inst.pairs)
        assert not ok and idx == 0
        verdict = decide_uep(inst, SamplerConfig(seed=seed))
        assert verdict.verdict == "NO" and verdict.certainty == "exact"

    def test_no_instance_top_singular_value_doubled(self):
        seed = 3
        yes, _ = random_yes_instance(2, 2, 0, seed=seed)
        no = random_no_instance(2, 2, 0, seed=seed)
        s_yes = np.linalg.svd(yes.pairs[0][1], compute_uv=False)
        s_no = np.linalg.svd(no.pairs[0][1], compute_uv=False)
        assert s_no[0] == pytest.approx(2.0 * s_yes[0], rel=1e-10)
