import warnings
from dataclasses import fields

import numpy as np
import pytest

from uniequiv import (
    InputError,
    MatrixPolynomial,
    Tolerances,
    hermitian_eigendecomposition,
    nullspace_basis,
    singular_values,
)
from uniequiv.linalg import _worst_relative, numerical_rank, same_spectrum

from conftest import ginibre, haar
from exact_reference import (
    NotPositiveDefiniteError,
    dense_nullspace_basis,
    exact_nullspace_dimension,
    inverse_sqrt_psd,
    vandermonde_inverse_sqrt_coeffs,
)


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.rank_rel == 1e-10
        assert tol.residual_abs == 1e-8
        assert [f.name for f in fields(tol)] == ["rank_rel", "residual_abs"]

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1e-3, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InputError):
            Tolerances(rank_rel=bad)


class TestNullspace:
    def test_rank_one_diagonal(self):
        ns = nullspace_basis([[1.0, 0.0], [0.0, 0.0]])
        assert ns.shape == (2, 1)
        assert abs(abs(ns[1, 0]) - 1.0) < 1e-12
        assert abs(ns[0, 0]) < 1e-12

    def test_zero_matrix(self):
        ns = nullspace_basis(np.zeros((2, 3)))
        assert ns.shape == (3, 3)
        assert np.allclose(ns.T @ ns, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matrix_without_rows(self, dtype):
        # every direction is null, as for the all-zero matrix; the rescale
        # branch takes the largest entry of no entries as 0
        ns = nullspace_basis(np.zeros((0, 3), dtype=dtype))
        assert ns.dtype == dtype
        assert np.array_equal(ns, np.eye(3))

    def test_trivial_nullspace(self):
        assert nullspace_basis(np.eye(4)).shape == (4, 0)

    def test_integer_matrix_against_exact_oracle(self, rng):
        for _ in range(20):
            M = rng.integers(-3, 4, size=(4, 7)).astype(float)
            ns = nullspace_basis(M)
            assert ns.shape[1] == exact_nullspace_dimension(M)

    def test_rank_nullity_and_orthonormality(self, rng):
        tol = Tolerances()
        for _ in range(30):
            rows, cols = rng.integers(1, 7, size=2)
            M = rng.integers(-2, 3, size=(rows, cols)).astype(float)
            ns = nullspace_basis(M, tol)
            nullity = exact_nullspace_dimension(M)
            assert ns.shape[1] == nullity
            if ns.shape[1]:
                assert np.allclose(ns.T @ ns, np.eye(ns.shape[1]), atol=1e-12)
                smax = np.linalg.svd(M, compute_uv=False)[0] if np.any(M) else 0.0
                for j in range(ns.shape[1]):
                    assert np.linalg.norm(M @ ns[:, j]) <= 10 * tol.rank_rel * max(smax, 1e-300) + 1e-30

    def test_complex_and_wide_against_exact_oracle(self, rng):
        def gaussian_ints(rows, cols):
            return rng.integers(-2, 3, size=(rows, cols)) + 1j * rng.integers(-2, 3, size=(rows, cols))

        for _ in range(20):
            rows, cols, inner = rng.integers(1, 5), rng.integers(5, 9), rng.integers(1, 4)
            # a wide matrix and a tall one of rank at most inner
            for M in (gaussian_ints(rows, cols), gaussian_ints(cols, inner) @ gaussian_ints(inner, cols)):
                ns = nullspace_basis(M)
                assert ns.shape == (cols, exact_nullspace_dimension(M))
                assert np.allclose(ns.conj().T @ ns, np.eye(ns.shape[1]), atol=1e-12)
                assert np.linalg.norm(M @ ns) <= 1e-10 * max(1.0, np.linalg.norm(M))

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            nullspace_basis([[np.nan, 0.0]])

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_tall_qr_route_matches_a_direct_thin_svd(self, rng, field):
        # sigma_1 = 1, so the rank cut is rank_rel: two values sit 10x above
        # it, two 10x below, and four are 0, so the planted nullity is 6
        tol = Tolerances()
        cut = tol.rank_rel
        s = np.array([1.0, 0.6, 0.2, 0.05, 10 * cut, 10 * cut, cut / 10, cut / 10, 0, 0, 0, 0])
        rows, n = 40, len(s)
        draw = ginibre if field == "complex" else (lambda a, b, r: r.standard_normal((a, b)))
        U, V = np.linalg.qr(draw(rows, n, rng))[0], np.linalg.qr(draw(n, n, rng))[0]
        M = (U * s) @ V.conj().T
        ns = nullspace_basis(M, tol)
        _, sv, vh = np.linalg.svd(M, full_matrices=False)
        ref = vh[np.count_nonzero(sv > cut * sv[0]):].conj().T
        assert ns.shape == ref.shape == (n, 6)
        # the 1e-9 gap to the kept values leaves each basis about eps / 1e-9 off
        assert np.linalg.norm(ns - ref @ (ref.conj().T @ ns), 2) <= 1e-5

    def test_reference_scale_drops_rounding_noise(self, rng):
        # a matrix whose constraints were all taken out before it was formed
        noise = 1e-16 * ginibre(30, 8, rng)
        assert nullspace_basis(noise, Tolerances(), scale=1.0).shape == (8, 8)
        assert nullspace_basis(noise, Tolerances()).shape == (8, 0)
        assert numerical_rank(np.array([1e-15, 1e-16]), Tolerances(), scale=1.0) == 0

    def test_empty_spectrum_has_rank_zero(self):
        assert numerical_rank(np.array([])) == 0

    @pytest.mark.parametrize("c", [5e-324, 1e-300, 1e-160, 1e160, 1e300])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_gram_rescales_matrices_it_would_over_or_underflow(self, rng, c, field):
        # G = M^dag M squares M's range: at 1e160 it overflows, and at 1e-160
        # it falls among the subnormal numbers, where its eigenvectors no
        # longer hold the nullspace; a subnormal diagonal has full rank
        draw = ginibre if field == "complex" else (lambda a, b, r: r.standard_normal((a, b)))
        subnormal = c < 1e-308
        M = np.eye(30, 8) * c if subnormal else c * (draw(30, 5, rng) @ draw(5, 8, rng))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ns = nullspace_basis(M)
        assert ns.shape == dense_nullspace_basis(M).shape == (8, 0 if subnormal else 3)
        assert np.linalg.norm((M / c) @ ns) <= 1e-12 * np.linalg.norm(M / c)
        assert nullspace_basis(M, Tolerances(), scale=1e3 * c).shape[1] == ns.shape[1]


class TestHermitianEig:
    def test_identity(self):
        w, Q = hermitian_eigendecomposition(np.eye(3))
        assert np.allclose(w, [1, 1, 1])
        assert np.allclose(Q.conj().T @ Q, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_descending(self):
        w, Q = hermitian_eigendecomposition(np.diag([2.0, 5.0]))
        assert np.allclose(w, [5.0, 2.0])
        assert abs(abs(Q[1, 0]) - 1.0) < 1e-12
        assert abs(abs(Q[0, 1]) - 1.0) < 1e-12

    def test_reconstruction(self, rng):
        G = ginibre(4, 4, rng)
        H = G + G.conj().T
        w, Q = hermitian_eigendecomposition(H)
        assert np.linalg.norm((Q * w) @ Q.conj().T - H) <= 1e-10 * np.linalg.norm(H)
        assert np.all(np.diff(w) <= 0)

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            hermitian_eigendecomposition(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            hermitian_eigendecomposition([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("b", [1e160, 1e200])
    def test_rejects_a_huge_antihermitian_part(self, b):
        with pytest.raises(InputError, match="not Hermitian"):
            hermitian_eigendecomposition([[1.0, b], [-b, 1.0]])


class TestInverseSqrt:
    def test_identity(self):
        assert np.allclose(inverse_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        S = inverse_sqrt_psd(np.diag([4.0, 9.0]))
        assert np.allclose(S, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_defining_identity(self, rng):
        for _ in range(10):
            A = ginibre(4, 4, rng) + 2 * np.eye(4)
            H = A.conj().T @ A
            S = inverse_sqrt_psd(H)
            assert np.linalg.norm(S - S.conj().T) < 1e-12 * np.linalg.norm(S)
            assert np.linalg.norm(S @ H @ S - np.eye(4)) <= 1e-8

    def test_commutes_with_input(self, rng):
        A = ginibre(3, 3, rng) + 2 * np.eye(3)
        H = A.conj().T @ A
        S = inverse_sqrt_psd(H)
        assert np.linalg.norm(S @ H - H @ S) <= 1e-8 * np.linalg.norm(H)

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            inverse_sqrt_psd(np.diag([1.0, 0.0]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            inverse_sqrt_psd(np.diag([1.0, -1.0]))


class TestVandermonde:
    def test_single_node(self):
        assert np.allclose(vandermonde_inverse_sqrt_coeffs([4.0]), [0.5])

    def test_two_nodes(self):
        c = vandermonde_inverse_sqrt_coeffs([1.0, 4.0])
        assert np.allclose(c, [7.0 / 6.0, -1.0 / 6.0], atol=1e-12)

    def test_interpolates(self, rng):
        x = np.sort(rng.uniform(0.2, 5.0, size=5))
        c = vandermonde_inverse_sqrt_coeffs(x)
        vals = np.polyval(c[::-1], x)
        assert np.allclose(vals, 1.0 / np.sqrt(x), atol=1e-10)

    def test_matches_spectral_path(self, rng):
        for _ in range(5):
            A = (haar(3, rng) * rng.uniform(0.5, 2.0, 3)) @ haar(3, rng).conj().T
            B = (haar(2, rng) * rng.uniform(0.5, 2.0, 2)) @ haar(2, rng).conj().T
            HA, HB = A.conj().T @ A, B.conj().T @ B
            eigs = np.sort(np.concatenate([np.linalg.eigvalsh(HA), np.linalg.eigvalsh(HB)]))
            c = vandermonde_inverse_sqrt_coeffs(eigs)
            for H, d in ((HA, 3), (HB, 2)):
                P = np.zeros((d, d), dtype=complex)
                for coef in c[::-1]:
                    P = P @ H + coef * np.eye(d)
                assert np.linalg.norm(P - inverse_sqrt_psd(H)) <= 1e-6

    def test_rejects_duplicates_and_nonpositive(self):
        with pytest.raises(InputError):
            vandermonde_inverse_sqrt_coeffs([1.0, 1.0])
        with pytest.raises(InputError):
            vandermonde_inverse_sqrt_coeffs([1.0, -2.0])


class TestMatrixPolynomial:
    def test_rejects_mixed_shapes(self):
        with pytest.raises(InputError):
            MatrixPolynomial((np.eye(2), np.eye(3)))


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(2)), [1.0, 1.0])

    def test_diagonal(self):
        assert np.allclose(singular_values(np.diag([3.0, 0.0])), [3.0, 0.0])

    def test_unitary_invariance(self, rng):
        M = ginibre(3, 4, rng)
        U, V = haar(3, rng), haar(4, rng)
        assert np.max(np.abs(singular_values(M) - singular_values(U @ M @ V.conj().T))) <= 1e-10

    def test_same_spectrum_scales_with_sigma_1(self):
        tol = Tolerances()
        assert same_spectrum(np.array([1.0, 0.5]), np.array([1.0, 0.5 + 5e-9]), tol)
        assert not same_spectrum(np.array([1.0, 0.5]), np.array([1.0, 0.5 + 2e-8]), tol)
        assert same_spectrum(np.array([10.0, 0.5]), np.array([10.0, 0.5 + 5e-8]), tol)
        assert not same_spectrum(np.array([1.0]), np.array([1.0, 0.0]), tol)
        assert same_spectrum(np.array([]), np.array([]), tol)


class TestDeterminant:
    def test_singularity_predicates_agree(self, rng):
        # the package's one rank rule against exact elimination
        tol = Tolerances()
        for _ in range(20):
            M = rng.integers(-2, 3, size=(4, 4)).astype(float)
            exact_singular = exact_nullspace_dimension(M) > 0
            assert (numerical_rank(singular_values(M), tol) < 4) == exact_singular


class TestWorstRelative:
    def test_any_layout_gives_the_contiguous_value(self, rng):
        # a swapaxes view has no contiguous last axis to view as floats
        D, Y = (np.stack([ginibre(3, 5, rng) for _ in range(2)]) for _ in range(2))
        D[1] *= 1e3
        Ds, Ys = D.swapaxes(1, 2), Y.swapaxes(1, 2)
        expected = _worst_relative(np.ascontiguousarray(Ds), np.ascontiguousarray(Ys))
        assert _worst_relative(Ds, Ys) == _worst_relative(Ds, Ys.copy()) == expected
        direct = max(np.linalg.norm(d) / max(1.0, np.linalg.norm(y)) for d, y in zip(Ds, Ys))
        assert np.isclose(expected, direct, rtol=1e-14, atol=0.0)
