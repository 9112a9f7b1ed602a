import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from uniequiv import (
    InputError,
    Tolerances,
    factor_algebra,
    full_algebra,
    matrix_algebra,
    verify_algebra,
)
from uniequiv.algebra import AlgebraReport, MatrixAlgebra, matrix_units, span_residual

from conftest import algebras, ginibre, haar
from exact_reference import membership_constraints


def reference_verify(G, tol=Tolerances()):
    """Reference for verify_algebra: one projection per identity, product and adjoint."""
    def in_span(M):
        return span_residual(G, M) <= tol.residual_abs * max(1.0, np.linalg.norm(M))

    return AlgebraReport(
        unital=in_span(np.eye(G.dim)),
        multiplicatively_closed=all(in_span(Ej @ Ek) for Ej in G.basis for Ek in G.basis),
        star_closed=all(in_span(Ej.conj().T) for Ej in G.basis),
    )


class TestFullAlgebra:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_basis_count_and_closure(self, d):
        G = full_algebra(d)
        assert G.size == d * d
        report = verify_algebra(G)
        assert report.unital and report.multiplicatively_closed and report.star_closed

    @pytest.mark.parametrize("a, b", [(d, 1) for d in range(1, 7)]
                             + [(1, 3), (2, 2), (2, 3), (3, 2)])
    def test_matches_the_span_of_its_units(self, a, b, rng):
        # the shape alone stands for the span of the E_jk (x) I_b
        G = full_algebra(a) if b == 1 else factor_algebra(a, b)
        units = tuple(np.kron(matrix_units(a), np.eye(b)))
        if b == 1:  # matrix_algebra returns the shape (a, 1) itself
            ref = MatrixAlgebra(dim=a, kind="span", span_basis=units,
                                span_q=np.eye(a * a, dtype=complex))
        else:
            ref = matrix_algebra(units)
        assert G.factor_shape == (a, b) and G.size == ref.size == a * a
        assert all(np.array_equal(E, F) for E, F in zip(G.basis, ref.basis))
        assert verify_algebra(G) == verify_algebra(ref) == AlgebraReport(True, True, True)
        member = np.kron(ginibre(a, a, rng), np.eye(b))
        for M in (member, ginibre(a * b, a * b, rng)):
            assert span_residual(G, M) == pytest.approx(span_residual(ref, M), abs=1e-12)
        assert span_residual(G, member) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_a_basis_of_d2_independent_matrices_is_the_full_shape(self, d, rng):
        # d^2 independent matrices span all of C^(d x d), however written
        for basis in (matrix_units(d), [ginibre(d, d, rng) for _ in range(d * d)]):
            G = matrix_algebra(basis)
            assert (G.kind, G.factor_shape, G.size) == ("full", (d, 1), d * d)
            assert G.span_q is None and G.span_basis is None
        if d > 1:
            G = matrix_algebra(matrix_units(d)[:-1])
            assert (G.kind, G.factor_shape, G.size) == ("span", None, d * d - 1)
            assert G.span_q.shape == (d * d, d * d - 1)

    def test_shapes_store_no_arrays(self):
        # full_algebra(32) held a d^2 x d^2 identity, 16.8 MB, as span_q
        tracemalloc.start()
        try:
            algebras = [full_algebra(32), factor_algebra(8, 12)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert all(G.span_q is None and G.span_basis is None for G in algebras)

    def test_d1_basis(self):
        G = full_algebra(1)
        assert np.allclose(G.basis[0], [[1.0]])

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(InputError):
            full_algebra(0)


class TestFactorAlgebra:
    def test_scalar_factor(self):
        G = factor_algebra(1, 3)
        assert G.size == 1
        assert np.allclose(G.basis[0], np.eye(3))

    def test_trivial_second_factor_is_full(self):
        G = factor_algebra(2, 1)
        F = full_algebra(2)
        for E in F.basis:
            assert span_residual(G, E) < 1e-12

    def test_two_by_two(self):
        G = factor_algebra(2, 2)
        assert G.size == 4
        assert all(E.shape == (4, 4) for E in G.basis)
        report = verify_algebra(G)
        assert report.unital and report.multiplicatively_closed and report.star_closed

    def test_factor_2_3(self):
        report = verify_algebra(factor_algebra(2, 3))
        assert report.unital and report.multiplicatively_closed and report.star_closed

    def test_shape_must_tile_its_dimension(self):
        report = verify_algebra(MatrixAlgebra(dim=5, kind="factor", factor_shape=(2, 2)))
        assert report == AlgebraReport(False, False, False)


class TestVerify:
    def test_non_unital_span(self):
        E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        G = matrix_algebra([E12])
        report = verify_algebra(G)
        assert not report.unital
        assert not report.star_closed

    def test_upper_triangular_span(self):
        # unital and multiplicatively closed but not star-closed
        basis = [np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, 0.0])]
        report = verify_algebra(matrix_algebra(basis))
        assert report.unital
        assert report.multiplicatively_closed
        assert not report.star_closed

    def test_rejects_dependent_basis(self, rng):
        with pytest.raises(InputError):
            matrix_algebra([np.eye(2), 2.0 * np.eye(2)])
        # five matrices in the four-dimensional C^(2 x 2)
        with pytest.raises(InputError):
            matrix_algebra([ginibre(2, 2, rng) for _ in range(5)])

    def test_report_is_judged_at_fixed_bounds(self):
        # the adjoint of the last element leaves the span by 1e-5, outside the
        # default residual_abs 1e-8, or by 1e-10, inside it; no call takes a
        # tolerance, so decide and verify judge an algebra alike at every setting
        e00, e11 = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])
        e01 = np.outer(np.eye(3)[0], np.eye(3)[1])
        for nudge, star_closed in ((1e-5, False), (1e-10, True)):
            G = matrix_algebra([np.eye(3), e11, e00 + nudge * e01])
            assert verify_algebra(G).star_closed is star_closed
        with pytest.raises(TypeError):
            verify_algebra(G, Tolerances(residual_abs=1e-3))

    @settings(max_examples=25, deadline=None)
    @given(algebras())
    def test_matches_the_per_product_reference(self, G):
        assert verify_algebra(G) == reference_verify(G)


class TestMembership:
    def test_full_algebra_holds_everything(self, rng):
        # the full shape (d, 1) spans everything: its distance is exactly 0.0,
        # while input, its shape too, is still checked
        G = full_algebra(3)
        assert span_residual(G, ginibre(3, 3, rng)) == 0.0
        with pytest.raises(InputError):
            span_residual(G, np.full((3, 3), np.nan))
        with pytest.raises(InputError):
            span_residual(factor_algebra(1, 3), np.full((3, 3), np.inf))
        for algebra, shape in ((G, (4, 4)), (G, (1, 9)), (factor_algebra(2, 2), (2, 8))):
            with pytest.raises(InputError, match="does not act on dimension"):
                span_residual(algebra, np.ones(shape))

    def test_custom_span_projection_oracle(self, rng):
        # the membership rows of the reference system match span_residual
        basis = [np.eye(3), ginibre(3, 3, rng)]
        G = matrix_algebra(basis)
        C = membership_constraints(G)
        member = 0.8 * basis[0] + (1.0 - 2.0j) * basis[1]
        assert np.linalg.norm(C @ member.ravel()) < 1e-10
        outsider = ginibre(3, 3, rng)
        # residual of the constraint rows equals the projection residual
        assert np.linalg.norm(C @ outsider.ravel()) == pytest.approx(
            span_residual(G, outsider), abs=1e-10
        )
        assert span_residual(G, outsider) > 1e-3
