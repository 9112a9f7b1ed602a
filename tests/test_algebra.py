import numpy as np
import pytest

from uniequiv import InputError, factor_algebra, full_algebra, matrix_algebra, membership_constraints, verify_algebra
from uniequiv.algebra import project_onto_span, span_residual

from conftest import ginibre


class TestFullAlgebra:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_basis_count_and_closure(self, d):
        G = full_algebra(d)
        assert G.size == d * d
        report = verify_algebra(G)
        assert report.unital and report.multiplicatively_closed and report.star_closed

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

    def test_rejects_dependent_basis(self):
        with pytest.raises(InputError):
            matrix_algebra([np.eye(2), 2.0 * np.eye(2)])


class TestMembership:
    def test_full_algebra_has_no_constraints(self):
        C = membership_constraints(full_algebra(3))
        assert C.shape == (0, 9)

    def test_scalar_span_constraints(self, rng):
        G = factor_algebra(1, 2)
        C = membership_constraints(G)
        member = (1.3 - 0.7j) * np.eye(2)
        non_member = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
        assert np.linalg.norm(C @ member.ravel()) < 1e-12
        assert np.linalg.norm(C @ non_member.ravel()) > 1e-3

    def test_custom_span_projection_oracle(self, rng):
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

    def test_projection_idempotent(self, rng):
        G = factor_algebra(2, 2)
        member = sum(c * E for c, E in zip(rng.standard_normal(4) + 1j * rng.standard_normal(4), G.basis))
        P = project_onto_span(G, member)
        assert np.linalg.norm(P - member) < 1e-10
        assert np.linalg.norm(project_onto_span(G, P) - P) < 1e-10
