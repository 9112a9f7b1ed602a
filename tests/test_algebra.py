import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uniequiv import (
    InputError,
    Tolerances,
    factor_algebra,
    full_algebra,
    matrix_algebra,
    membership_constraints,
    verify_algebra,
)
from uniequiv.algebra import AlgebraReport, project_onto_span, span_residual

from conftest import ginibre, haar


def reference_verify(G, tol=Tolerances()):
    """Reference for verify_algebra: one projection per identity, product and adjoint."""
    def in_span(M):
        return span_residual(G, M) <= tol.residual_abs * max(1.0, np.linalg.norm(M))

    return AlgebraReport(
        unital=in_span(np.eye(G.dim)),
        multiplicatively_closed=all(in_span(Ej @ Ek) for Ej in G.basis for Ek in G.basis),
        star_closed=all(in_span(Ej.conj().T) for Ej in G.basis),
    )


@st.composite
def algebras(draw):
    """Spans from five families, the last element perturbed by 0, 1e-10 or
    1e-6 (100x either side of the default residual_abs of 1e-8):
    W (M_n1 (+) M_n2) W^-1 with W unitary or merely invertible, upper-triangular
    algebras in a random unitary frame, I plus random matrices, and a random
    basis of all of C^(d x d)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    family = draw(st.sampled_from(["blocks-unitary", "blocks-invertible", "upper", "identity-plus", "all"]))
    if family.startswith("blocks"):
        n1, n2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        d = n1 + n2
        if family == "blocks-unitary":
            W = haar(d, rng)
        else:
            N = ginibre(d, d, rng)
            W = np.eye(d) + 0.5 * N / np.linalg.norm(N, 2)
        units = [np.outer(np.eye(d)[i], np.eye(d)[j])
                 for lo, hi in ((0, n1), (n1, d)) for i in range(lo, hi) for j in range(lo, hi)]
        basis = [W @ E @ np.linalg.inv(W) for E in units]
    elif family == "upper":
        d = draw(st.integers(1, 4))
        Q = haar(d, rng)
        basis = [Q @ np.outer(np.eye(d)[i], np.eye(d)[j]) @ Q.conj().T
                 for i in range(d) for j in range(i, d)]
    elif family == "identity-plus":
        d = draw(st.integers(2, 4))
        basis = [np.eye(d)] + [ginibre(d, d, rng) for _ in range(draw(st.integers(0, 3)))]
    else:
        d = draw(st.integers(1, 4))
        basis = [ginibre(d, d, rng) for _ in range(d * d)]
    basis[-1] = basis[-1] + draw(st.sampled_from([0.0, 1e-10, 1e-6])) * ginibre(d, d, rng)
    return matrix_algebra(basis, kind="span")


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

    def test_rejects_dependent_basis(self, rng):
        with pytest.raises(InputError):
            matrix_algebra([np.eye(2), 2.0 * np.eye(2)])
        # five matrices in the four-dimensional C^(2 x 2)
        with pytest.raises(InputError):
            matrix_algebra([ginibre(2, 2, rng) for _ in range(5)])

    def test_report_follows_the_tolerance_of_each_call(self):
        # the adjoint of the last element leaves the span by 1e-5: outside at
        # the default residual_abs, inside at 1e-3
        e00, e11 = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])
        e01 = np.outer(np.eye(3)[0], np.eye(3)[1])
        G = matrix_algebra([np.eye(3), e00, e11, e00 + 1e-5 * e01])
        assert not verify_algebra(G).star_closed
        assert verify_algebra(G, Tolerances(residual_abs=1e-3)).star_closed
        assert not verify_algebra(G).star_closed

    @settings(max_examples=25, deadline=None)
    @given(algebras())
    def test_matches_the_per_product_reference(self, G):
        assert verify_algebra(G) == reference_verify(G)


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
