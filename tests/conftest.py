import numpy as np
import pytest
from hypothesis import strategies as st

from uniequiv import density_operator, full_algebra, matrix_algebra
from uniequiv.oracle import haar_unitary_in_algebra


def ginibre(d1, d2, rng):
    return (rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2))) / np.sqrt(2.0)


def haar(n, rng):
    return haar_unitary_in_algebra(full_algebra(n), rng)


def random_density(d1, d2, rng, min_gap=None):
    """Random full-rank density operator; optionally with all eigenvalue gaps
    at least min_gap (relative to the normalized spectrum)."""
    d = d1 * d2
    if min_gap is None:
        G = ginibre(d, d, rng)
        M = G @ G.conj().T + 0.05 * np.eye(d)
    else:
        c = np.arange(d, 0, -1) + rng.uniform(0.0, 0.4, size=d)
        c = np.sort(c)[::-1]
        Q = haar(d, rng)
        M = (Q * c) @ Q.conj().T
    M = (M + M.conj().T) / 2.0
    M = M / np.trace(M).real
    M = (M + M.conj().T) / 2.0
    return density_operator(d1, d2, M)


@st.composite
def algebras(draw):
    """Spans from four families, the last element perturbed by 0, 1e-10 or
    1e-6 (100x either side of the default residual_abs of 1e-8):
    W (M_n1 (+) M_n2) W^-1 with W unitary or merely invertible, upper-triangular
    algebras in a random unitary frame, and I plus fewer than d^2 - 1 random
    matrices. None holds d^2 elements: matrix_algebra stores d^2 independent
    matrices as the full shape (d, 1), not a span."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    family = draw(st.sampled_from(["blocks-unitary", "blocks-invertible", "upper", "identity-plus"]))
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
        d = draw(st.integers(2, 4))
        Q = haar(d, rng)
        basis = [Q @ np.outer(np.eye(d)[i], np.eye(d)[j]) @ Q.conj().T
                 for i in range(d) for j in range(i, d)]
    elif family == "identity-plus":
        d = draw(st.integers(2, 4))
        basis = [np.eye(d)] + [ginibre(d, d, rng) for _ in range(draw(st.integers(0, min(3, d * d - 2))))]
    basis[-1] = basis[-1] + draw(st.sampled_from([0.0, 1e-10, 1e-6])) * ginibre(d, d, rng)
    return matrix_algebra(basis)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
