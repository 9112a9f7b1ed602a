"""Seeded instance generators: planted YES instances, NO instances and
Haar unitaries restricted to an algebra. `uniequiv gen` builds its
instances here.

NO instances are built only through invariant violation (a rescaled top
singular value) so their verdicts never depend on the randomized solver.
"""

from __future__ import annotations

import numpy as np

from .algebra import MatrixAlgebra, factor_algebra, full_algebra
from .errors import InputError
from .solver import UepInstance

__all__ = [
    "random_yes_instance",
    "random_no_instance",
    "haar_unitary_in_algebra",
    "algebra_from_kind",
]


def haar_unitary_in_algebra(G: MatrixAlgebra, seed) -> np.ndarray:
    """Haar-random unitary u (x) I_b inside an algebra of factor shape (a, b)."""
    if G.factor_shape is None:
        raise InputError(f"no canonical Haar measure for algebra kind {G.kind!r}")
    a, b = G.factor_shape
    u = _haar_unitary(a, np.random.default_rng(seed))
    return u if b == 1 else np.kron(u, np.eye(b, dtype=complex))


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _ginibre(d1: int, d2: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2))) / np.sqrt(2.0)


def algebra_from_kind(kind, d: int) -> MatrixAlgebra:
    """Build an algebra from a kind descriptor: "full" or ("factor", a, b) with a*b = d."""
    if kind == "full":
        return full_algebra(d)
    if isinstance(kind, (tuple, list)) and len(kind) == 3 and kind[0] == "factor":
        a, b = int(kind[1]), int(kind[2])
        if a * b != d:
            raise InputError(f"factor shape {a}x{b} does not tile dimension {d}")
        return factor_algebra(a, b)
    raise InputError(f"unsupported algebra kind {kind!r}")


def random_yes_instance(d1: int, d2: int, m: int, g1_kind="full", g2_kind="full",
                        seed: int = 0):
    """Planted instance Y_i = U0 X_i V0^dag; returns (instance, (U0, V0))."""
    if d1 < 1 or d2 < 1 or m < 0:
        raise InputError("need d1, d2 >= 1 and m >= 0")
    rng = np.random.default_rng(seed)
    G1 = algebra_from_kind(g1_kind, d1)
    G2 = algebra_from_kind(g2_kind, d2)
    Xs = [_ginibre(d1, d2, rng) for _ in range(m + 1)]
    U0 = haar_unitary_in_algebra(G1, rng)
    V0 = haar_unitary_in_algebra(G2, rng)
    pairs = tuple((X, U0 @ X @ V0.conj().T) for X in Xs)
    return UepInstance(d1=d1, d2=d2, pairs=pairs, G1=G1, G2=G2), (U0, V0)


def random_no_instance(d1: int, d2: int, m: int, seed: int = 0) -> UepInstance:
    """Instance whose first pair has provably mismatched singular values."""
    inst, _ = random_yes_instance(d1, d2, m, seed=seed)
    X0, Y0 = inst.pairs[0]
    u, s, vh = np.linalg.svd(Y0)
    s = s.copy()
    s[0] *= 2.0  # top singular value doubled: the multisets now differ
    Y0_bad = (u[:, :s.size] * s) @ vh[:s.size]
    pairs = ((X0, Y0_bad),) + inst.pairs[1:]
    return UepInstance(d1=d1, d2=d2, pairs=pairs, G1=inst.G1, G2=inst.G2)
