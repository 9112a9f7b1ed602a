"""Seeded instance generators for the benchmark workloads.

Each workload is a fixed list of case shapes (mode, sizes, label kind). The
seed only changes the random matrices, never the shapes, so every run of a
workload does the same amount of work and its figures compare across seeds.
A case is an instance document as `uniequiv decide` reads it, plus the label
the answer must match. The documents are written by this module directly;
`uniequiv.oracle` supplies the planted matrix-pairs instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from uniequiv import oracle

WORKLOADS = ("pairs-full", "unilocal-factor", "states-small", "cli-cold")


@dataclass(frozen=True)
class Case:
    kind: str    # e.g. "pairs/gauged-no 12x6 m=2"
    label: str   # "YES" or "NO"
    doc: dict    # instance document


# ---------------------------------------------------------------- JSON form

def _mat(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _vec(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex).ravel()]


def _algebra(G) -> dict:
    if G.kind == "factor":
        a, b = G.factor_shape
        return {"kind": "factor", "a": a, "b": b}
    return {"kind": "full"}


def _pairs_doc(d1, d2, pairs, G1, G2) -> dict:
    return {"mode": "matrix-pairs", "d1": d1, "d2": d2,
            "pairs": [{"X": _mat(X), "Y": _mat(Y)} for X, Y in pairs],
            "G1": _algebra(G1), "G2": _algebra(G2)}


# ---------------------------------------------------------------- primitives

def _ginibre(n, m, rng):
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)


def _haar(n, rng):
    q, r = np.linalg.qr(_ginibre(n, n, rng))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _hermitize(M):
    M = (M + M.conj().T) / 2.0
    return M / np.trace(M).real


def _conj(W, rho):
    return _hermitize(W @ rho @ W.conj().T)


def _spaced_density(d, rng):
    """Full-rank density matrix whose eigenvalue gaps are all well above 1e-8."""
    w = np.sort(np.arange(d, 0, -1) + rng.uniform(0.0, 0.4, size=d))[::-1]
    Q = _haar(d, rng)
    return _hermitize((Q * w) @ Q.conj().T), Q, w / w.sum()


def _random_density(d, rng):
    G = _ginibre(d, d, rng)
    return _hermitize(G @ G.conj().T + 0.05 * np.eye(d))


def _unit(v):
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- case makers

def pairs_yes(rng, d1, d2, m, g="full"):
    kinds = ("full", "full") if g == "full" else (("factor",) + g, ("factor",) + g)
    inst, _ = oracle.random_yes_instance(d1, d2, m, kinds[0], kinds[1], seed=rng)
    return Case(f"pairs/{g if g == 'full' else 'factor'}-yes {d1}x{d2} m={m}", "YES",
                _pairs_doc(d1, d2, inst.pairs, inst.G1, inst.G2))


def pairs_prefilter_no(rng, d1, d2, m):
    inst = oracle.random_no_instance(d1, d2, m, seed=int(rng.integers(2**31)))
    return Case(f"pairs/prefilter-no {d1}x{d2} m={m}", "NO",
                _pairs_doc(d1, d2, inst.pairs, inst.G1, inst.G2))


def pairs_gauged_no(rng, d1, d2, m):
    """Y_i = U_i X_i V_i^dag with independent unitaries per pair (m >= 1):
    every pair keeps its singular values, so the prefilter passes."""
    inst, _ = oracle.random_yes_instance(d1, d2, m, seed=rng)
    pairs = [(X, _haar(d1, rng) @ X @ _haar(d2, rng).conj().T) for X, _ in inst.pairs]
    return Case(f"pairs/gauged-no {d1}x{d2} m={m}", "NO",
                _pairs_doc(d1, d2, pairs, inst.G1, inst.G2))


def pairs_factor_no(rng, a, b, m):
    """Y_i = (I (x) W1) X_i (I (x) W2)^dag: unitary, but outside the factor algebra."""
    d = a * b
    inst, _ = oracle.random_yes_instance(d, d, m, ("factor", a, b), ("factor", a, b), seed=rng)
    L = np.kron(np.eye(a), _haar(b, rng))
    R = np.kron(np.eye(a), _haar(b, rng))
    pairs = [(X, L @ X @ R.conj().T) for X, _ in inst.pairs]
    return Case(f"pairs/factor-no {a}x{b} m={m}", "NO",
                _pairs_doc(d, d, pairs, inst.G1, inst.G2))


def unilocal(rng, a, b, k, yes):
    """(U (x) I) rho (U (x) I)^dag for YES; (I (x) V) ... keeps the spectrum for NO."""
    rhos = [_random_density(a * b, rng) for _ in range(k)]
    W = np.kron(_haar(a, rng), np.eye(b)) if yes else np.kron(np.eye(a), _haar(b, rng))
    doc = {"mode": "unilocal-mixed", "d1": a, "d2": b,
           "rhos": [_mat(r) for r in rhos], "sigmas": [_mat(_conj(W, r)) for r in rhos]}
    return Case(f"unilocal/{'yes' if yes else 'ixv-no'} {a}x{b} k={k}", "YES" if yes else "NO", doc)


def generic(rng, a, b, kind):
    """kind: "yes" (U (x) V), "spectrum-no" (perturbed eigenvalues) or
    "global-no" (a Haar unitary on the whole space: same spectrum, not local)."""
    d = a * b
    rho, Q, w = _spaced_density(d, rng)
    if kind == "spectrum-no":
        w2 = w.copy()
        w2[0] += 1e-3
        w2[-1] -= 1e-3
        target = _hermitize((Q * w2) @ Q.conj().T)
        W = np.kron(_haar(a, rng), _haar(b, rng))
    elif kind == "global-no":
        target, W = rho, _haar(d, rng)
    else:
        target, W = rho, np.kron(_haar(a, rng), _haar(b, rng))
    doc = {"mode": "generic-mixed", "d1": a, "d2": b,
           "rho": _mat(rho), "sigma": _mat(_conj(W, target))}
    return Case(f"generic/{kind} {a}x{b}", "YES" if kind == "yes" else "NO", doc)


def pure(rng, a, b, n, yes):
    psis = [_unit(_ginibre(1, a * b, rng).ravel()) for _ in range(n)]
    if yes:
        W = np.kron(_haar(a, rng), _haar(b, rng))
        phis = [W @ p for p in psis]
    else:
        phis = [_unit(_ginibre(1, a * b, rng).ravel()) for _ in range(n)]
    doc = {"mode": "pure-sets", "d1": a, "d2": b,
           "states_in": [_vec(p) for p in psis], "states_out": [_vec(p) for p in phis]}
    return Case(f"pure/{'yes' if yes else 'random-no'} {a}x{b} n={n}", "YES" if yes else "NO", doc)


def matpoly(rng, d, degree, yes):
    P = [_ginibre(d, d, rng) for _ in range(degree + 1)]
    if yes:
        A, B = _ginibre(d, d, rng) + 2 * np.eye(d), _ginibre(d, d, rng) + 2 * np.eye(d)
        Binv = np.linalg.inv(B)
        Q = [A @ C @ Binv for C in P]
    else:
        Q = [_ginibre(d, d, rng) for _ in range(degree + 1)]
    doc = {"mode": "matpoly", "d1": d, "d2": d, "P": [_mat(C) for C in P], "Q": [_mat(C) for C in Q]}
    return Case(f"matpoly/{'yes' if yes else 'random-no'} d={d} deg={degree}", "YES" if yes else "NO", doc)


MAKERS = {
    "pairs_yes": pairs_yes, "pairs_prefilter_no": pairs_prefilter_no,
    "pairs_gauged_no": pairs_gauged_no, "pairs_factor_no": pairs_factor_no,
    "unilocal": unilocal, "generic": generic, "pure": pure, "matpoly": matpoly,
}

# ---------------------------------------------------------------- workloads
# One cycle of each workload: (maker, args). The benchmark runs whole cycles.

CYCLES = {
    # verify_algebra (O(d^8) over the full algebra) dominates; d1, d2 take
    # every value in {6, 8, 10, 12}, rectangular cases included. The median
    # falls in the block of five YES 8x8 cases and the tail percentile in the
    # five gauged 10x10 ones, so neither jumps between case shapes.
    "pairs-full": (
        [("pairs_yes", (6, 6, 0)), ("pairs_gauged_no", (6, 6, 1))]
        + [("pairs_yes", (8, 8, 1))] * 5
        + [("pairs_yes", (10, 6, 1))]
        + [("pairs_gauged_no", (10, 10, 1))] * 5
        + [("pairs_gauged_no", (12, 6, 2)), ("pairs_yes", (10, 12, 0)), ("pairs_gauged_no", (12, 10, 1)),
           ("pairs_yes", (12, 12, 2))]
        + [("pairs_prefilter_no", (d1, d2, m)) for d1, d2, m in
           ((6, 12, 0), (8, 6, 1), (10, 10, 2), (12, 12, 2), (12, 8, 1), (8, 10, 2))]
        # a few milliseconds each, so that the states and matpoly layers are
        # measured on this workload too
        + [("pure", (2, 3, 2, True)), ("matpoly", (4, 2, True))]
    ),
    # The full_matrices=True SVD in nullspace_basis does the work and sets
    # the memory peak (unilocal 4x6 with k=2: a 6912 x 6912 U).
    "unilocal-factor": (
        [("unilocal", (4, 6, 2, True)), ("unilocal", (4, 4, 2, False)), ("unilocal", (4, 4, 1, True)),
         ("unilocal", (4, 4, 1, False))]
        + [("unilocal", (3, 3, k, yes)) for k in (1, 2) for yes in (True, False) for _ in range(2)]
        + [("matpoly", (6, 2, True))]  # so that the matpoly layer is measured here too
        + [("pairs_yes", (24, 24, 0, (4, 6))), ("pairs_factor_no", (4, 4, 1)),
           ("pairs_yes", (16, 16, 1, (4, 4))), ("pairs_yes", (12, 12, 1, (3, 4))),
           ("pairs_factor_no", (3, 4, 1)), ("pairs_yes", (8, 8, 1, (2, 4))),
           ("pairs_factor_no", (2, 4, 2)), ("pairs_yes", (6, 6, 2, (2, 3)))]
    ),
    # Millisecond documents: per-call overhead, the states reductions and
    # sampling. generic/global-no 2x2 disconnects the phase graph into 4
    # components and runs 12^3 grid solves (INCONCLUSIVE).
    "states-small": (
        [("pure", (a, b, n, yes)) for (a, b, n), yes in zip(
            ((2, 2, 1), (2, 3, 2), (3, 3, 3), (3, 4, 1), (4, 4, 2), (5, 5, 3), (6, 6, 1), (2, 6, 2),
             (4, 5, 3), (2, 2, 3), (3, 3, 1), (6, 6, 2)),
            (True, True, True, True, True, True, True, True, False, False, False, False))]
        + [("generic", (a, b, kind)) for a, b, kind in
           ((2, 2, "yes"), (2, 3, "yes"), (3, 3, "yes"), (3, 4, "yes"), (4, 4, "yes"), (2, 2, "yes"),
            (2, 2, "spectrum-no"), (3, 3, "spectrum-no"), (4, 4, "spectrum-no"), (2, 4, "spectrum-no"),
            (2, 2, "global-no"), (2, 2, "global-no"), (2, 2, "global-no"), (2, 2, "global-no"))]
        + [("matpoly", (d, deg, yes)) for (d, deg), yes in zip(
            ((3, 1), (4, 2), (5, 3), (6, 1), (7, 2), (8, 3), (10, 1), (9, 2), (3, 3), (6, 2), (8, 1),
             (10, 3)),
            (True, True, True, True, True, True, True, True, False, False, False, False))]
        + [("pairs_yes", (d1, d2, m)) for d1, d2, m in ((2, 2, 0), (3, 3, 1), (4, 5, 2), (5, 5, 1), (2, 4, 1))]
        + [("pairs_gauged_no", (d1, d2, m)) for d1, d2, m in ((3, 3, 1), (4, 4, 2), (5, 3, 1))]
        + [("pairs_prefilter_no", (d1, d2, m)) for d1, d2, m in
           ((2, 3, 0), (4, 4, 1), (5, 5, 2), (3, 2, 1), (5, 4, 0))]
    ),
    # Every request is a fresh `python -m uniequiv.cli decide` process:
    # interpreter start, import, argparse and file I/O, all five modes.
    "cli-cold": (
        ("pairs_yes", (8, 8, 1)), ("pairs_gauged_no", (6, 10, 2)), ("pairs_prefilter_no", (10, 8, 1)),
        ("pairs_yes", (12, 12, 1, (3, 4))), ("matpoly", (6, 2, True)), ("matpoly", (8, 1, False)),
        ("pure", (3, 3, 2, True)), ("pure", (3, 4, 1, False)), ("unilocal", (3, 3, 2, True)),
        ("unilocal", (3, 3, 1, False)), ("generic", (3, 3, "yes")), ("generic", (2, 3, "spectrum-no")),
        ("pairs_yes", (6, 6, 2)), ("generic", (2, 2, "yes")), ("matpoly", (4, 3, True)),
        ("pure", (2, 3, 3, True)), ("pairs_gauged_no", (8, 8, 1)),
    ),
}

# The untimed warm-up request of each workload: its smallest case.
WARMUP = {
    "pairs-full": ("pairs_yes", (6, 6, 0)),
    "unilocal-factor": ("unilocal", (3, 3, 1, True)),
    "states-small": ("pure", (2, 2, 1, True)),
    "cli-cold": ("pure", (2, 2, 1, True)),
}


def build(workload: str, seed: int):
    """The cases of one cycle, in a seeded order, and the warm-up case."""
    if workload not in CYCLES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    index = WORKLOADS.index(workload)
    cases = []
    for i, (maker, args) in enumerate(CYCLES[workload]):
        rng = np.random.default_rng([seed, index, i])
        cases.append(MAKERS[maker](rng, *args))
    order = np.random.default_rng([seed, index]).permutation(len(cases))
    maker, args = WARMUP[workload]
    warmup = MAKERS[maker](np.random.default_rng([seed, index, 10**6]), *args)
    return [cases[i] for i in order], warmup
