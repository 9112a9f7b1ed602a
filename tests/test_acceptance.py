"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line on the terminal (capture disabled
for that line only) and then asserts, so the printed verdict and the pytest
outcome always agree.
"""

import json

import numpy as np
import pytest

from uniequiv import (
    SamplerConfig,
    Tolerances,
    decide_uep,
    density_operator,
    generic_mixed_lu,
    per_trial_failure_bound,
    pure_state,
    random_no_instance,
    random_yes_instance,
    state_to_matrix,
    unilocal_mixed_equivalence,
    uep_instance_full,
)
from uniequiv.algebra import span_residual
from uniequiv.serialize import dumps_document, verdict_document
from uniequiv.solver import build_linear_system, draw_candidate, sample_invertible, solve_solution_space

import uniequiv.solver as solver_mod

from conftest import ginibre, haar, random_density
from exact_reference import (
    exact_nullspace_dimension,
    inverse_sqrt_psd,
    polynomial_at_matrix,
    singular_value_ratio,
    vandermonde_inverse_sqrt_coeffs,
)

TOL = Tolerances()


def _report(capsys, number, label, ok):
    with capsys.disabled():
        print(f"\ncriterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def _unitarity_defect(U):
    return np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0]))


def _pair_residual(U, V, pairs):
    return max(np.linalg.norm(U @ X @ V.conj().T - Y) for X, Y in pairs)


def test_criterion_1_yes_completeness(capsys):
    rng = np.random.default_rng(1001)
    failures = []
    for i in range(200):
        if i % 5 == 0:
            d1, d2 = 4, int(rng.integers(1, 6))
            g1_kind, g2_kind = ("factor", 2, 2), "full"
        elif i % 5 == 1:
            d1, d2 = int(rng.integers(1, 6)), 4
            g1_kind, g2_kind = "full", ("factor", 2, 2)
        else:
            d1, d2 = (int(x) for x in rng.integers(1, 6, size=2))
            g1_kind = g2_kind = "full"
        m = int(rng.integers(0, 5))
        inst, _ = random_yes_instance(d1, d2, m, g1_kind=g1_kind, g2_kind=g2_kind, seed=i)
        verdict = decide_uep(inst, SamplerConfig(seed=i))
        ok = (
            verdict.verdict == "YES"
            and verdict.residual <= 1e-8
            and _unitarity_defect(verdict.U) <= 1e-8
            and _unitarity_defect(verdict.V) <= 1e-8
            and span_residual(inst.G1, verdict.U) <= 1e-8
            and span_residual(inst.G2, verdict.V) <= 1e-8
        )
        if not ok:
            failures.append(i)
    _report(capsys, 1, "YES completeness, 200 instances", not failures)


def test_criterion_2_no_soundness(capsys):
    rng = np.random.default_rng(2002)
    bad = 0
    for i in range(100):
        d1, d2 = (int(x) for x in rng.integers(1, 6, size=2))
        m = int(rng.integers(0, 5))
        inst = random_no_instance(d1, d2, m, seed=i)
        verdict = decide_uep(inst, SamplerConfig(seed=i))
        if not (verdict.verdict == "NO" and verdict.certainty == "exact"):
            bad += 1
    _report(capsys, 2, "NO soundness, 100 prefilter violations", bad == 0)


def _distinct_nodes(H):
    # one interpolation node per distinct eigenvalue; the interpolant matches
    # t^(-1/2) on the whole spectrum either way
    w = np.linalg.eigvalsh(H)
    keep = [w[0]]
    for v in w[1:]:
        if v - keep[-1] > 1e-6 * w[-1]:
            keep.append(v)
    return np.array(keep)


def test_criterion_3_polynomial_extraction_crosscheck(capsys):
    rng = np.random.default_rng(3003)
    ok = True
    # interpolated inverse square root vs the spectral one; the rooted Gram
    # matrix is conditioned at most 1e3
    for _ in range(50):
        d = int(rng.integers(2, 7))
        cond = 10.0 ** rng.uniform(0.5, 3.0)
        # exponents spread across [0, 1] so the Gram eigenvalues stay
        # pairwise separated (the interpolation nodes must be distinct)
        u = (np.arange(d) + rng.uniform(0.1, 0.9, size=d)) / d
        u[0], u[-1] = 0.0, 1.0
        s = cond ** (-u / 2.0)
        A = (haar(d, rng) * s) @ haar(d, rng).conj().T
        H = A.conj().T @ A
        nodes = np.linalg.eigvalsh(H)
        coeffs = vandermonde_inverse_sqrt_coeffs(nodes)
        via_poly = polynomial_at_matrix(coeffs, H)
        if np.linalg.norm(via_poly - inverse_sqrt_psd(H)) > 1e-6:
            ok = False
        U = A @ via_poly
        if _unitarity_defect(U) > 1e-6:
            ok = False
    # polynomial-extracted factors solve both halves of the linearized system
    for i in range(50):
        inst, _ = random_yes_instance(2, 3, 1, seed=7000 + i)
        space = solve_solution_space(build_linear_system(inst))
        cfg = SamplerConfig(seed=i)
        hit = None
        for t in range(cfg.trials):
            A, B = draw_candidate(space, cfg, t)
            A = A / np.linalg.norm(A, 2)
            B = B / np.linalg.norm(B, 2)
            if np.linalg.cond(A) <= 1e3 and np.linalg.cond(B) <= 1e3:
                hit = (A, B)
                break
        if hit is None:
            ok = False
            continue
        A, B = hit
        U = A @ polynomial_at_matrix(
            vandermonde_inverse_sqrt_coeffs(_distinct_nodes(A.conj().T @ A)),
            A.conj().T @ A)
        V = B @ polynomial_at_matrix(
            vandermonde_inverse_sqrt_coeffs(_distinct_nodes(B.conj().T @ B)),
            B.conj().T @ B)
        chi = max(
            max(np.linalg.norm(U @ X - Y @ V) for X, Y in inst.pairs),
            max(np.linalg.norm(X @ V.conj().T - U.conj().T @ Y) for X, Y in inst.pairs),
        )
        if chi > 1e-8:
            ok = False
    _report(capsys, 3, "interpolated inverse sqrt and extraction", ok)


def test_criterion_4_sampling_accounting(capsys, monkeypatch):
    # large sample set: the very first trial succeeds essentially always. The
    # diagonal read declines, so each instance is solved and sampled
    monkeypatch.setattr(solver_mod, "_read_diagonal", lambda *args: None)
    first_trial_hits = 0
    for i in range(1000):
        inst, _ = random_yes_instance(2, 2, 1, seed=10_000 + i)
        verdict = decide_uep(inst, SamplerConfig(seed=i))
        if verdict.verdict == "YES" and verdict.trials_used == 1:
            first_trial_hits += 1
    ok = first_trial_hits >= 999

    # adversarial tiny sample sets on one d1 = d2 = 2 solution space
    inst, _ = random_yes_instance(2, 2, 1, seed=424242)
    space = solve_solution_space(build_linear_system(inst))

    def singular_rate(sample_max, n):
        cfg = SamplerConfig(sample_max=sample_max, trials=1, seed=99)
        bad = 0
        for t in range(n):
            A, B = draw_candidate(space, cfg, t)
            if (singular_value_ratio(A) <= TOL.rank_rel
                    or singular_value_ratio(B) <= TOL.rank_rel):
                bad += 1
        return bad / n

    bound8 = per_trial_failure_bound(2, 2, 8)
    ok = ok and bound8 == 1.0 and singular_rate(8, 2000) <= bound8

    n = 10_000
    rate64 = singular_rate(64, n)
    sigma = np.sqrt(0.125 * 0.875 / n)
    ok = ok and rate64 <= 0.125 + 3 * sigma
    _report(capsys, 4, "randomized search failure accounting", ok)


def test_criterion_5_exact_oracle_agreement(capsys):
    rng = np.random.default_rng(5005)
    ok = True
    for _ in range(50):
        d1, d2 = (int(x) for x in rng.integers(1, 4, size=2))
        m = int(rng.integers(1, 4))
        pairs = tuple(
            (rng.integers(-3, 4, size=(d1, d2)).astype(complex),
             rng.integers(-3, 4, size=(d1, d2)).astype(complex))
            for _ in range(m)
        )
        system = build_linear_system(uep_instance_full(d1, d2, pairs))
        if solve_solution_space(system).dimension != exact_nullspace_dimension(system.matrix):
            ok = False
    _report(capsys, 5, "floating dimension matches exact nullity", ok)


def test_criterion_6_identity_pair_trick(capsys):
    ok = True
    for i in range(50):
        rng = np.random.default_rng(6000 + i)
        d1, d2 = (int(x) for x in rng.integers(2, 4, size=2))
        U0 = haar(d1, rng)
        big = np.kron(U0, np.eye(d2))
        rhos = [random_density(d1, d2, rng) for _ in range(int(rng.integers(1, 4)))]
        sigmas = [density_operator(d1, d2, big @ r.matrix @ big.conj().T) for r in rhos]
        verdict = unilocal_mixed_equivalence(rhos, sigmas, SamplerConfig(seed=i))
        if verdict.verdict != "YES" or verdict.aux["uv_gap"] > 1e-7:
            ok = False
    _report(capsys, 6, "appended identity pair forces matching factors", ok)


def test_criterion_7_generic_mixed_pipeline(capsys):
    ok = True
    for i in range(50):
        rng = np.random.default_rng(7000 + i)
        d1, d2 = (int(x) for x in rng.integers(2, 4, size=2))
        rho = random_density(d1, d2, rng, min_gap=1e-3)
        local = np.kron(haar(d1, rng), haar(d2, rng))
        sigma = density_operator(d1, d2, local @ rho.matrix @ local.conj().T)
        verdict = generic_mixed_lu(rho, sigma, SamplerConfig(seed=i))
        if verdict.verdict != "YES":
            ok = False
            continue
        got = np.kron(verdict.U, verdict.V)
        if np.linalg.norm(got @ rho.matrix @ got.conj().T - sigma.matrix) > 1e-7:
            ok = False
    for i in range(50):
        rng = np.random.default_rng(7500 + i)
        d1, d2 = (int(x) for x in rng.integers(2, 4, size=2))
        rho = random_density(d1, d2, rng, min_gap=1e-3)
        w, Q = np.linalg.eigh(rho.matrix)
        w2 = w.copy()
        w2[-1] += 1e-3
        w2[0] -= 1e-3  # compensate so the trace stays 1
        sigma = density_operator(d1, d2, (Q * w2) @ Q.conj().T)
        verdict = generic_mixed_lu(rho, sigma, SamplerConfig(seed=i))
        if not (verdict.verdict == "NO" and verdict.certainty == "exact"):
            ok = False
    _report(capsys, 7, "generic mixed reduction, 50 YES + 50 NO", ok)


def test_criterion_8_vectorization_keystone(capsys):
    rng = np.random.default_rng(8008)
    worst = 0.0
    for _ in range(100):
        d1, d2 = (int(x) for x in rng.integers(1, 6, size=2))
        v = ginibre(1, d1 * d2, rng).ravel()
        s = pure_state(d1, d2, v / np.linalg.norm(v))
        A, B = ginibre(d1, d1, rng), ginibre(d2, d2, rng)
        lhs = (np.kron(A, B) @ s.amplitudes).reshape(d1, d2)
        rhs = A @ state_to_matrix(s) @ B.T
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    _report(capsys, 8, "matricization convention", worst <= 1e-10)


def test_criterion_9_determinism(capsys):
    ok = True
    for i in range(5):
        g1_kind = ("factor", 2, 2) if i % 2 else "full"
        inst, _ = random_yes_instance(4, 3, 2, g1_kind=g1_kind, seed=900 + i)

        def run():
            verdict = decide_uep(inst, SamplerConfig(seed=i))
            return dumps_document(
                verdict_document(verdict, mode="matrix-pairs", seed=i, verbose=True)
            ).encode()

        if run() != run():
            ok = False
    for i in range(3):
        rng = np.random.default_rng(910 + i)
        rho = random_density(2, 2, rng, min_gap=1e-3)
        local = np.kron(haar(2, rng), haar(2, rng))
        sigma = density_operator(2, 2, local @ rho.matrix @ local.conj().T)

        def run_mixed():
            verdict = generic_mixed_lu(rho, sigma, SamplerConfig(seed=i))
            return dumps_document(
                verdict_document(verdict, mode="generic-mixed", seed=i)
            ).encode()

        if run_mixed() != run_mixed():
            ok = False
    _report(capsys, 9, "byte-identical reruns", ok)
