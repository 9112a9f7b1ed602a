"""Quantum-information layer: bipartite states and their equivalence reductions.

A bipartite pure state with amplitudes indexed (i, j) -> i*d2 + j is
identified with the d1 x d2 matrix psi = reshape(amplitudes). Under this
convention (A (x) B)|psi> corresponds to A psi B^T, which is the keystone
identity the whole module is built on: the solver's right unitary W (with
U psi W^dag = phi) converts to the physical local unitary V = conj(W).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .algebra import factor_algebra  # noqa: F401 -- unused; perfbench/spans.py wraps this name
from .errors import InputError, NotGenericError
from .linalg import (Tolerances, _worst_relative, as_complex_matrix, frobenius,
                     hermitian_eigendecomposition, same_spectrum)
from .solver import (
    SamplerConfig,
    UepVerdict,
    _pivot_decide,
    _realigned_blocks,
    _spectrum_mismatch,
    check_certificate,
    singular_value_prefilter,
)
from .solver import decide_uep  # noqa: F401 -- unused; perfbench/spans.py wraps this name

__all__ = [
    "PureState",
    "DensityOperator",
    "pure_state",
    "density_operator",
    "state_to_matrix",
    "simultaneous_lu_pure",
    "unilocal_mixed_equivalence",
    "generic_mixed_lu",
]


@dataclass(frozen=True, eq=False)
class PureState:
    d1: int
    d2: int
    amplitudes: np.ndarray  # length d1*d2, unit norm


@dataclass(frozen=True, eq=False)
class DensityOperator:
    d1: int
    d2: int
    matrix: np.ndarray  # (d1*d2) x (d1*d2), Hermitian, unit trace, PSD


# how far a state's norm may lie from 1 before it is rescaled, and a density
# matrix from Hermitian, unit trace and positive semidefinite before it is
# rejected
_STATE_TOL = 1e-10


def pure_state(d1: int, d2: int, amplitudes) -> PureState:
    """A state of d1 x d2 amplitudes; a norm more than _STATE_TOL off 1 is
    rescaled with a warning."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    if v.size != d1 * d2:
        raise InputError(f"expected {d1 * d2} amplitudes, got {v.size}")
    if not np.isfinite(v).all():
        raise InputError("amplitudes contain non-finite entries")
    # a norm squares the amplitudes, so it is taken, exactly, on v / 2^k for the
    # largest 2^k at most the largest real or imaginary part
    scale = 2.0 ** (math.frexp(np.abs(v.view(float)).max(initial=0.0))[1] - 1)
    u = (v.view(float) / scale).view(complex)
    unit = float(np.linalg.norm(u))
    if unit == 0.0:
        raise InputError("the zero vector is not a state")
    norm = unit * scale
    if abs(norm - 1.0) > _STATE_TOL:
        warnings.warn(f"state norm {norm!r} differs from 1; rescaling", stacklevel=2)
        v = u / unit
    return PureState(d1=d1, d2=d2, amplitudes=v)


def density_operator(d1: int, d2: int, matrix) -> DensityOperator:
    """A (d1 d2) x (d1 d2) density matrix: Hermitian, of unit trace and positive
    semidefinite, each to within _STATE_TOL."""
    M = as_complex_matrix(matrix, "density matrix")
    d = d1 * d2
    if M.shape != (d, d):
        raise InputError(f"density matrix must be {d} x {d}, got {M.shape}")
    if _worst_relative((M - M.conj().T)[None], M[None]) > _STATE_TOL:
        raise InputError("density matrix is not Hermitian")
    trace = np.trace(M)
    if abs(trace.real - 1.0) > _STATE_TOL or abs(trace.imag) > _STATE_TOL:
        raise InputError(f"density matrix trace {trace} differs from 1")
    w = np.linalg.eigvalsh((M + M.conj().T) / 2.0)
    if w[0] < -_STATE_TOL:
        raise InputError(f"density matrix has negative eigenvalue {w[0]:.3e}")
    return DensityOperator(d1=d1, d2=d2, matrix=M)


def state_to_matrix(s: PureState) -> np.ndarray:
    return s.amplitudes.reshape(s.d1, s.d2)


def _check_uniform(states, what: str):
    dims = {(s.d1, s.d2) for s in states}
    if len(dims) != 1:
        raise InputError(f"{what} have mixed dimensions: {sorted(dims)}")
    return dims.pop()


def _pivot_lu(Z, cfg: SamplerConfig, tol: Tolerances) -> UepVerdict:
    """U X_i W^dag = Y_i on the pivot route for the (n, 2, d1, d2) stack Z of
    pairs (X_i, Y_i) of matricized states; on YES, the solver's W becomes the
    physical V = conj(W). A YES is left unchecked."""
    verdict = _pivot_decide(Z, cfg, tol)
    if verdict.verdict == "YES":
        verdict.V = np.conj(verdict.V)
    return verdict


def simultaneous_lu_pure(states_in, states_out, cfg: SamplerConfig = SamplerConfig(),
                         tol: Tolerances = Tolerances()) -> UepVerdict:
    """Simultaneous local-unitary equivalence of two lists of pure states.

    Matricized states whose Schmidt coefficients differ at a pair are an
    exact NO; else their pair stack goes to the pivot route. A YES (U, V), with
    (U (x) V)|psi_i> = |phi_i>, is checked once on the states.
    """
    if len(states_in) != len(states_out) or not states_in:
        raise InputError("state lists must be non-empty and of equal length")
    d_in = _check_uniform(states_in, "input states")
    d_out = _check_uniform(states_out, "output states")
    if d_in != d_out:
        raise InputError(f"input dimensions {d_in} differ from output dimensions {d_out}")
    Z = np.stack([(state_to_matrix(a), state_to_matrix(b)) for a, b in zip(states_in, states_out)])
    ok, idx = singular_value_prefilter(Z, tol)
    if not ok:
        return UepVerdict(verdict="NO", certainty="exact",
                          detail=f"singular values differ at pair index {idx}")
    return check_certificate(_pivot_lu(Z, cfg, tol), "pure-sets", (states_in, states_out), tol)


def unilocal_mixed_equivalence(rhos, sigmas, cfg: SamplerConfig = SamplerConfig(),
                               tol: Tolerances = Tolerances()) -> UepVerdict:
    """Simultaneous (U (x) I) rho_i (U (x) I)^dag = sigma_i for one unitary U.

    With the blocks R_pq[a, b] = rho_i[(a, p), (b, q)] (the block
    realignment), the equation holds exactly when U R_pq = S_pq U for every
    block. The pivot route spans (I, I) and the blocks together, over two
    full d1 x d1 algebras; the (I, I) pair forces its left and right
    unitaries to coincide, and aux["uv_gap"] is their distance. When it ends
    in anything but a verified YES, singular values of a rho_i, or else of a
    block, that differ from sigma_i's explain it: an exact NO naming i (and
    p, q), counted from 0. A certificate that passes check_certificate
    stands even where that comparison would say NO, which its residual
    allows only within about sqrt(rank) of the comparison's tolerance.
    Non-acting parties fold into d2.
    """
    if len(rhos) != len(sigmas) or not rhos:
        raise InputError("density operator lists must be non-empty and of equal length")
    d1, d2 = _check_uniform(list(rhos) + list(sigmas), "density operators")
    pairs = np.stack([(r.matrix, s.matrix) for r, s in zip(rhos, sigmas)])
    Z = np.concatenate([np.broadcast_to(np.eye(d1), (1, 2, d1, d1)),
                        _realigned_blocks(pairs, (d1, d2), (d1, d2))])
    verdict = _pivot_decide(Z, cfg, tol)
    if verdict.verdict == "YES":
        verdict.aux["uv_gap"] = frobenius(verdict.U - verdict.V)
        verdict.V = None
        verdict = check_certificate(verdict, "unilocal-mixed", (rhos, sigmas), tol)
        if verdict.verdict == "YES":
            return verdict
    mismatch = _spectrum_mismatch(pairs, Z[1:], (d2, d2), tol)
    if mismatch is None:
        return verdict
    i, *block = mismatch
    where = f"block ({block[0]}, {block[1]}) of " if block else ""
    return UepVerdict(verdict="NO", certainty="exact",
                      detail=f"{where}rho_{i} vs sigma_{i}: singular values differ")


_EDGE_DENOM = 1e-6
_EDGE_MODULUS = 1e-4


def _quartic_traces(mats) -> np.ndarray:
    """T[i, j, k] = tr(m_i^dag m_j m_k^dag m_i); invariant up to lam_j conj(lam_k).

    With P[a, b] = m_a^dag m_b, T[i, j, k] = sum_{y,z} P[i, j]_yz P[k, i]_zy,
    and P[k, i] = P[i, k]^dag: so T[i] = L_i L_i^dag for the rows
    L_i[j] = vec P[i, j]. Every P[a, b] is a block of one product
    [m_1 ... m_n]^dag [m_1 ... m_n].
    """
    M = np.stack(mats)
    n, d1, d2 = M.shape
    S = M.transpose(1, 0, 2).reshape(d1, n * d2)  # [m_1 ... m_n]
    L = (S.conj().T @ S).reshape(n, d2, n, d2).transpose(0, 2, 1, 3).reshape(n, n, d2 * d2)
    return L @ L.conj().transpose(0, 2, 1)


def _resolve_phase_components(psis, phis):
    """Per-index phases lam_j with U psi_j V^dag = lam_j phi_j, up to one free
    phase per connected component of the trace graph.

    An edge k -> j needs a trace ratio T_psi[i, j, k] / T_phi[i, j, k] with
    |T_phi| > _EDGE_DENOM and modulus within _EDGE_MODULUS of 1. Returns
    (lambdas, components); components are index lists, each gauged to lam = 1
    at its smallest index, ordered by that index. generic_mixed_lu grids over
    the phases of every component after the first.
    """
    n = len(psis)
    Tpsi = _quartic_traces(psis)
    Tphi = _quartic_traces(phis)
    lambdas = np.ones(n, dtype=complex)
    resolved = [False] * n
    components = []
    for root in range(n):
        if resolved[root]:
            continue
        comp = [root]
        resolved[root] = True
        lambdas[root] = 1.0
        frontier = [root]
        while frontier:
            k = frontier.pop(0)
            for j in range(n):
                if resolved[j]:
                    continue
                for i in range(n):
                    denom = Tphi[i, j, k]
                    if abs(denom) <= _EDGE_DENOM:
                        continue
                    ratio = Tpsi[i, j, k] / denom
                    if abs(abs(ratio) - 1.0) > _EDGE_MODULUS:
                        continue  # unusable edge: non-equivalence or noise
                    lambdas[j] = (ratio / abs(ratio)) * lambdas[k]
                    resolved[j] = True
                    comp.append(j)
                    frontier.append(j)
                    break
        components.append(sorted(comp))
    return lambdas, components


def _marginals(rho: DensityOperator):
    """The reduced states (tr_B rho, tr_A rho)."""
    R = rho.matrix.reshape(rho.d1, rho.d2, rho.d1, rho.d2)
    return np.einsum("ijkj->ik", R), np.einsum("ijil->jl", R)


def _is_product(rho: DensityOperator, marginals, tol: Tolerances) -> bool:
    scale = max(1.0, frobenius(rho.matrix))
    return frobenius(rho.matrix - np.kron(*marginals)) <= tol.residual_abs * scale


def _product_lu(marginals_rho, marginals_sigma, tol: Tolerances) -> UepVerdict:
    """Two product states are LU-equivalent exactly when their marginal spectra
    match; U and V then map the marginal eigenbases of rho onto those of sigma."""
    factors = []
    for name, r, s in zip("AB", marginals_rho, marginals_sigma):
        w_r, Q_r = hermitian_eigendecomposition(r, tol)
        w_s, Q_s = hermitian_eigendecomposition(s, tol)
        if not same_spectrum(w_r, w_s, tol):
            return UepVerdict(verdict="NO", certainty="exact",
                              detail=f"product states with different spectra on subsystem {name}")
        factors.append(Q_s @ Q_r.conj().T)
    U, V = factors
    return UepVerdict(verdict="YES", certainty="exact", U=U, V=V)


def generic_mixed_lu(rho: DensityOperator, sigma: DensityOperator,
                     cfg: SamplerConfig = SamplerConfig(),
                     tol: Tolerances = Tolerances(),
                     phase_grid: int = 12) -> UepVerdict:
    """LU equivalence (U (x) V) rho (U (x) V)^dag = sigma for generic states.

    Requires the n eigenvalues of rho above residual_abs and the next one
    down, and sigma's first n + 1, to lie more than residual_abs apart, so
    that eigh separates the n eigenvectors from the rest; rho may have any
    rank. Sigma's gap between its n-th and (n + 1)-th eigenvalues is checked
    only once the spectra match. LU equivalence then forces
    U psi_j V^T = lam_j phi_j with |lam_j| = 1 for the matricized
    eigenvectors of those n eigenvalues, so before any solve: different
    spectra (a rank mismatch too), a product state against a non-product
    one, and different Schmidt coefficients of some psi_j and phi_j are
    exact NOs, and two product states are decided from their marginals.
    Otherwise per-vector phases are aligned via the quartic-trace
    identity, and the stacked eigenvector pairs go to the pivot route once
    per point of a grid of phase_grid >= 1 points per free phase, one per
    trace graph component after the first (a connected graph: one solve,
    whose verdict stands). Each candidate is checked once, on rho, sigma.

    Every verdict's aux holds `phase_components` (components of the trace
    graph, 0 when a test before the graph decides) and `grid_solves` (the
    pivot-route solves run).
    """
    if (rho.d1, rho.d2) != (sigma.d1, sigma.d2):
        raise InputError("density operators have mismatched dimensions")
    if phase_grid < 1:
        raise InputError(f"phase_grid must be at least 1, got {phase_grid}")
    verdict, components, solves = _generic_mixed(rho, sigma, cfg, tol, phase_grid)
    verdict.aux.update(phase_components=components, grid_solves=solves)
    return verdict


def _generic_mixed(rho, sigma, cfg: SamplerConfig, tol: Tolerances, phase_grid: int) -> tuple:
    """generic_mixed_lu's verdict, trace graph components and solves run."""
    d1, d2 = rho.d1, rho.d2
    w_r, Q_r = hermitian_eigendecomposition(rho.matrix, tol)
    w_s, Q_s = hermitian_eigendecomposition(sigma.matrix, tol)

    def require_gaps(name, w):
        if w.size > 1 and np.min(w[:-1] - w[1:]) <= tol.residual_abs:
            raise NotGenericError(f"{name} has nonzero eigenvalues with gaps <= {tol.residual_abs} "
                                  "to each other or to the next eigenvalue down")

    n = int(np.count_nonzero(w_r > tol.residual_abs))
    require_gaps("rho", w_r[:n + 1])
    require_gaps("sigma", w_s[:n])
    if not same_spectrum(w_r, w_s, tol):
        return UepVerdict(verdict="NO", certainty="exact", detail="eigenvalue spectra differ"), 0, 0
    # sigma's gap below its first n: a rank mismatch has answered NO by now
    require_gaps("sigma", w_s[n - 1:n + 1])
    marg_r, marg_s = _marginals(rho), _marginals(sigma)
    product_r, product_s = _is_product(rho, marg_r, tol), _is_product(sigma, marg_s, tol)
    if product_r != product_s:
        which = "rho" if product_r else "sigma"
        return UepVerdict(verdict="NO", certainty="exact",
                          detail=f"only {which} is a product state"), 0, 0
    if product_r:
        return check_certificate(_product_lu(marg_r, marg_s, tol),
                                 "generic-mixed", (rho, sigma), tol), 0, 0
    psis, phis = (Q[:, :n].T.reshape(n, d1, d2) for Q in (Q_r, Q_s))
    Z = np.stack([psis, phis], axis=1)
    ok, idx = singular_value_prefilter(Z, tol)
    if not ok:
        return UepVerdict(verdict="NO", certainty="exact",
                          detail=f"Schmidt coefficients of eigenvector {idx} differ"), 0, 0
    lambdas, components = _resolve_phase_components(psis, phis)
    # one free phase per component after the first: a connected graph's one solve stands
    free = components[1:]
    grid = np.exp(2j * np.pi * np.arange(phase_grid) / phase_grid)
    for solves, combo in enumerate(product(range(phase_grid), repeat=len(free)), 1):
        phases = lambdas.copy()
        for comp, gidx in zip(free, combo):
            phases[comp] = phases[comp] * grid[gidx]
        Z[:, 1] = phases[:, None, None] * phis
        verdict = check_certificate(_pivot_lu(Z, cfg, tol), "generic-mixed", (rho, sigma), tol)
        if verdict.verdict == "YES" and free:
            verdict.aux["phase_grid_combo"] = combo
        if verdict.verdict == "YES" or not free:
            return verdict, len(components), solves
    return UepVerdict(
        verdict="INCONCLUSIVE", certainty="probabilistic",
        detail=(f"phase graph disconnected into {len(components)} components; "
                f"grid fallback with K={phase_grid} exhausted without a certificate"),
    ), len(components), solves
