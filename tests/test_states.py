import tracemalloc

import numpy as np
import pytest

from uniequiv import (
    InputError,
    MatrixPolynomial,
    NotGenericError,
    SamplerConfig,
    Tolerances,
    decide_invertible_equivalence,
    decide_uep,
    density_operator,
    generic_mixed_lu,
    pure_state,
    random_yes_instance,
    simultaneous_lu_pure,
    singular_values,
    state_to_matrix,
    unilocal_mixed_equivalence,
)
from uniequiv import solver as solver_mod, states
from uniequiv.algebra import factor_algebra
from uniequiv.solver import (UepInstance, _realigned_blocks, _spanning_pairs, build_linear_system,
                             certificate_residuals, solve_solution_space, uep_instance_full)
from uniequiv.linalg import hermitian_eigendecomposition
from uniequiv.states import _pivot_lu, _resolve_phase_components

from conftest import ginibre, haar, random_density

CFG = SamplerConfig(seed=29)


def _reference_quartic_traces(mats):
    """T[i, j, k] = tr(m_i^dag m_j m_k^dag m_i), the whole n x n x n tensor, by
    an O(n^3) loop."""
    n = len(mats)
    P = np.empty((n, n), dtype=object)
    for a in range(n):
        for b in range(n):
            P[a, b] = mats[a].conj().T @ mats[b]
    T = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                T[i, j, k] = np.trace(P[i, j] @ P[k, i])
    return T


def _reference_phase_components(psis, phis):
    """_resolve_phase_components as a triple loop over both whole trace
    tensors: its reference."""
    n = len(psis)
    Tpsi, Tphi = _reference_quartic_traces(psis), _reference_quartic_traces(phis)
    lambdas = np.ones(n, dtype=complex)
    label = [-1] * n
    for root in range(n):
        if label[root] >= 0:
            continue
        label[root] = max(label) + 1
        queue = [root]
        for k in queue:
            for j in range(n):
                if label[j] >= 0:
                    continue
                for i in range(n):
                    denom = Tphi[i, j, k]
                    if abs(denom) <= states._EDGE_DENOM:
                        continue
                    ratio = Tpsi[i, j, k] / denom
                    if abs(abs(ratio) - 1.0) > states._EDGE_MODULUS:
                        continue
                    lambdas[j] = (ratio / abs(ratio)) * lambdas[k]
                    label[j] = label[k]
                    queue.append(j)
                    break
    return lambdas, np.array(label)


@pytest.fixture
def solver_calls(monkeypatch):
    """Records every pivot-route solve generic_mixed_lu runs on its eigenvector stacks."""
    calls = []
    real = states._pivot_lu

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(states, "_pivot_lu", spy)
    return calls


def _product_density(a, b, rng):
    """rho_A (x) rho_B with spectra a and b in Haar eigenbases."""
    QA, QB = haar(len(a), rng), haar(len(b), rng)
    return density_operator(len(a), len(b),
                            np.kron((QA * a) @ QA.conj().T, (QB * b) @ QB.conj().T))


# marginal spectra whose nine products are all distinct, so rho_A (x) rho_B is generic
SPEC_A, SPEC_B = np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.3, 0.1])


def _random_state(d1, d2, rng):
    v = ginibre(1, d1 * d2, rng).ravel()
    return pure_state(d1, d2, v / np.linalg.norm(v))


class TestVectorization:
    def test_computational_basis_state(self):
        s = pure_state(2, 2, [1, 0, 0, 0])
        M = state_to_matrix(s)
        assert np.allclose(M, [[1, 0], [0, 0]])

    def test_singlet(self):
        s = pure_state(2, 2, np.array([0, 1, -1, 0]) / np.sqrt(2))
        M = state_to_matrix(s)
        expected = np.array([[0, 1], [-1, 0]]) / np.sqrt(2)
        assert np.allclose(M, expected, atol=1e-12)

    def test_maximally_entangled_is_scaled_identity(self):
        s = pure_state(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert np.allclose(state_to_matrix(s), np.eye(2) / np.sqrt(2), atol=1e-12)

    def test_keystone_correspondence(self, rng):
        # (A (x) B)|psi> must matricize to A psi B^T: fixes every convention
        for _ in range(20):
            d1, d2 = rng.integers(2, 5, size=2)
            s = _random_state(int(d1), int(d2), rng)
            A, B = ginibre(int(d1), int(d1), rng), ginibre(int(d2), int(d2), rng)
            lhs = (np.kron(A, B) @ s.amplitudes).reshape(int(d1), int(d2))
            rhs = A @ state_to_matrix(s) @ B.T
            assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_schmidt_invariance(self, rng):
        s = _random_state(3, 4, rng)
        psi = state_to_matrix(s)
        U, V = haar(3, rng), haar(4, rng)
        assert np.max(np.abs(singular_values(psi) - singular_values(U @ psi @ V.conj().T))) <= 1e-10

    def test_normalization_warning(self):
        with pytest.warns(UserWarning):
            pure_state(1, 2, [2.0, 0.0])

    def test_rejects_zero_vector(self):
        with pytest.raises(InputError):
            pure_state(1, 2, [0.0, 0.0])

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e-160, 1e-200])
    def test_extreme_scales_rescale_to_the_unit_state(self, scale):
        # the squares in a norm of these amplitudes overflow, or underflow in
        # part or in full, unless the norm is taken on rescaled amplitudes
        with pytest.warns(UserWarning, match="rescaling"):
            s = pure_state(2, 2, np.array([1.0, 0.0, 0.0, 1.0j]) * scale)
        np.testing.assert_allclose(s.amplitudes, np.array([1.0, 0.0, 0.0, 1.0j]) / np.sqrt(2),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_extreme_scales_keep_the_schmidt_rank(self, scale):
        with pytest.warns(UserWarning):
            bell = pure_state(2, 2, np.array([1.0, 0.0, 0.0, 1.0]) * scale)
            product = pure_state(2, 2, np.array([1.0, 0.0, 0.0, 0.0]) * scale)
        verdict = simultaneous_lu_pure([bell], [product], CFG)
        assert (verdict.verdict, verdict.certainty) == ("NO", "exact")
        assert verdict.detail == "singular values differ at pair index 0"


class TestDensityOperator:
    def test_valid_density(self, rng):
        random_density(2, 2, rng)  # raises on violation

    def test_rejects_traceless(self):
        with pytest.raises(InputError):
            density_operator(1, 2, np.diag([0.7, 0.7]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            density_operator(1, 2, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            density_operator(1, 2, np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("b", [1e160, 1e200])
    def test_rejects_a_huge_antihermitian_part(self, b):
        # both Frobenius norms of the check overflow from about 1e154 on
        M = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        M[0, 1], M[1, 0] = b, -b
        with pytest.raises(InputError, match="density matrix is not Hermitian"):
            density_operator(2, 2, M)


class TestSimultaneousLuPure:
    def test_identical_lists(self, rng):
        states = [_random_state(2, 3, rng) for _ in range(3)]
        verdict = simultaneous_lu_pure(states, states, CFG)
        assert verdict.verdict == "YES"
        assert verdict.residual <= 1e-8

    def test_schmidt_mismatch_is_exact_no(self):
        a = pure_state(2, 2, [1, 0, 0, 0])                          # product state
        b = pure_state(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))   # maximally entangled
        verdict = simultaneous_lu_pure([a], [b], CFG)
        assert verdict.verdict == "NO" and verdict.certainty == "exact"

    @pytest.mark.parametrize("seed", range(5))
    def test_planted_local_unitaries(self, seed):
        rng = np.random.default_rng(seed)
        d1, d2 = 2, 3
        U0, V0 = haar(d1, rng), haar(d2, rng)
        local = np.kron(U0, V0)
        states_in = [_random_state(d1, d2, rng) for _ in range(4)]
        states_out = [pure_state(d1, d2, local @ s.amplitudes) for s in states_in]
        verdict = simultaneous_lu_pure(states_in, states_out, SamplerConfig(seed=seed))
        assert verdict.verdict == "YES"
        got = np.kron(verdict.U, verdict.V)
        assert max(np.linalg.norm(got @ si.amplitudes - so.amplitudes)
                   for si, so in zip(states_in, states_out)) <= 1e-8

    def test_rejects_mismatched_lengths(self, rng):
        s = _random_state(2, 2, rng)
        with pytest.raises(InputError):
            simultaneous_lu_pure([s], [s, s], CFG)

    def test_rejects_other_output_dimensions(self, rng):
        with pytest.raises(InputError, match=r"^input dimensions \(2, 2\) differ from output "
                                             r"dimensions \(2, 3\)$"):
            simultaneous_lu_pure([_random_state(2, 2, rng)], [_random_state(2, 3, rng)], CFG)


class TestUnilocalMixed:
    def test_maximally_mixed(self):
        d1, d2 = 2, 2
        rho = density_operator(d1, d2, np.eye(4) / 4.0)
        verdict = unilocal_mixed_equivalence([rho], [rho], CFG)
        assert verdict.verdict == "YES"
        assert np.linalg.norm(verdict.U.conj().T @ verdict.U - np.eye(d1)) <= 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_unilocal_unitary(self, seed):
        rng = np.random.default_rng(seed + 200)
        d1, d2 = 2, 2
        U0 = haar(d1, rng)
        big = np.kron(U0, np.eye(d2))
        rhos = [random_density(d1, d2, rng) for _ in range(3)]
        sigmas = [density_operator(d1, d2, big @ r.matrix @ big.conj().T) for r in rhos]
        verdict = unilocal_mixed_equivalence(rhos, sigmas, SamplerConfig(seed=seed))
        assert verdict.verdict == "YES"
        assert verdict.residual <= 1e-8
        assert verdict.aux["uv_gap"] <= 1e-7

    @pytest.mark.parametrize("d1", (1, 2, 3))
    @pytest.mark.parametrize("d2", (1, 2, 3))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_realigned_blocks_match_the_factor_algebra_system(self, d1, d2, k):
        """The factor-algebra route {M (x) I} on (d1 d2)-dimensional pairs is kept
        here as the reference: the realigned d1 x d1 system, on (I, I) and
        all blocks and on their spanning pairs, has the same solution
        dimension, and the verdict is YES exactly on planted cases."""
        rng = np.random.default_rng(1000 + 100 * d1 + 10 * d2 + k)
        rhos = [random_density(d1, d2, rng) for _ in range(k)]
        cases = {"yes": np.kron(haar(d1, rng), np.eye(d2))}
        if d2 > 1:  # I (x) V with d2 = 1 is a phase, which every U matches
            cases["ixv-no"] = np.kron(np.eye(d1), haar(d2, rng))
        for kind, big in cases.items():
            sigmas = [density_operator(d1, d2, big @ r.matrix @ big.conj().T) for r in rhos]
            self._check_against_factor_route(rhos, sigmas, kind == "yes")
        if d1 * d2 > 1:
            sigmas = [random_density(d1, d2, rng) for _ in range(k)]
            self._check_against_factor_route(rhos, sigmas, False)

    @staticmethod
    def _check_against_factor_route(rhos, sigmas, planted):
        d1, d2 = rhos[0].d1, rhos[0].d2
        d = d1 * d2
        R, S = _realigned_blocks(np.stack([(r.matrix, s.matrix) for r, s in zip(rhos, sigmas)]),
                                 (d1, d2), (d1, d2)).transpose(1, 0, 2, 3)
        assert R.shape == S.shape == (len(rhos) * d2 * d2, d1, d1)
        eye1 = np.eye(d1, dtype=complex)[None]
        blocks = ((eye1[0], eye1[0]),) + tuple(zip(R, S))
        spanning = tuple(map(tuple, _spanning_pairs(np.stack([np.concatenate([eye1, R]),
                                                              np.concatenate([eye1, S])], axis=1))))
        assert len(spanning) == min(1 + len(R), 2 * d1 * d1)
        eye = np.eye(d, dtype=complex)
        G = factor_algebra(d1, d2)
        factor = build_linear_system(UepInstance(
            d, d, tuple((r.matrix, s.matrix) for r, s in zip(rhos, sigmas)) + ((eye, eye),), G, G))
        expected = solve_solution_space(factor).dimension
        for pairs in (blocks, spanning):
            realigned = build_linear_system(uep_instance_full(d1, d1, pairs))
            assert solve_solution_space(realigned).dimension == expected
        verdict = unilocal_mixed_equivalence(rhos, sigmas, CFG)
        assert verdict.verdict == ("YES" if planted else "NO")
        if planted:
            assert verdict.residual <= 1e-8 and verdict.aux["uv_gap"] <= 1e-7

    def test_spectrum_mismatch_is_exact_no(self, rng):
        rho = density_operator(2, 2, np.diag([0.4, 0.3, 0.2, 0.1]))
        sigma = density_operator(2, 2, np.diag([0.7, 0.1, 0.1, 0.1]))
        verdict = unilocal_mixed_equivalence([rho], [sigma], CFG)
        assert verdict.verdict == "NO" and verdict.certainty == "exact"
        assert verdict.detail == "rho_0 vs sigma_0: singular values differ"

    def test_block_mismatch_names_the_state_and_block(self, rng):
        # I (x) V keeps every spectrum of rho_1 but not of its blocks
        rhos = [random_density(2, 3, rng) for _ in range(2)]
        W = np.kron(np.eye(2), haar(3, rng))
        sigmas = [rhos[0], density_operator(2, 3, W @ rhos[1].matrix @ W.conj().T)]
        verdict = unilocal_mixed_equivalence(rhos, sigmas, CFG)
        assert verdict.verdict == "NO" and verdict.certainty == "exact"
        assert verdict.detail.startswith("block (") and "of rho_1 vs sigma_1" in verdict.detail

    def test_no_with_every_spectrum_kept_is_the_pivots(self, rng):
        # each rho_i conjugated by its own U_i (x) I keeps the spectra of rho_i
        # and of its blocks, so nothing explains the pivot route's NO further
        rhos = [random_density(2, 3, rng) for _ in range(2)]
        bigs = [np.kron(haar(2, rng), np.eye(3)) for _ in rhos]
        sigmas = [density_operator(2, 3, W @ r.matrix @ W.conj().T) for W, r in zip(bigs, rhos)]
        verdict = unilocal_mixed_equivalence(rhos, sigmas, CFG)
        assert (verdict.verdict, verdict.certainty) == ("NO", "exact")
        assert verdict.detail == ("singular values differ at the random pivot pair "
                                  "sum_i c_i (X_i, Y_i)")

    def test_mixed_dimensions_are_rejected(self, rng):
        rho, other = random_density(2, 2, rng), random_density(2, 3, rng)
        with pytest.raises(InputError, match=r"^density operators have mixed dimensions: "
                                             r"\[\(2, 2\), \(2, 3\)\]$"):
            unilocal_mixed_equivalence([rho, other], [rho, other], CFG)


def _aligned(psis, phis):
    """phis rescaled by the resolved phases; the trace graph must be connected."""
    lambdas, label = _resolve_phase_components(psis, phis)
    assert label.tolist() == [0] * len(psis)
    return [lam * phi for lam, phi in zip(lambdas, phis)]


def _matches_reference(psis, phis):
    """The search's labels, once they equal the reference's and its phases lie
    within 1e-10 of the reference's."""
    lambdas, label = _resolve_phase_components(psis, phis)
    ref_lambdas, ref_label = _reference_phase_components(psis, phis)
    assert label.tolist() == ref_label.tolist()
    assert np.abs(lambdas - ref_lambdas).max() <= 1e-10
    return label


def _eigenvector_stacks(rho, sigma):
    """The matricized eigenvectors of rho's nonzero eigenvalues and sigma's
    first as many, stacked as generic_mixed_lu stacks them."""
    (w_r, Q_r), (_, Q_s) = (hermitian_eigendecomposition(r.matrix) for r in (rho, sigma))
    n = int(np.count_nonzero(w_r > Tolerances().residual_abs))
    return [Q[:, :n].T.reshape(n, rho.d1, rho.d2) for Q in (Q_r, Q_s)]


class TestPhaseResolution:
    def test_identity_transformation(self, rng):
        psis = [ginibre(2, 3, rng) for _ in range(4)]
        aligned = _aligned(psis, psis)
        for a, p in zip(aligned, psis):
            assert np.linalg.norm(a - p) <= 1e-10

    def test_recovers_known_phases(self, rng):
        psis = [ginibre(2, 3, rng) for _ in range(5)]
        thetas = rng.uniform(0, 2 * np.pi, size=5)
        phis = [np.exp(1j * t) * p for t, p in zip(thetas, psis)]
        aligned = _aligned(psis, phis)
        # gauge-fixed to the first state: aligned must equal psis up to one
        # global phase shared by all entries
        g = np.vdot(psis[0].ravel(), aligned[0].ravel())
        g /= abs(g)
        for a, p in zip(aligned, psis):
            assert np.linalg.norm(a - g * p) <= 1e-8

    def test_quartic_trace_identity(self, rng):
        # the gauge invariant behind the resolution procedure, and the phases
        # the search reads from it, gauged to 1 at index 0
        psis = [ginibre(2, 2, rng) for _ in range(3)]
        lam = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
        phis = [l * p for l, p in zip(lam, psis)]
        Tpsi, Tphi = _reference_quartic_traces(psis), _reference_quartic_traces(phis)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    if abs(Tpsi[i, j, k]) > 1e-6:
                        ratio = Tpsi[i, j, k] / Tphi[i, j, k]
                        assert abs(ratio - lam[k] * np.conj(lam[j])) <= 1e-8
        lambdas, label = _resolve_phase_components(psis, phis)
        assert label.tolist() == [0, 0, 0]
        assert np.abs(lambdas - lam[0] * lam.conj()).max() <= 1e-8

    @pytest.mark.parametrize("shape", [(1, 1, 1), (4, 2, 2), (9, 3, 3), (16, 4, 4), (6, 2, 3),
                                       (12, 4, 3)],
                             ids=lambda s: f"n={s[0]},{s[1]}x{s[2]}")
    def test_search_matches_the_reference_on_connected_families(self, shape, rng):
        # m_j against U m_j V^dag at random phases: one component
        n, d1, d2 = shape
        psis = np.stack([ginibre(d1, d2, rng) for _ in range(n)])
        lam = np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
        phis = lam[:, None, None] * (haar(d1, rng) @ psis @ haar(d2, rng).conj().T)
        assert _matches_reference(psis, phis).tolist() == [0] * n

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family, components", [("classical-quantum 2x2", 4),
                                                    ("classical-quantum 2x3", 6),
                                                    ("Bell-diagonal", 4)])
    def test_search_matches_the_reference_on_disconnected_families(self, family, components,
                                                                   seed):
        rng = np.random.default_rng(seed)
        if family == "Bell-diagonal":
            pair = _bell_diagonal_pair(rng)
        else:
            weights = (((0.7, 0.3), (0.85, 0.15)) if family.endswith("2x2")
                       else ((0.5, 0.3, 0.2), (0.6, 0.25, 0.15)))
            pair = _classical_quantum_pair(rng, weights)
        assert _matches_reference(*_eigenvector_stacks(*pair)).max() + 1 == components

    def test_disconnected_graph_splits_into_components(self):
        # orthogonal supports: every cross trace vanishes
        psis = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        assert _matches_reference(psis, psis).tolist() == [0, 1]

    def test_edge_needs_a_ratio_of_unit_modulus(self, rng):
        # phi_1 = 2 psi_1 scales every trace ratio across the two indices by
        # 1/2 or 1/8: no edge is usable, and each index is its own component
        a, b = ginibre(2, 2, rng), ginibre(2, 2, rng)
        assert _matches_reference([a, b], [a, b]).tolist() == [0, 0]
        assert _matches_reference([a, b], [a, 2 * b]).tolist() == [0, 1]

    def test_a_16x16_graph_resolves_in_bounded_memory(self):
        # 256 eigenvector pairs of 16 x 16: the whole trace tensors and their
        # n x n x d2^2 factors took about 1 GB, one source's column takes a few MB
        rng = np.random.default_rng(16)
        rho = random_density(16, 16, rng)
        U, V = haar(16, rng), haar(16, rng)
        psis, phis = _eigenvector_stacks(
            rho, density_operator(16, 16, np.kron(U, V) @ rho.matrix @ np.kron(U, V).conj().T))
        tracemalloc.start()
        try:
            lambdas, label = _resolve_phase_components(psis, phis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert label.tolist() == [0] * 256
        # U psi_j V^T = c lam_j phi_j for one phase c, the gauge at index 0
        aligned, moved = lambdas[:, None, None] * phis, U @ psis @ V.T
        c = np.vdot(aligned[0], moved[0])
        assert abs(abs(c) - 1.0) <= 1e-8 and np.abs(moved - c * aligned).max() <= 1e-8

    def test_end_to_end_rephased_transform(self, rng):
        d1, d2 = 2, 2
        U0, V0 = haar(d1, rng), haar(d2, rng)
        psis = [ginibre(d1, d2, rng) for _ in range(4)]
        lam = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        phis = [U0 @ p @ V0.conj().T / l for p, l in zip(psis, lam)]
        aligned = _aligned(psis, phis)
        verdict = _pivot_lu(np.stack([psis, aligned], axis=1), CFG, Tolerances())
        assert verdict.verdict == "YES"
        for p, a in zip(psis, aligned):
            assert np.linalg.norm(verdict.U @ p @ verdict.V.T - a) <= 1e-8


def _classical_quantum_pair(rng, weights=((0.7, 0.3), (0.85, 0.15))):
    """|0><0| (x) rho_1 + |1><1| (x) rho_2 on 2 x d2, with rho_1, rho_2 of the
    spectra `weights` in Haar eigenbases, and its (U (x) V) conjugate: every
    eigenvector is a product vector, so the trace graph has 2 d2 components,
    and the phases the conjugate needs are not quarter turns."""
    d2 = len(weights[0])
    rho = np.zeros((2 * d2, 2 * d2), dtype=complex)
    for block, p, w in zip((slice(0, d2), slice(d2, 2 * d2)), (0.6, 0.4), weights):
        Q = haar(d2, rng)
        rho[block, block] = p * (Q * w) @ Q.conj().T
    rho = density_operator(2, d2, rho)
    local = np.kron(haar(2, rng), haar(d2, rng))
    return rho, density_operator(2, d2, local @ rho.matrix @ local.conj().T)


class TestGenericMixed:
    def test_same_state(self, rng):
        rho = random_density(2, 2, rng, min_gap=1e-3)
        verdict = generic_mixed_lu(rho, rho, CFG)
        assert verdict.verdict == "YES"
        assert verdict.residual <= 1e-7

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_planted_product_unitary(self, dims):
        d1, d2 = dims
        rng = np.random.default_rng(d1 * 100 + d2)
        rho = random_density(d1, d2, rng, min_gap=1e-3)
        local = np.kron(haar(d1, rng), haar(d2, rng))
        sigma = density_operator(d1, d2, local @ rho.matrix @ local.conj().T)
        verdict = generic_mixed_lu(rho, sigma, SamplerConfig(seed=d1 + d2))
        assert verdict.verdict == "YES"
        got = np.kron(verdict.U, verdict.V)
        assert np.linalg.norm(got @ rho.matrix @ got.conj().T - sigma.matrix) <= 1e-7

    def test_perturbed_spectrum_is_exact_no(self, rng):
        d1 = d2 = 2
        rho = random_density(d1, d2, rng, min_gap=1e-3)
        w, Q = np.linalg.eigh(rho.matrix)
        w = np.sort(w)[::-1]
        w2 = w.copy()
        w2[0] += 1e-3
        w2[-1] -= 1e-3  # keep the trace at 1
        Qd = Q[:, ::-1]
        sigma = density_operator(d1, d2, (Qd * w2) @ Qd.conj().T)
        verdict = generic_mixed_lu(rho, sigma, CFG)
        assert verdict.verdict == "NO" and verdict.certainty == "exact"

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)], ids=["2x2", "2x3"])
    def test_global_unitary_is_exact_no_before_any_solve(self, dims, solver_calls):
        # same spectrum, but a global unitary changes the Schmidt coefficients
        # of the eigenvectors, which no phase can restore
        d1, d2 = dims
        rng = np.random.default_rng(d1 * 10 + d2)
        rho = random_density(d1, d2, rng, min_gap=1e-3)
        W = haar(d1 * d2, rng)
        sigma = density_operator(d1, d2, W @ rho.matrix @ W.conj().T)
        verdict = generic_mixed_lu(rho, sigma, CFG)
        assert (verdict.verdict, verdict.certainty) == ("NO", "exact")
        assert "Schmidt coefficients of eigenvector" in verdict.detail
        assert verdict.aux == {"phase_components": 0, "grid_solves": 0}
        assert not solver_calls

    def test_connected_graph_takes_one_solve(self, rng, solver_calls):
        rho = random_density(2, 3, rng, min_gap=1e-3)
        local = np.kron(haar(2, rng), haar(3, rng))
        sigma = density_operator(2, 3, local @ rho.matrix @ local.conj().T)
        verdict = generic_mixed_lu(rho, sigma, CFG)
        assert verdict.verdict == "YES"
        # the inner solve's pivot fields ride along with the phase counts
        assert verdict.aux == {"phase_components": 1, "grid_solves": 1,
                               "pivot_clusters": [2, 3], "pivot_merged_gap": 0.0,
                               "pivot_split_gap": verdict.aux["pivot_split_gap"],
                               "pivot_unknowns": verdict.aux["pivot_unknowns"],
                               "pivot_free_units": verdict.aux["pivot_free_units"],
                               "pivot_coupling_margin": verdict.aux["pivot_coupling_margin"]}
        assert verdict.aux["pivot_split_gap"] > 1e-6
        assert len(solver_calls) == 1

    def test_a_24x24_planted_yes_decides_a_verified_yes(self, solver_calls):
        # 576 eigenvector pairs: the whole trace tensors would take about 9 GB
        rng = np.random.default_rng(24)
        rho = random_density(24, 24, rng, min_gap=1e-3)
        local = np.kron(haar(24, rng), haar(24, rng))
        sigma = density_operator(24, 24, local @ rho.matrix @ local.conj().T)
        verdict = generic_mixed_lu(rho, sigma, CFG)
        assert verdict.verdict == "YES" and verdict.aux["phase_components"] == 1
        assert max(certificate_residuals("generic-mixed", (rho, sigma),
                                         verdict.U, verdict.V)) <= 1e-8
        assert len(solver_calls) == 1

    def test_product_states_decided_from_marginals(self, rng, solver_calls):
        rho = _product_density(SPEC_A, SPEC_B, rng)
        local = np.kron(haar(3, rng), haar(3, rng))
        sigma = density_operator(3, 3, local @ rho.matrix @ local.conj().T)
        verdict = generic_mixed_lu(rho, sigma, CFG)
        assert (verdict.verdict, verdict.certainty) == ("YES", "exact")
        got = np.kron(verdict.U, verdict.V)
        assert np.linalg.norm(got @ rho.matrix @ got.conj().T - sigma.matrix) <= 1e-8
        assert verdict.aux == {"phase_components": 0, "grid_solves": 0}
        assert not solver_calls

    @pytest.mark.parametrize("product_first", [True, False])
    def test_product_against_non_product_is_exact_no(self, rng, solver_calls, product_first):
        rho = _product_density(SPEC_A, SPEC_B, rng)
        W = haar(9, rng)
        entangled = density_operator(3, 3, W @ rho.matrix @ W.conj().T)  # same spectrum
        pair = (rho, entangled) if product_first else (entangled, rho)
        verdict = generic_mixed_lu(*pair, CFG)
        assert (verdict.verdict, verdict.certainty) == ("NO", "exact")
        assert "product state" in verdict.detail
        assert not solver_calls

    def test_product_states_with_swapped_marginals_are_exact_no(self, rng, solver_calls):
        # rho_A (x) rho_B and rho_B (x) rho_A share the spectrum but not the marginals
        verdict = generic_mixed_lu(_product_density(SPEC_A, SPEC_B, rng),
                                   _product_density(SPEC_B, SPEC_A, rng), CFG)
        assert (verdict.verdict, verdict.certainty) == ("NO", "exact")
        assert "subsystem A" in verdict.detail
        assert not solver_calls

    def test_exhausted_grid_is_a_fresh_inconclusive(self, rng, solver_calls):
        verdict = generic_mixed_lu(*_classical_quantum_pair(rng), CFG)
        assert (verdict.verdict, verdict.certainty) == ("INCONCLUSIVE", "probabilistic")
        assert verdict.solution_dimension is None
        assert verdict.U is None and verdict.V is None
        assert verdict.aux == {"phase_components": 4, "grid_solves": 64}
        assert len(solver_calls) == 64

    def test_phase_grid_finds_the_missing_phases(self, rng, solver_calls):
        # I (x) Z keeps every product eigenvector up to a sign, a quarter turn
        # of index 0 or 2; the first hit is the smallest combo in order
        rho, _ = _classical_quantum_pair(rng)
        flip = np.kron(np.eye(2), np.diag([1.0, -1.0]))
        sigma = density_operator(2, 2, flip @ rho.matrix @ flip)
        verdict = generic_mixed_lu(rho, sigma, CFG)
        assert len(solver_calls) == 11
        assert verdict.verdict == "YES" and verdict.residual <= 1e-8
        assert list(verdict.aux) == ["pivot_clusters", "pivot_merged_gap", "pivot_split_gap",
                                     "pivot_unknowns", "pivot_free_units",
                                     "pivot_coupling_margin", "phase_grid_combo",
                                     "phase_components", "grid_solves"]
        assert verdict.aux["phase_grid_combo"] == (0, 2, 2)
        assert (verdict.aux["phase_components"], verdict.aux["grid_solves"]) == (4, 11)

    @pytest.mark.parametrize("swap, subsystem", [(False, "B"), (True, "A")])
    def test_marginal_spectra_decide_a_disconnected_graph(self, solver_calls, swap, subsystem):
        # equal spectra and product eigenvectors, so the Schmidt test passes and
        # the phase graph splits into 4 components; neither state is a product
        # state, but tr_A rho has spectrum (0.6, 0.4) and tr_A sigma (0.571, 0.429)
        e0, e1 = np.eye(2)
        plus, minus = (e0 + e1) / np.sqrt(2), (e0 - e1) / np.sqrt(2)

        def mixture(vectors):
            M = sum(w * np.outer(np.kron(a, b), np.kron(a, b))
                    for w, (a, b) in zip([0.4, 0.3, 0.2, 0.1], vectors))
            return density_operator(2, 2, M[np.ix_([0, 2, 1, 3], [0, 2, 1, 3])] if swap else M)

        rho = mixture([(e0, e0), (e0, e1), (e1, e0), (e1, e1)])
        sigma = mixture([(e0, e0), (e0, e1), (e1, plus), (e1, minus)])
        verdict = generic_mixed_lu(rho, sigma, CFG)
        assert (verdict.verdict, verdict.certainty) == ("NO", "exact")
        assert verdict.detail == f"marginal spectra differ on subsystem {subsystem}"
        assert verdict.aux == {"phase_components": 4, "grid_solves": 0}
        assert not solver_calls

    @pytest.mark.parametrize("weights, components, solves, ended", [
        (((0.7, 0.3), (0.85, 0.15)), 4, 64, "grid of quarter turns exhausted"),
        (((0.4, 0.3, 0.2, 0.1), (0.5, 0.27, 0.16, 0.07)), 8, 1024,
         "solve budget spent after 1024 of the 4^7 grid points"),
    ], ids=["exhausted", "budget"])
    def test_grid_stops_at_the_solve_budget(self, rng, solver_calls, weights, components, solves,
                                            ended):
        # the whole grid of six components is the budget: 2x2 fits, 2x4 does not
        verdict = generic_mixed_lu(*_classical_quantum_pair(rng, weights), CFG)
        assert (verdict.verdict, verdict.certainty) == ("INCONCLUSIVE", "probabilistic")
        assert verdict.detail == (f"phase graph disconnected into {components} components; "
                                  f"{ended} without a certificate")
        assert verdict.aux == {"phase_components": components, "grid_solves": solves}
        assert len(solver_calls) == solves

    def test_mismatched_dimensions_are_rejected(self, rng):
        with pytest.raises(InputError, match="^density operators have mismatched dimensions$"):
            generic_mixed_lu(random_density(2, 2, rng), random_density(2, 3, rng), CFG)

    def test_degenerate_spectrum_rejected(self):
        rho = density_operator(2, 2, np.eye(4) / 4.0)
        with pytest.raises(NotGenericError):
            generic_mixed_lu(rho, rho, CFG)


def _orthogonal(n, rng):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _spread(n, rng):
    """n weights of sum 1, falling by at least 0.6 / (n (n + 1)) each."""
    c = np.arange(n, 0, -1) + rng.uniform(0.0, 0.4, size=n)
    return c / c.sum()


def _conjugated(d1, d2, rho, W):
    return density_operator(d1, d2, rho), density_operator(d1, d2, W @ rho @ W.conj().T)


def _bell_diagonal_pair(rng):
    """A Bell-diagonal 2x2 state of distinct weights and its U (x) conj(U)
    conjugate, for a Haar U."""
    s = np.sqrt(0.5)
    bell = np.array([[s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0]]).T
    rho = (bell * _spread(4, rng)[::-1]) @ bell.T
    U = haar(2, rng)
    return _conjugated(2, 2, rho.astype(complex), np.kron(U, U.conj()))


class TestQuarterTurnGrid:
    """States whose trace graph leaves phases open that are quarter turns:
    each took more solves on a grid of 12 points per circle than its budget
    or the bound checked here, under SamplerConfig(seed=1). The complex
    classical-quantum pair, whose phases are not, is
    TestGenericMixed::test_exhausted_grid_is_a_fresh_inconclusive."""

    def _decide(self, rho, sigma):
        verdict = generic_mixed_lu(rho, sigma, SamplerConfig(seed=1))
        if verdict.verdict == "YES":
            residual, defect = certificate_residuals("generic-mixed", (rho, sigma),
                                                     verdict.U, verdict.V)
            assert max(residual, defect) <= 1e-8
        return verdict

    @pytest.mark.parametrize("seed", [100, 101, 105])
    def test_a_real_classical_quantum_state_needs_signs_past_the_first_points(self, seed):
        # sum_i p_i |i><i| (x) Q_i diag(w_i) Q_i^T on 2x3 has six components, and
        # real O (x) O needs signs on the first free ones, beyond 12^3 points
        rng = np.random.default_rng(seed)
        rho = np.zeros((6, 6))
        for i, p in enumerate(_spread(2, rng)):
            Q = _orthogonal(3, rng)
            rho[3 * i:3 * i + 3, 3 * i:3 * i + 3] = p * (Q * _spread(3, rng)) @ Q.T
        W = np.kron(_orthogonal(2, rng), _orthogonal(3, rng))
        verdict = self._decide(*_conjugated(2, 3, rho.astype(complex), W))
        assert verdict.verdict == "YES"
        assert verdict.aux["phase_components"] == 6 and verdict.aux["grid_solves"] <= 1024

    @pytest.mark.parametrize("seed", range(100, 106))
    def test_a_bell_diagonal_state_under_u_ubar_needs_quarter_turns(self, seed):
        # U (x) conj(U) holds |Phi+> and turns the other Bell states by +-i
        # against the trace graph's gauge; a grid of signs alone misses them
        verdict = self._decide(*_bell_diagonal_pair(np.random.default_rng(seed)))
        assert verdict.verdict == "YES"
        assert verdict.aux["phase_components"] == 4 and verdict.aux["grid_solves"] <= 64
        assert 1 in verdict.aux["phase_grid_combo"]


def _rank_deficient_density(d1, d2, rank, rng):
    """A density operator of the given rank whose nonzero eigenvalues lie at
    least 1.2 / (rank (rank + 2)) apart, in a Haar eigenbasis."""
    c = np.arange(rank, 0, -1) + rng.uniform(0.0, 0.4, size=rank)
    Q = haar(d1 * d2, rng)[:, :rank]
    M = (Q * (c / c.sum())) @ Q.conj().T
    return density_operator(d1, d2, (M + M.conj().T) / 2.0)


class TestRankDeficientGenericMixed:
    """Only the nonzero eigenvalues need distinct values: the kernel of rho
    never enters (U (x) V) rho (U (x) V)^dag = sigma."""

    @pytest.mark.parametrize("d1, d2, rank", [(d1, d2, r) for d1, d2 in ((2, 2), (2, 3), (3, 3))
                                              for r in range(1, d1 * d2 - 1)])
    def test_planted_yes_at_every_rank(self, d1, d2, rank):
        rng = np.random.default_rng(7000 + 100 * d1 + 10 * d2 + rank)
        rho = _rank_deficient_density(d1, d2, rank, rng)
        local = np.kron(haar(d1, rng), haar(d2, rng))
        sigma = density_operator(d1, d2, local @ rho.matrix @ local.conj().T)
        verdict = generic_mixed_lu(rho, sigma, CFG)
        assert verdict.verdict == "YES"
        assert verdict.aux["phase_components"] == verdict.aux["grid_solves"] == 1
        residual, defect = certificate_residuals("generic-mixed", (rho, sigma),
                                                 verdict.U, verdict.V)
        assert residual == verdict.residual and max(residual, defect) <= 1e-8

    def test_different_schmidt_coefficients_are_exact_no(self, rng):
        rho = _rank_deficient_density(2, 3, 3, rng)
        W = haar(6, rng)  # a global unitary keeps the spectrum, not the Schmidt coefficients
        verdict = generic_mixed_lu(rho, density_operator(2, 3, W @ rho.matrix @ W.conj().T), CFG)
        assert (verdict.verdict, verdict.certainty) == ("NO", "exact")
        assert "Schmidt coefficients of eigenvector" in verdict.detail

    @pytest.mark.parametrize("ranks", [(2, 3), (3, 2), (4, 6)])
    def test_different_support_ranks_are_exact_no(self, ranks, rng):
        rho, sigma = (_rank_deficient_density(2, 3, r, rng) for r in ranks)
        verdict = generic_mixed_lu(rho, sigma, CFG)
        assert (verdict.verdict, verdict.certainty, verdict.detail) == (
            "NO", "exact", "eigenvalue spectra differ")

    @pytest.mark.parametrize("repeated_in", ["rho", "sigma"])
    def test_close_nonzero_eigenvalues_still_raise(self, repeated_in, rng):
        # rank 2, the nonzero eigenvalues 5e-9 apart in one of the two states
        Q = haar(4, rng)
        repeated, distinct = ((Q * w) @ Q.conj().T
                              for w in ([0.5 + 2.5e-9, 0.5 - 2.5e-9, 0, 0], [0.6, 0.4, 0, 0]))
        pair = (repeated, distinct) if repeated_in == "rho" else (distinct, repeated)
        with pytest.raises(NotGenericError, match=f"^{repeated_in} has nonzero eigenvalues"):
            generic_mixed_lu(*(density_operator(2, 2, M) for M in pair), CFG)

    @pytest.mark.parametrize("banded_in", ["rho", "sigma"])
    def test_eigenvalues_straddling_the_cut_still_raise(self, banded_in, rng):
        # two eigenvalues 1e-12 apart on either side of residual_abs = 1e-8:
        # eigh mixes their eigenvectors by about 1e-16 / 1e-12, so a planted
        # conjugate would fail the Schmidt test instead of deciding YES
        Q = haar(4, rng)
        banded = (Q * [0.6 - 2e-8, 0.4, 1e-8 + 5e-13, 1e-8 - 5e-13]) @ Q.conj().T
        local = np.kron(haar(2, rng), haar(2, rng))
        if banded_in == "rho":
            pair = (banded, local @ banded @ local.conj().T)
        else:  # rho's spectrum matches within residual_abs, its gaps do not
            pair = ((Q * [0.6 - 2e-8, 0.4, 2e-8, 0.0]) @ Q.conj().T, banded)
        with pytest.raises(NotGenericError, match=f"^{banded_in} has nonzero eigenvalues"):
            generic_mixed_lu(*(density_operator(2, 2, M) for M in pair), CFG)


@pytest.mark.parametrize("mode", ["pure-sets", "generic-mixed"])
def test_state_nos_at_index_one_go_through_the_solver_prefilter(mode, monkeypatch):
    # the perfbench recorder wraps uniequiv.solver.singular_value_prefilter, so
    # the state modes compare singular values through that name only
    calls = []
    real = solver_mod.singular_value_prefilter

    def spy(pairs, tol=Tolerances()):
        calls.append(len(pairs))
        return real(pairs, tol)

    monkeypatch.setattr(solver_mod, "singular_value_prefilter", spy)
    ket00 = np.eye(4)[0]
    if mode == "pure-sets":
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        verdict = simultaneous_lu_pure(*([pure_state(2, 2, v) for v in side]
                                         for side in ([bell, ket00], [bell, bell])), CFG)
        detail = "singular values differ at pair index 1"
    else:
        # 0.6 |00><00| + 0.4 |psi><psi| for |Psi+> against cos t |01> + sin t |10>:
        # equal spectra, and |00> in both, so only the second eigenvector's
        # Schmidt coefficients (1, 1) / sqrt(2) and (cos t, sin t) differ
        t = np.pi / 8
        rho, sigma = (density_operator(2, 2, 0.6 * np.outer(ket00, ket00) + 0.4 * np.outer(v, v))
                      for v in (np.array([0, 1, 1, 0]) / np.sqrt(2),
                                np.array([0, np.cos(t), np.sin(t), 0])))
        verdict = generic_mixed_lu(rho, sigma, CFG)
        detail = "Schmidt coefficients of eigenvector 1 differ"
    assert (verdict.verdict, verdict.certainty, verdict.detail) == ("NO", "exact", detail)
    assert calls == [2]


@pytest.mark.parametrize("mode", ["pairs-full", "pairs-factor", "pure-sets", "unilocal-mixed",
                                  "generic-mixed", "matpoly"])
def test_a_planted_yes_compares_no_singular_values(mode, monkeypatch, rng):
    # on every pivot route the solve decides and singular values only word a
    # non-YES, so a planted YES never reaches singular_value_prefilter: nor
    # does a connected generic-mixed YES, and a matpoly YES never compares
    # coefficient ranks
    calls = []
    real = solver_mod.singular_value_prefilter

    def spy(pairs, tol=Tolerances()):
        calls.append(len(pairs))
        return real(pairs, tol)

    def no_ranks(*args):
        calls.append("ranks")

    monkeypatch.setattr(solver_mod, "singular_value_prefilter", spy)
    if mode == "generic-mixed":
        rho = random_density(2, 3, rng, min_gap=1e-3)
        local = np.kron(haar(2, rng), haar(3, rng))
        sigma = density_operator(2, 3, local @ rho.matrix @ local.conj().T)
        verdict = generic_mixed_lu(rho, sigma, CFG)
        assert (verdict.aux["phase_components"], verdict.aux["grid_solves"]) == (1, 1)
    elif mode == "matpoly":
        monkeypatch.setattr(solver_mod, "_rank_no", no_ranks)
        A, B = (ginibre(d, d, rng) + 2 * np.eye(d) for d in (3, 4))
        P = [ginibre(3, 4, rng) for _ in range(3)]
        Q = [A @ X @ np.linalg.inv(B) for X in P]
        verdict = decide_invertible_equivalence(MatrixPolynomial(tuple(P)),
                                                MatrixPolynomial(tuple(Q)), CFG)
    elif mode.startswith("pairs"):
        kinds = ["full", "full"] if mode == "pairs-full" else [("factor", 2, 2), ("factor", 3, 2)]
        verdict = decide_uep(random_yes_instance(4, 6, 2, *kinds, seed=3)[0], CFG)
    elif mode == "pure-sets":
        U, V = haar(2, rng), haar(3, rng)
        psis = [M / np.linalg.norm(M) for M in (ginibre(2, 3, rng) for _ in range(2))]
        verdict = simultaneous_lu_pure(*([pure_state(2, 3, M.ravel()) for M in side]
                                         for side in (psis, [U @ M @ V.T for M in psis])), CFG)
    else:
        rhos = [random_density(2, 3, rng) for _ in range(2)]
        big = np.kron(haar(2, rng), np.eye(3))
        verdict = unilocal_mixed_equivalence(
            rhos, [density_operator(2, 3, big @ r.matrix @ big.conj().T) for r in rhos], CFG)
    assert verdict.verdict == "YES"
    assert calls == []
