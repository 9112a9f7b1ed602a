"""Property-based invariances of decide_uep on small full and factor instances."""

import numpy as np
from hypothesis import given, settings, strategies as st

from uniequiv import SamplerConfig, UepInstance, decide_uep
from uniequiv.oracle import haar_unitary_in_algebra, random_yes_instance

SETTINGS = settings(max_examples=25, deadline=None)


def _with_pairs(inst, pairs):
    return UepInstance(d1=inst.d1, d2=inst.d2, pairs=tuple(pairs), G1=inst.G1, G2=inst.G2)


def _algebra_unitaries(inst, rng):
    return haar_unitary_in_algebra(inst.G1, rng), haar_unitary_in_algebra(inst.G2, rng)


@st.composite
def instances(draw):
    """A planted YES instance, or a NO one whose last pair is regauged by its
    own unitaries (the singular values still match, so the solver decides)."""
    seed = draw(st.integers(0, 2**16))
    g1_kind = draw(st.sampled_from(["full", ("factor", 2, 2)]))
    d1 = 4 if g1_kind != "full" else draw(st.integers(1, 4))
    d2 = draw(st.integers(1, 4))
    m = draw(st.integers(0, 2))
    inst, _ = random_yes_instance(d1, d2, m, g1_kind=g1_kind, seed=seed)
    if m and draw(st.booleans()):
        U, V = _algebra_unitaries(inst, np.random.default_rng(seed))
        X, Y = inst.pairs[-1]
        inst = _with_pairs(inst, inst.pairs[:-1] + ((X, U @ Y @ V.conj().T),))
    return inst, seed


def _assert_same_decision(inst, other, seed):
    cfg = SamplerConfig(seed=seed)
    v1, v2 = decide_uep(inst, cfg), decide_uep(other, cfg)
    assert v1.verdict == v2.verdict
    assert v1.solution_dimension == v2.solution_dimension


@SETTINGS
@given(instances(), st.integers(0, 2**16))
def test_invariant_under_unitaries_of_the_algebras(case, unitary_seed):
    # (A, B) solves the system for Y_i exactly when (U1 A, V1 B) does for U1 Y_i V1^dag
    inst, seed = case
    U1, V1 = _algebra_unitaries(inst, np.random.default_rng(unitary_seed))
    moved = _with_pairs(inst, ((X, U1 @ Y @ V1.conj().T) for X, Y in inst.pairs))
    _assert_same_decision(inst, moved, seed)


@SETTINGS
@given(instances(), st.data())
def test_invariant_under_pair_permutation(case, data):
    inst, seed = case
    order = data.draw(st.permutations(range(len(inst.pairs))))
    _assert_same_decision(inst, _with_pairs(inst, (inst.pairs[i] for i in order)), seed)


@SETTINGS
@given(instances(), st.floats(1 / 8, 8))
def test_invariant_under_global_scaling(case, c):
    # (A, B) solves the system for (X_i, Y_i) exactly when it does for (c X_i, c Y_i)
    inst, seed = case
    _assert_same_decision(inst, _with_pairs(inst, ((c * X, c * Y) for X, Y in inst.pairs)), seed)
