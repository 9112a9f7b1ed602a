"""Tests of the benchmark's own parts: checker, tally, spans, workloads.

Run with `PYTHONPATH=src python -m pytest perfbench` from the repository root.
"""

import json

import numpy as np
import pytest

import check
import run
import spans
import workloads
from workloads import _haar, _mat, _random_density, _vec


def _kron_doc(rng, mode):
    """(instance document, certificate) with a correct YES certificate."""
    U, V = _haar(2, rng), _haar(3, rng)
    if mode == "matrix-pairs":
        X = workloads._ginibre(2, 3, rng)
        return ({"mode": mode, "d1": 2, "d2": 3, "pairs": [{"X": _mat(X), "Y": _mat(U @ X @ V.conj().T)}]},
                (U, V))
    if mode == "factor-pairs":
        U = np.kron(_haar(2, rng), np.eye(2))
        X = workloads._ginibre(4, 4, rng)
        G = {"kind": "factor", "a": 2, "b": 2}
        return ({"mode": "matrix-pairs", "d1": 4, "d2": 4, "G1": G, "G2": G,
                 "pairs": [{"X": _mat(X), "Y": _mat(U @ X @ U.conj().T)}]}, (U, U))
    if mode == "pure-sets":
        psi = workloads._unit(workloads._ginibre(1, 6, rng).ravel())
        return ({"mode": mode, "d1": 2, "d2": 3, "states_in": [_vec(psi)],
                 "states_out": [_vec(np.kron(U, V) @ psi)]}, (U, V))
    if mode == "unilocal-mixed":
        rho = _random_density(6, rng)
        L = np.kron(U, np.eye(3))
        return ({"mode": mode, "d1": 2, "d2": 3, "rhos": [_mat(rho)],
                 "sigmas": [_mat(L @ rho @ L.conj().T)]}, (U, None))
    if mode == "generic-mixed":
        rho = _random_density(6, rng)
        L = np.kron(U, V)
        return ({"mode": mode, "d1": 2, "d2": 3, "rho": _mat(rho), "sigma": _mat(L @ rho @ L.conj().T)},
                (U, V))
    A, B = workloads._ginibre(3, 3, rng) + 2 * np.eye(3), workloads._ginibre(3, 3, rng) + 2 * np.eye(3)
    P = [workloads._ginibre(3, 3, rng) for _ in range(2)]
    return ({"mode": "matpoly", "d1": 3, "d2": 3, "P": [_mat(C) for C in P],
             "Q": [_mat(A @ C @ np.linalg.inv(B)) for C in P]}, (A, B))


def _verdict(doc, verdict, U, V):
    return json.dumps({"verdict": verdict, "mode": doc["mode"],
                       "U": None if U is None else _mat(U), "V": None if V is None else _mat(V)})


MODES = ("matrix-pairs", "factor-pairs", "pure-sets", "unilocal-mixed", "generic-mixed", "matpoly")


@pytest.mark.parametrize("mode", MODES)
def test_checker_accepts_correct_and_rejects_corrupted_or_flipped(mode):
    rng = np.random.default_rng(7)
    doc, (U, V) = _kron_doc(rng, mode)
    good = check.check(doc, "YES", _verdict(doc, "YES", U, V))
    assert good == (check.OK, "")
    bad_U = U.copy()
    bad_U[0, 0] += 1e-3
    corrupted = check.check(doc, "YES", _verdict(doc, "YES", bad_U, V))
    flipped = check.check(doc, "YES", _verdict(doc, "NO", None, None))
    assert corrupted[0] == check.FAIL and flipped[0] == check.FAIL
    inconclusive = check.check(doc, "NO", _verdict(doc, "INCONCLUSIVE", None, None))
    assert inconclusive[0] == check.INCONCLUSIVE
    # both bad answers count toward fail_ratio, the inconclusive one does not
    failed, n_inconclusive = run.tally([good, corrupted, flipped, inconclusive])
    assert (failed, n_inconclusive) == (2, 1)


def test_checker_rejects_unitary_outside_factor_algebra():
    rng = np.random.default_rng(8)
    doc, _ = _kron_doc(rng, "factor-pairs")
    W = np.kron(np.eye(2), _haar(2, rng))  # unitary, but I (x) W is not M (x) I
    X = check._mat(doc["pairs"][0]["X"])
    doc["pairs"][0]["Y"] = _mat(W @ X @ W.conj().T)
    status, reason = check.check(doc, "YES", _verdict(doc, "YES", W, W))
    assert status == check.FAIL and "M (x) I" in reason


def test_checker_rejects_malformed_documents():
    doc, _ = _kron_doc(np.random.default_rng(9), "matrix-pairs")
    assert check.check(doc, "YES", None)[0] == check.FAIL
    assert check.check(doc, "YES", "not json")[0] == check.FAIL
    assert check.check(doc, "YES", json.dumps({"verdict": "YES", "mode": "matpoly"}))[0] == check.FAIL
    assert check.check(doc, "YES", json.dumps({"verdict": "YES", "mode": "matrix-pairs"}))[0] == check.FAIL


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20)))[0] == 50
    assert run.tail_percentile(list(range(48))) == (75, 35)
    assert run.tail_percentile(list(range(200)))[0] == 95
    assert run.tail_percentile(list(range(999)))[0] == 95
    assert run.tail_percentile(list(range(1000)))[0] == 99


def test_self_time_subtracts_direct_children():
    recorded = [
        ["request", 0.0, 10.0, -1, 0],
        ["solver.decide", 1.0, 9.0, 0, 0],
        ["algebra.verify", 2.0, 5.0, 1, 0],
        ["linalg.nullspace", 5.0, 8.0, 1, 0],
        ["solver.decide", 11.0, 12.0, -1, 1],
    ]
    total, calls = spans.self_times(recorded)
    assert total["request"] == pytest.approx(2.0)
    assert total["solver.decide"] == pytest.approx(2.0 + 1.0)
    assert total["algebra.verify"] == pytest.approx(3.0)
    assert calls["solver.decide"] == 2
    assert spans.child_calls(recorded, "algebra.verify", "solver.decide") == 1


def test_workloads_are_seeded_and_keep_their_shapes():
    for name in workloads.WORKLOADS:
        a, warm_a = workloads.build(name, 3)
        b, _ = workloads.build(name, 3)
        c, _ = workloads.build(name, 4)
        assert [x.doc for x in a] == [x.doc for x in b]
        assert sorted(x.kind for x in a) == sorted(x.kind for x in c)
        assert [x.doc for x in a] != [x.doc for x in c]
        assert warm_a.label in ("YES", "NO")


def test_traced_request_is_checked_and_recorder_restores_the_package():
    worker = pytest.importorskip("worker")
    from uniequiv import solver

    original = solver.decide_uep
    recorder = spans.Recorder()
    recorder.install()
    try:
        for name in ("pairs-full", "states-small"):
            _, warm = workloads.build(name, 5)
            out = recorder.call("request", worker.decide_text, json.dumps(warm.doc), 1)
            assert check.check(warm.doc, warm.label, out) == (check.OK, "")
    finally:
        recorder.uninstall()
    assert solver.decide_uep is original
    assert not recorder.missing
    names = {s[0] for s in recorder.spans}
    assert {"request", "serialize.parse", "serialize.dump", "algebra.verify", "solver.decide",
            "linalg.nullspace", "states.reduce"} <= names
