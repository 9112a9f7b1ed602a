"""Independent checker for verdict documents.

It reads the serialized verdict and the instance document with plain numpy,
shares no code with `uniequiv`, compares the verdict with the case's label
and re-checks every YES certificate for its mode:

- unitarity (and, over a factor algebra, membership U = M (x) I_b);
- matrix-pairs: U X_i V^dag = Y_i;
- pure-sets: (U (x) V) psi_i = phi_i;
- unilocal-mixed: (U (x) I) rho_i (U (x) I)^dag = sigma_i;
- generic-mixed: (U (x) V) rho (U (x) V)^dag = sigma;
- matpoly: A P_i B^-1 = Q_i with A, B invertible.

A verdict contrary to the label, a malformed document or a certificate
that fails counts as a failure. INCONCLUSIVE is not a failure; it is
counted on its own.
"""

from __future__ import annotations

import json

import numpy as np

# Residuals are relative to max(1, |target|). Ten times the default
# --tol-residual of `uniequiv decide`, so that rounding in this independent
# recomputation never flags a certificate the program rightly accepted.
TOL = 1e-7
RANK_TOL = 1e-10

OK, FAIL, INCONCLUSIVE = "ok", "fail", "inconclusive"


def _mat(obj) -> np.ndarray:
    a = np.asarray(obj, dtype=float)
    if a.ndim != 3 or a.shape[2] != 2:
        raise ValueError(f"expected a matrix of [re, im] pairs, got shape {a.shape}")
    return a[..., 0] + 1j * a[..., 1]


def _vec(obj) -> np.ndarray:
    a = np.asarray(obj, dtype=float)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError(f"expected a vector of [re, im] pairs, got shape {a.shape}")
    return a[:, 0] + 1j * a[:, 1]


def _rel(residual, target) -> float:
    return float(np.linalg.norm(residual)) / max(1.0, float(np.linalg.norm(target)))


def _unitary(U, d, what) -> list:
    if U.shape != (d, d):
        return [f"{what} has shape {U.shape}, expected {(d, d)}"]
    defect = float(np.linalg.norm(U.conj().T @ U - np.eye(d)))
    return [] if defect <= TOL else [f"{what} is not unitary (defect {defect:.2e})"]


def _member(U, algebra, what) -> list:
    algebra = algebra or {"kind": "full"}
    if algebra["kind"] == "full":
        return []
    if algebra["kind"] != "factor":
        return [f"cannot check membership in a {algebra['kind']!r} algebra"]
    a, b = algebra["a"], algebra["b"]
    M = np.trace(U.reshape(a, b, a, b), axis1=1, axis2=3) / b
    gap = float(np.linalg.norm(U - np.kron(M, np.eye(b))))
    return [] if gap <= TOL else [f"{what} is not of the form M (x) I_{b} (gap {gap:.2e})"]


def certificate_problems(doc: dict, out: dict) -> list:
    """Reasons the YES certificate in `out` fails for instance `doc`; [] if it holds."""
    mode, d1, d2 = doc["mode"], doc["d1"], doc["d2"]
    U = None if out.get("U") is None else _mat(out["U"])
    V = None if out.get("V") is None else _mat(out["V"])
    if U is None or (V is None and mode != "unilocal-mixed"):
        return ["YES without a complete certificate"]
    if mode == "matpoly":
        problems = []
        for M, d, what in ((U, d1, "A"), (V, d2, "B")):
            if M.shape != (d, d):
                problems.append(f"{what} has shape {M.shape}, expected {(d, d)}")
            elif (s := np.linalg.svd(M, compute_uv=False))[-1] <= RANK_TOL * s[0]:
                problems.append(f"{what} is not invertible")
        if problems:
            return problems
        Binv = np.linalg.inv(V)
        worst = max(_rel(U @ _mat(P) @ Binv - _mat(Q), _mat(Q)) for P, Q in zip(doc["P"], doc["Q"]))
        return [] if worst <= TOL else [f"A P B^-1 differs from Q (residual {worst:.2e})"]
    if mode == "unilocal-mixed":
        problems = _unitary(U, d1, "U")
        if problems:
            return problems
        L = np.kron(U, np.eye(d2))
        worst = max(_rel(L @ _mat(r) @ L.conj().T - _mat(s), _mat(s))
                    for r, s in zip(doc["rhos"], doc["sigmas"]))
        return [] if worst <= TOL else [f"(U x I) rho (U x I)^dag differs from sigma ({worst:.2e})"]
    problems = _unitary(U, d1, "U") + _unitary(V, d2, "V")
    if problems:
        return problems
    if mode == "matrix-pairs":
        problems = _member(U, doc.get("G1"), "U") + _member(V, doc.get("G2"), "V")
        worst = max(_rel(U @ _mat(p["X"]) @ V.conj().T - _mat(p["Y"]), _mat(p["Y"]))
                    for p in doc["pairs"])
        return problems + ([] if worst <= TOL else [f"U X V^dag differs from Y ({worst:.2e})"])
    L = np.kron(U, V)
    if mode == "pure-sets":
        worst = max(float(np.linalg.norm(L @ _vec(a) - _vec(b)))
                    for a, b in zip(doc["states_in"], doc["states_out"]))
        return [] if worst <= TOL else [f"(U x V) psi differs from phi ({worst:.2e})"]
    if mode == "generic-mixed":
        sigma = _mat(doc["sigma"])
        worst = _rel(L @ _mat(doc["rho"]) @ L.conj().T - sigma, sigma)
        return [] if worst <= TOL else [f"(U x V) rho (U x V)^dag differs from sigma ({worst:.2e})"]
    return [f"unknown mode {mode!r}"]


def check(doc: dict, label: str, verdict_text) -> tuple:
    """(status, reason) for one answer; status is OK, FAIL or INCONCLUSIVE."""
    if verdict_text is None:
        return FAIL, "no verdict document"
    try:
        out = json.loads(verdict_text)
        verdict = out["verdict"]
        if out.get("mode") != doc["mode"]:
            return FAIL, f"verdict document has mode {out.get('mode')!r}, expected {doc['mode']!r}"
        if verdict == "INCONCLUSIVE":
            return INCONCLUSIVE, out.get("detail", "")
        if verdict not in ("YES", "NO"):
            return FAIL, f"unknown verdict {verdict!r}"
        if verdict != label:
            return FAIL, f"verdict {verdict} contrary to label {label}"
        problems = certificate_problems(doc, out) if verdict == "YES" else []
    except (ValueError, KeyError, TypeError, IndexError, np.linalg.LinAlgError) as exc:
        return FAIL, f"malformed verdict document: {type(exc).__name__}: {exc}"
    return (FAIL, "; ".join(problems)) if problems else (OK, "")
