"""JSON (de)serialization of instances, certificates and verdict documents.

Complex numbers serialize as two-element [re, im] arrays; matrices as
row-major lists of rows. Documents are written with one top-level key per
line and each value on that line: lists by orjson, the rest by json. Both
print every binary64 value as its shortest round-trip text, so the encoding
is lossless and byte-deterministic; orjson's exponent forms differ from
Python's repr (1e16 for 1e+16, 0.00001 for 1e-05).

Matrices and vectors are built in one numpy conversion, which takes exactly
the arrays whose every entry is a list or tuple of two finite ints or floats
(bools are neither); any other array is walked entry by entry only to word
the error of its first bad entry.
"""

from __future__ import annotations

import json
from contextlib import suppress
from itertools import chain, repeat

import numpy as np

from .algebra import MatrixAlgebra, factor_algebra, full_algebra, matrix_algebra
from .errors import MalformedInstanceError
from .linalg import MatrixPolynomial
from .solver import MODES, UepInstance, UepVerdict
from .states import DensityOperator, PureState, density_operator, pure_state

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
    "vector_from_json",
    "algebra_to_json",
    "algebra_from_json",
    "instance_to_json",
    "read_json",
    "load_instance",
    "parse_instance",
    "verdict_document",
    "certificate_to_json",
    "certificate_from_json",
    "dumps_document",
]


def matrix_to_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


def vector_to_json(v) -> list:
    return matrix_to_json(np.ravel(v))


def _array_from_json(obj, where: str, shape) -> np.ndarray:
    """obj, a vector or a list of equally long rows, as a complex array of
    the given shape. The entries are listed once, their types and lengths
    tested once per distinct type and length, and their flat floats
    converted in one np.array call; the view keeps every bit, signed zeros
    too. The test and the conversion accept exactly what _entry_from_json
    accepts, so on any array they decline, the walk in row-major order
    raises at the first bad entry, located as where[i][j] (a vector:
    where[i])."""
    entries = obj if len(shape) == 1 else list(chain.from_iterable(obj))
    if (_only(entries, (list, tuple)) and set(map(len, entries)) == {2}
            and _only(leaves := list(chain.from_iterable(entries)), (int, float))):
        with suppress(OverflowError):  # an int beyond binary64
            a = np.array(leaves, dtype=float)
            if np.isfinite(a).all():
                return a.view(complex).reshape(shape)
    for index, entry in zip(np.ndindex(shape), entries):
        _entry_from_json(entry, where + "".join(f"[{i}]" for i in index))


def _only(values, kinds) -> bool:
    """Whether every value is an instance of kinds and none is a bool (a type
    that cannot be subclassed), tested once per distinct type."""
    types = set(map(type, values))
    return bool not in types and all(map(issubclass, types, repeat(kinds)))


def _entry_from_json(obj, where: str) -> None:
    """Raise the MalformedInstanceError of obj at where unless obj is a list
    or tuple of two ints or floats (not bools) that are finite as floats."""
    if (not isinstance(obj, (list, tuple)) or len(obj) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)):
        raise MalformedInstanceError(f"{where}: expected a [re, im] number pair, got {obj!r}")
    try:
        z = complex(float(obj[0]), float(obj[1]))
    except OverflowError:  # an int beyond binary64
        raise MalformedInstanceError(f"{where}: entry beyond the binary64 range") from None
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise MalformedInstanceError(f"{where}: non-finite entry {obj!r}")


def matrix_from_json(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise MalformedInstanceError(f"{where}: expected a list of rows")
    ncols = len(obj[0])
    if ncols == 0 or any(len(r) != ncols for r in obj):
        raise MalformedInstanceError(f"{where}: rows must be non-empty and of equal length")
    return _array_from_json(obj, where, (len(obj), ncols))


def vector_from_json(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise MalformedInstanceError(f"{where}: expected a non-empty list of [re, im] pairs")
    return _array_from_json(obj, where, (len(obj),))


def algebra_to_json(G: MatrixAlgebra) -> dict:
    if G.kind == "full":
        return {"kind": "full"}
    if G.kind == "factor":
        a, b = G.factor_shape
        return {"kind": "factor", "a": a, "b": b}
    return {"kind": "span", "basis": [matrix_to_json(E) for E in G.basis]}


def algebra_from_json(obj, d: int, where: str) -> MatrixAlgebra:
    """The algebra of a descriptor; a span basis is tested for independence at
    numerical_rank's default rank_rel, whatever tolerances the solve uses."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise MalformedInstanceError(f"{where}: expected an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "full":
            return full_algebra(d)
        if kind == "factor":
            a, b = _require_int(obj, "a", where), _require_int(obj, "b", where)
            if a * b != d:
                raise MalformedInstanceError(f"{where}: factor {a}x{b} does not tile dimension {d}")
            return factor_algebra(a, b)
        if kind == "span":
            basis_obj = obj.get("basis")
            if not isinstance(basis_obj, list) or not basis_obj:
                raise MalformedInstanceError(f"{where}.basis: expected a non-empty list of matrices")
            basis = [matrix_from_json(E, f"{where}.basis[{i}]") for i, E in enumerate(basis_obj)]
            return matrix_algebra(basis)
    except MalformedInstanceError:
        raise
    except Exception as exc:
        raise MalformedInstanceError(f"{where}: {exc}") from exc
    raise MalformedInstanceError(f"{where}.kind: unknown algebra kind {kind!r}")


def _require_int(doc: dict, key: str, where: str) -> int:
    if key not in doc:
        raise MalformedInstanceError(f"{where}.{key}: missing required field")
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise MalformedInstanceError(f"{where}.{key}: expected a positive integer, got {value!r}")
    return value


def instance_to_json(inst: UepInstance, seed=None) -> dict:
    doc = {
        "mode": "matrix-pairs",
        "d1": inst.d1,
        "d2": inst.d2,
        "pairs": [{"X": matrix_to_json(X), "Y": matrix_to_json(Y)} for X, Y in inst.pairs],
        "G1": algebra_to_json(inst.G1),
        "G2": algebra_to_json(inst.G2),
    }
    if seed is not None:
        doc["seed"] = int(seed)
    return doc


def parse_instance(doc: dict, mode: str | None = None):
    """Parse an instance document into (mode, payload), under mode when given,
    else under the document's own "mode" (default matrix-pairs).

    Payload depends on the mode: a UepInstance, a (P, Q) polynomial pair,
    two pure-state lists, two density-operator lists, or a (rho, sigma) pair.
    Validity is judged at fixed bounds, never at a caller's tolerances: a
    span basis is tested for independence at the default rank_rel, a state
    by pure_state and density_operator. So decide and verify read every file
    alike.
    """
    if not isinstance(doc, dict):
        raise MalformedInstanceError("top level: expected a JSON object")
    mode = doc.get("mode", "matrix-pairs") if mode is None else mode
    if mode not in MODES:
        raise MalformedInstanceError(f"mode: unknown mode {mode!r}, expected one of {MODES}")
    d1 = _require_int(doc, "d1", "top level")
    d2 = _require_int(doc, "d2", "top level")
    try:
        if mode == "matrix-pairs":
            return mode, _parse_matrix_pairs(doc, d1, d2)
        if mode == "matpoly":
            return mode, _parse_matpoly(doc, d1, d2)
        if mode == "pure-sets":
            return mode, _parse_lists(doc, ("states_in", "states_out"), "state vectors",
                                      lambda v, w: pure_state(d1, d2, vector_from_json(v, w)))
        if mode == "unilocal-mixed":
            return mode, _parse_lists(doc, ("rhos", "sigmas"), "density matrices",
                                      lambda M, w: density_operator(d1, d2, matrix_from_json(M, w)))
        return mode, _parse_generic_mixed(doc, d1, d2)
    except MalformedInstanceError:
        raise
    except Exception as exc:
        raise MalformedInstanceError(f"instance validation failed: {exc}") from exc


def _parse_matrix_pairs(doc, d1, d2) -> UepInstance:
    pairs_obj = doc.get("pairs")
    if not isinstance(pairs_obj, list) or not pairs_obj:
        raise MalformedInstanceError("pairs: expected a non-empty list")
    pairs = []
    for i, p in enumerate(pairs_obj):
        if not isinstance(p, dict) or "X" not in p or "Y" not in p:
            raise MalformedInstanceError(f"pairs[{i}]: expected an object with 'X' and 'Y'")
        pairs.append((matrix_from_json(p["X"], f"pairs[{i}].X"),
                      matrix_from_json(p["Y"], f"pairs[{i}].Y")))
    G1 = algebra_from_json(doc.get("G1", {"kind": "full"}), d1, "G1")
    G2 = algebra_from_json(doc.get("G2", {"kind": "full"}), d2, "G2")
    return UepInstance(d1=d1, d2=d2, pairs=tuple(pairs), G1=G1, G2=G2)


def _parse_matpoly(doc, d1, d2):
    lists = _parse_lists(doc, ("P", "Q"), "coefficient matrices", matrix_from_json)
    for key, coeffs in zip("PQ", lists):
        if any(C.shape != (d1, d2) for C in coeffs):
            raise MalformedInstanceError(f"{key}: coefficients must all be {d1} x {d2}")
    return tuple(MatrixPolynomial(tuple(coeffs)) for coeffs in lists)


def _parse_lists(doc, keys, what, parse):
    """Two equally long non-empty lists doc[keys[0]], doc[keys[1]], each item read by parse."""
    out = []
    for key in keys:
        items = doc.get(key)
        if not isinstance(items, list) or not items:
            raise MalformedInstanceError(f"{key}: expected a non-empty list of {what}")
        out.append([parse(item, f"{key}[{i}]") for i, item in enumerate(items)])
    if len(out[0]) != len(out[1]):
        raise MalformedInstanceError(f"{keys[0]} and {keys[1]} must have equal length")
    return tuple(out)


def _parse_generic_mixed(doc, d1, d2):
    out = []
    for key in ("rho", "sigma"):
        if key not in doc:
            raise MalformedInstanceError(f"{key}: missing required field")
        out.append(density_operator(d1, d2, matrix_from_json(doc[key], key)))
    return tuple(out)


def read_json(path: str):
    """The JSON document in the UTF-8 file at path; MalformedInstanceError when
    the file cannot be read, holds no valid JSON or nests deeper than the
    parser's recursion limit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise MalformedInstanceError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInstanceError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def load_instance(path: str, mode: str | None = None):
    """parse_instance(doc, mode) of the JSON document in the file at path."""
    return parse_instance(read_json(path), mode)


def verdict_document(verdict: UepVerdict, mode: str, seed: int,
                     timing: float | None = None, verbose: bool = False) -> dict:
    doc = {
        "verdict": verdict.verdict,
        "certainty": verdict.certainty,
        "certificate_kind": verdict.certificate_kind,
        **certificate_to_json(verdict.U, verdict.V),
        "residual": float(verdict.residual),
        "trials_used": int(verdict.trials_used),
        "failure_bound": float(verdict.failure_bound),
        "solution_dimension": verdict.solution_dimension,
        "detail": verdict.detail,
        "mode": mode,
        "seed": int(seed),
    }
    if verbose:
        doc["aux"] = dict(verdict.aux)
    if timing is not None:
        doc["timing"] = float(timing)
    return doc


def certificate_to_json(U, V) -> dict:
    return {
        "U": None if U is None else matrix_to_json(U),
        "V": None if V is None else matrix_to_json(V),
    }


def certificate_from_json(doc: dict):
    if not isinstance(doc, dict):
        raise MalformedInstanceError("certificate: expected a JSON object")
    out = []
    for key in ("U", "V"):
        value = doc.get(key)
        out.append(None if value is None else matrix_from_json(value, key))
    return tuple(out)


def dumps_document(doc: dict) -> str:
    """doc as ASCII JSON text, one top-level key per line, each value compact.

    A list value, such as a matrix, is written by orjson, with no space
    after its commas and its floats printed several times faster than by
    json's repr; `python -m json.tool` re-indents the text. Every other
    value goes to json's C encoder, and so does a list that orjson refuses
    (an int beyond 64 bits, an np.float64, a lone surrogate) or whose orjson
    text holds `null` or a non-ASCII byte: orjson writes NaN and infinities
    as null and text as raw UTF-8, where json writes NaN, Infinity and \\u
    escapes. The keys must be strings, as they are in every document the
    package writes.
    """
    return ("{\n" + ",\n".join(f"  {json.dumps(k)}: {_dumps_value(v)}" for k, v in doc.items())
            + "\n}\n")


def _dumps_value(v) -> str:
    if isinstance(v, list):
        import orjson  # here, not at the top: a process that writes no list skips its import

        try:
            raw = orjson.dumps(v)
        except TypeError:
            pass
        else:
            if raw.isascii() and b"null" not in raw:
                return raw.decode()
    return json.dumps(v)
