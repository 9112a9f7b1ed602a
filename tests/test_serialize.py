"""The JSON codec: pinned parse errors, the one conversion against a
per-entry reference and against the per-entry rule's first error, and
dumps_document's value and one-key-per-line layout."""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uniequiv import matrix_algebra, serialize
from uniequiv.cli import main
from uniequiv.errors import MalformedInstanceError
from uniequiv.oracle import random_yes_instance
from uniequiv.serialize import (
    certificate_from_json,
    certificate_to_json,
    dumps_document,
    instance_to_json,
    matrix_from_json,
    matrix_to_json,
    parse_instance,
    vector_from_json,
    verdict_document,
)
from uniequiv.solver import UepInstance, UepVerdict

from test_cli import STATE_MODES, _state_doc

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _matrix_text(rows, cols, bad=None, at=None):
    """JSON text of a rows x cols matrix of [re, im] pairs, with the entry at
    `at` replaced by the JSON text `bad`."""
    return "[" + ", ".join(
        "[" + ", ".join(bad if (i, j) == at else f"[{i}.5, {j}.0]" for j in range(cols)) + "]"
        for i in range(rows)) + "]"


def _parse_error(text, parse=parse_instance):
    with pytest.raises(MalformedInstanceError) as info:
        parse(json.loads(text))
    return str(info.value)


# (JSON text of one entry, the message after "<location>: ")
BAD_ENTRIES = [
    ("[true, 0.0]", "expected a [re, im] number pair, got [True, 0.0]"),
    ("[0.0, false]", "expected a [re, im] number pair, got [0.0, False]"),
    ('["1", 0.0]', "expected a [re, im] number pair, got ['1', 0.0]"),
    ('"ab"', "expected a [re, im] number pair, got 'ab'"),
    ("null", "expected a [re, im] number pair, got None"),
    ("[1.0, null]", "expected a [re, im] number pair, got [1.0, None]"),
    ("[1.0, 0.0, 0.0]", "expected a [re, im] number pair, got [1.0, 0.0, 0.0]"),
    ("[1.0]", "expected a [re, im] number pair, got [1.0]"),
    ("1.5", "expected a [re, im] number pair, got 1.5"),
    ('{"re": 1.0, "im": 0.0}', "expected a [re, im] number pair, got {'re': 1.0, 'im': 0.0}"),
    ("[[1.0, 0.0], [0.0, 0.0]]", "expected a [re, im] number pair, got [[1.0, 0.0], [0.0, 0.0]]"),
    ("[[1.0, 0.0]]", "expected a [re, im] number pair, got [[1.0, 0.0]]"),
    ("[[1.0], 0.0]", "expected a [re, im] number pair, got [[1.0], 0.0]"),
    ("[NaN, 0.0]", "non-finite entry [nan, 0.0]"),
    ("[0.0, Infinity]", "non-finite entry [0.0, inf]"),
    ("[-Infinity, 0]", "non-finite entry [-inf, 0]"),
    ("[%d, 0]" % 10**400, "entry beyond the binary64 range"),
]

# (document text with @ where the bad matrix stands, its shape, the bad entry's location)
CONTEXTS = [
    ('{"mode": "matrix-pairs", "d1": 2, "d2": 3, "pairs": [{"X": %s, "Y": @}]}'
     % _matrix_text(2, 3), (2, 3), "pairs[0].Y[1][2]"),
    ('{"mode": "matpoly", "d1": 2, "d2": 3, "P": [@], "Q": [%s]}' % _matrix_text(2, 3),
     (2, 3), "P[0][1][2]"),
    ('{"mode": "matrix-pairs", "d1": 3, "d2": 3, "pairs": [{"X": %s, "Y": %s}],'
     ' "G2": {"kind": "span", "basis": [%s, @]}}'
     % (_matrix_text(3, 3), _matrix_text(3, 3), _matrix_text(3, 3)), (3, 3), "G2.basis[1][1][2]"),
    ('{"mode": "unilocal-mixed", "d1": 1, "d2": 3, "rhos": [@], "sigmas": [%s]}'
     % _matrix_text(3, 3), (3, 3), "rhos[0][1][2]"),
    ('{"mode": "generic-mixed", "d1": 1, "d2": 3, "rho": @, "sigma": %s}' % _matrix_text(3, 3),
     (3, 3), "rho[1][2]"),
]


def _context_text(doc, shape, bad):
    return doc.replace("@", _matrix_text(*shape, bad, (1, 2)))


class TestParseErrors:
    """Each message names the field and entry exactly as the per-entry reader always has."""

    @pytest.mark.parametrize("bad, message", BAD_ENTRIES)
    @pytest.mark.parametrize("doc, shape, where", CONTEXTS)
    def test_matrix_entry(self, doc, shape, where, bad, message):
        assert _parse_error(_context_text(doc, shape, bad)) == f"{where}: {message}"

    @pytest.mark.parametrize("bad, message", BAD_ENTRIES)
    def test_vector_entry(self, bad, message):
        text = ('{"mode": "pure-sets", "d1": 2, "d2": 2, "states_in": [[[1, 0], [0, 0], [0, 0], %s]],'
                ' "states_out": [[[1, 0], [0, 0], [0, 0], [0, 0]]]}' % bad)
        assert _parse_error(text) == f"states_in[0][3]: {message}"

    @pytest.mark.parametrize("bad, message", BAD_ENTRIES)
    def test_certificate_entry(self, bad, message):
        text = '{"U": %s, "V": null}' % _matrix_text(2, 3, bad, (1, 2))
        assert _parse_error(text, certificate_from_json) == f"U[1][2]: {message}"

    @pytest.mark.parametrize("X, message", [
        ("[[[1, 0], [0, 0], [0, 0]], [[1, 0], [0, 0]]]",
         "pairs[0].X: rows must be non-empty and of equal length"),
        ("[[], []]", "pairs[0].X: rows must be non-empty and of equal length"),
        ("[]", "pairs[0].X: expected a list of rows"),
        ("[[1, 0], 2]", "pairs[0].X: expected a list of rows"),
        ("[[0, 1], [1, 0]]", "pairs[0].X[0][0]: expected a [re, im] number pair, got 0"),
        ("[[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]",
         "pairs[0].Y[1][2]: expected a [re, im] number pair, got [1, 0, 0]"),
    ])
    def test_matrix_shape(self, X, message):
        text = ('{"mode": "matrix-pairs", "d1": 2, "d2": 3, "pairs": [{"X": %s, "Y": %s}]}'
                % (X, _matrix_text(2, 3, "[1, 0, 0]", (1, 2))))
        assert _parse_error(text) == message

    def test_empty_vector(self):
        text = '{"mode": "pure-sets", "d1": 1, "d2": 1, "states_in": [[]], "states_out": [[[1, 0]]]}'
        assert _parse_error(text) == "states_in[0]: expected a non-empty list of [re, im] pairs"


def _pairs_doc(d1, d2, **fields):
    """A matrix-pairs document with one pair of zero d1 x d2 matrices and fields."""
    zero = matrix_to_json(np.zeros((d1, d2)))
    return {"mode": "matrix-pairs", "d1": d1, "d2": d2, "pairs": [{"X": zero, "Y": zero}],
            **fields}


_ONE = [[[1.0, 0.0]]]
_PURE = {"mode": "pure-sets", "d1": 1, "d2": 1}
_MATPOLY = {"mode": "matpoly", "d1": 2, "d2": 3}

# (document, the whole message of the error it raises)
BAD_DOCUMENTS = [
    (_pairs_doc(2, 2, G1={"a": 1}), "G1: expected an object with a 'kind' field"),
    (_pairs_doc(4, 1, G1={"kind": "factor", "a": 2, "b": 3}),
     "G1: factor 2x3 does not tile dimension 4"),
    (_pairs_doc(2, 2, G1={"kind": "span", "basis": []}),
     "G1.basis: expected a non-empty list of matrices"),
    (_pairs_doc(2, 2, G1={"kind": "span", "basis": [matrix_to_json(np.eye(2))] * 2}),
     "G1: algebra basis is not linearly independent at rank_rel"),
    (_pairs_doc(2, 2, G2={"kind": "diagonal"}), "G2.kind: unknown algebra kind 'diagonal'"),
    ([], "top level: expected a JSON object"),
    ({"mode": "pairs", "d1": 1, "d2": 1},
     "mode: unknown mode 'pairs', expected one of ('matrix-pairs', 'matpoly', 'pure-sets', "
     "'unilocal-mixed', 'generic-mixed')"),
    ({**_pairs_doc(1, 1), "d1": 0}, "top level.d1: expected a positive integer, got 0"),
    ({"d1": 1, "d2": 1, "pairs": [{"X": _ONE}]}, "pairs[0]: expected an object with 'X' and 'Y'"),
    ({**_MATPOLY, "P": [matrix_to_json(np.zeros((2, 3))), matrix_to_json(np.zeros((3, 2)))],
      "Q": [matrix_to_json(np.zeros((2, 3)))] * 2}, "P: coefficients must all be 2 x 3"),
    ({**_MATPOLY, "P": [matrix_to_json(np.zeros((2, 3)))] * 2,
      "Q": [matrix_to_json(np.zeros((2, 3)))]}, "P and Q must have equal length"),
    ({**_PURE, "states_in": [], "states_out": [_ONE[0]]},
     "states_in: expected a non-empty list of state vectors"),
    ({**_PURE, "states_in": [_ONE[0]] * 2, "states_out": [_ONE[0]]},
     "states_in and states_out must have equal length"),
    ({"mode": "generic-mixed", "d1": 1, "d2": 1, "sigma": _ONE}, "rho: missing required field"),
]


class TestDocumentErrors:
    """Each check of the document layer, pinned by its whole message."""

    @pytest.mark.parametrize("doc, message", BAD_DOCUMENTS,
                             ids=["no-kind", "factor-tiling", "empty-basis", "dependent-basis",
                                  "unknown-kind", "not-an-object", "unknown-mode", "d1-zero",
                                  "pair-without-Y", "matpoly-shape", "matpoly-degrees",
                                  "empty-states", "unequal-states", "no-rho"])
    def test_message(self, doc, message):
        with pytest.raises(MalformedInstanceError) as info:
            parse_instance(doc)
        assert str(info.value) == message

    def test_certificate_that_is_not_an_object(self):
        with pytest.raises(MalformedInstanceError) as info:
            certificate_from_json([_ONE])
        assert str(info.value) == "certificate: expected a JSON object"

    @pytest.mark.parametrize("case", [1, 10], ids=["factor-tiling", "matpoly-degrees"])
    def test_decide_exits_3_with_the_message(self, case, tmp_path, capsys):
        doc, message = BAD_DOCUMENTS[case]
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        assert main(["decide", str(path), "--seed", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @staticmethod
    def _main_on_a_fresh_stack(argv):
        """main(argv) in a new thread, whose recursion depth starts at 0 as in a
        fresh process, whatever depth the test runner has reached."""
        with ThreadPoolExecutor(1) as pool:
            return pool.submit(main, argv).result()

    @staticmethod
    def _pair_text(X="[[[1, 0]]]"):
        """A 1 x 1 matrix-pairs document of the JSON text X and Y = [[1]]."""
        return ('{"mode": "matrix-pairs", "d1": 1, "d2": 1, '
                f'"pairs": [{{"X": {X}, "Y": [[[1, 0]]]}}]}}')

    @pytest.mark.parametrize("side", ["instance", "certificate"])
    @pytest.mark.parametrize("depth", [100000, 990], ids=["bare-lists", "pair-X"])
    def test_json_nested_past_the_parser_exits_3(self, tmp_path, capsys, side, depth):
        # json.load raises RecursionError there; exit 1 would read as NO for
        # decide and as a rejected certificate for verify
        text = ("[" * depth + "]" * depth if depth > 990
                else self._pair_text("[" * depth + "1" + "]" * depth))
        good_inst, good_cert, nested = (tmp_path / n for n in ("i.json", "c.json", "n.json"))
        good_inst.write_text(self._pair_text())
        good_cert.write_text(json.dumps({"U": [[[1, 0]]], "V": [[[1, 0]]]}))
        nested.write_text(text)
        runs = [["verify", str(good_inst), str(nested)]]
        if side == "instance":
            runs = [["decide", str(nested), "--seed", "1"],
                    ["verify", str(nested), str(good_cert)]]
        for argv in runs:
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: cannot read {nested}: maximum recursion depth "
                                    "exceeded while decoding a JSON array from a unicode string\n")

    def test_x_nested_within_the_parser_keeps_the_entry_message(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(self._pair_text("[" * 960 + "1" + "]" * 960))
        assert self._main_on_a_fresh_stack(["decide", str(path), "--seed", "1"]) == 3
        entry = "[" * 958 + "1" + "]" * 958
        assert capsys.readouterr().err == ("error: pairs[0].X[0][0]: expected a [re, im] number "
                                           f"pair, got {entry}\n")


def _reference(entries):
    """The complex array of [re, im] entries, one Python complex at a time."""
    return np.array([complex(float(re), float(im)) for re, im in entries], dtype=complex)


def _no_entry_reader(*args):
    raise AssertionError("the per-entry reader ran on a well-formed document")


LEAVES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308]),
    st.integers(-2**80, 2**80),
)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFastDecode:
    @SETTINGS
    @given(st.integers(1, 5).flatmap(lambda cols: st.lists(
        st.lists(st.lists(LEAVES, min_size=2, max_size=2), min_size=cols, max_size=cols),
        min_size=1, max_size=5)))
    def test_matrix_matches_per_entry_reader(self, obj):
        expected = _reference(e for row in obj for e in row).reshape(len(obj), -1)
        with mock.patch.object(serialize, "_entry_from_json", _no_entry_reader):
            got = matrix_from_json(obj, "M")
        assert _same_bits(got, expected)

    @SETTINGS
    @given(st.lists(st.lists(LEAVES, min_size=2, max_size=2), min_size=1, max_size=8))
    def test_vector_matches_per_entry_reader(self, obj):
        expected = _reference(obj)
        with mock.patch.object(serialize, "_entry_from_json", _no_entry_reader):
            got = vector_from_json(obj, "v")
        assert _same_bits(got, expected)

    def test_signed_zero_survives(self):
        M = matrix_from_json([[[-0.0, 0.0], [0.0, -0.0]]], "M")
        assert np.signbit(M.real).tolist() == [[True, False]]
        assert np.signbit(M.imag).tolist() == [[False, True]]

    def test_entry_lengths_are_checked_one_by_one(self):
        # lengths 3 and 1 hold the four leaves of two pairs, so only the
        # per-entry check keeps the fast path from reshaping them
        with pytest.raises(MalformedInstanceError, match=r"^M\[0\]\[0\]: expected a \[re, im\]"):
            matrix_from_json([[[1.0, 2.0, 3.0], [4.0]]], "M")

    def test_float_subclass_leaf_reads_as_its_value(self):
        # np.float64 is no JSON leaf type, but a float subclass, which library
        # callers may pass: the one conversion reads it as the float it is
        obj = [[[np.float64(1.5), 2]]]
        assert matrix_from_json(obj, "M").tolist() == [[1.5 + 2j]]


# entries the per-entry rule refuses: a bool, a string, None, NaN, an
# infinity or an int beyond binary64 in either place, an np.int64 (no int
# subclass), the wrong length, a bare leaf; and entries it reads: tuples and
# np.float64 leaves (a float subclass)
ODD_ENTRIES = st.one_of(
    st.sampled_from([
        [True, 0.0], (0.5, False), ["1", 2], (0, None), [math.nan, 0.0], (1, math.inf),
        [-math.inf, 1.5], [2**1024, 0], (0.0, -2**1100), [np.int64(3), 0.0],
        (np.float64(math.nan), 0), [0.0, np.float64(-math.inf)], [1.0], (1.0,), [], [1, 2, 3],
        (1.0, 2.0, 3.0), 5, 1.5, None, "ab", np.float64(1.0), {"re": 1.0, "im": 0.0},
    ]),
    st.tuples(LEAVES, LEAVES),
    st.lists(st.one_of(LEAVES, st.floats(allow_nan=False, allow_infinity=False).map(np.float64)),
             min_size=2, max_size=2),
)


@st.composite
def _mixed_arrays(draw):
    """(shape, row-major entries): [re, im] lists of JSON leaves, up to three
    of them replaced by odd entries."""
    shape = draw(st.one_of(st.tuples(st.integers(1, 8)), SHAPES))
    pair = st.lists(LEAVES, min_size=2, max_size=2)
    entries = draw(st.lists(pair, min_size=math.prod(shape), max_size=math.prod(shape)))
    for k in draw(st.lists(st.integers(0, len(entries) - 1), max_size=3)):
        entries[k] = draw(ODD_ENTRIES)
    return shape, entries


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mixed_arrays())
def test_an_array_decodes_or_raises_at_its_first_bad_entry(case):
    """The one conversion and the per-entry rule accept the same arrays: so
    every array either reads bit-equal to the reference or raises the
    per-entry message of its first bad entry in row-major order, never
    returning None from a walk that found nothing to word."""
    shape, entries = case
    cols = shape[-1]
    if len(shape) == 1:
        obj, where, places = entries, "v", [f"v[{k}]" for k in range(cols)]
    else:
        obj = [entries[k:k + cols] for k in range(0, len(entries), cols)]
        where, places = "M", [f"M[{k // cols}][{k % cols}]" for k in range(len(entries))]
    message = None
    for place, e in zip(places, entries):
        try:
            serialize._entry_from_json(e, place)
        except MalformedInstanceError as exc:
            message = str(exc)
            break
    read = vector_from_json if len(shape) == 1 else matrix_from_json
    if message is None:
        assert _same_bits(read(obj, where), _reference(entries).reshape(shape))
    else:
        with pytest.raises(MalformedInstanceError) as info:
            read(obj, where)
        assert str(info.value) == message


def test_well_formed_documents_never_reach_the_per_entry_reader(monkeypatch, rng):
    """A silent fall-back to the per-entry reader would show only in the benchmark."""
    monkeypatch.setattr(serialize, "_entry_from_json", _no_entry_reader)
    inst, _ = random_yes_instance(2, 3, 1, g1_kind=("factor", 2, 1), seed=4)
    doc = instance_to_json(inst)
    doc["G2"] = {"kind": "span", "basis": [matrix_to_json(E) for E in
                                           (np.eye(3), np.diag([1.0, 0.0, 0.0]))]}
    parse_instance(doc)
    for mode in STATE_MODES:
        parse_instance(json.loads(json.dumps(_state_doc(mode, rng))))
    certificate_from_json(certificate_to_json(np.eye(2), np.eye(3)))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SHAPES = st.tuples(st.integers(1, 4), st.integers(1, 4))


@st.composite
def _complex_matrices(draw):
    rows, cols = draw(SHAPES)
    parts = draw(st.lists(FINITE, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts).view(complex).reshape(rows, cols)


# orjson's text for these differs from repr: 0.00001 for 1e-05, 3e-7 for
# 3e-07, 1e16 for 1e+16
REPR_DIFFERS = st.one_of(st.floats(-1e-4, 1e-4), st.floats(min_value=1e16, allow_infinity=False),
                         st.floats(max_value=-1e16, allow_infinity=False))

AUX = st.dictionaries(
    st.text(max_size=6),
    st.recursive(st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
                 lambda inner: st.lists(inner, max_size=3), max_leaves=6),
    max_size=4)


def _written_as_json(doc):
    """dumps_document(doc) is ASCII text that holds doc's JSON value (compared
    as json.dumps text, so that NaN equals itself) on a "{" line, one line
    per top-level key in doc's order, each but the last ending in a comma,
    and a "}" line."""
    text = dumps_document(doc)
    first, *middle, last, end = text.split("\n")
    entries = [json.loads("{" + line.removesuffix(",") + "}") for line in middle]
    return (json.dumps(json.loads(text)) == json.dumps(doc) and text.isascii()
            and (first, last, end) == ("{", "}", "")
            and all(line.endswith(",") for line in middle[:-1])
            and all(len(entry) == 1 for entry in entries)
            and [key for entry in entries for key in entry] == list(doc))


class TestDumpsDocument:
    @SETTINGS
    @given(U=st.none() | _complex_matrices(), V=st.none() | _complex_matrices(),
           residual=st.floats(allow_nan=False), detail=st.text(max_size=12),
           aux=AUX, verbose=st.booleans(), timing=st.none() | FINITE)
    def test_verdict_document(self, U, V, residual, detail, aux, verbose, timing):
        verdict = UepVerdict(verdict="YES", certainty="probabilistic", U=U, V=V,
                             residual=residual, trials_used=1, failure_bound=1e-5,
                             solution_dimension=None if U is None else 3, detail=detail, aux=aux)
        assert _written_as_json(verdict_document(verdict, "matrix-pairs", 7, timing, verbose))

    @SETTINGS
    @given(U=st.none() | _complex_matrices(), V=st.none() | _complex_matrices())
    def test_certificate_document(self, U, V):
        assert _written_as_json(certificate_to_json(U, V))

    @pytest.mark.parametrize("seed", range(3))
    def test_instance_documents(self, seed, rng):
        inst, _ = random_yes_instance(3, 2, 2, g1_kind=("factor", 3, 1), seed=seed)
        assert _written_as_json(instance_to_json(inst, seed=seed))
        for mode in STATE_MODES:
            assert _written_as_json(_state_doc(mode, rng))

    def test_span_algebra_round_trip(self, rng):
        basis = [np.eye(3), np.diag([1.0, 0.0, 0.0]), 1j * np.diag([0.0, 1.0, 0.0])]
        inst, _ = random_yes_instance(3, 2, 1, seed=5)
        inst = UepInstance(3, 2, inst.pairs, matrix_algebra(basis), inst.G2)
        doc = instance_to_json(inst)
        assert doc["G1"]["kind"] == "span" and _written_as_json(doc)
        _, parsed = parse_instance(json.loads(dumps_document(doc)))
        assert parsed.G1.kind == "span"
        assert all(np.array_equal(E, F) for E, F in zip(parsed.G1.basis, basis, strict=True))

    @pytest.mark.parametrize("U", [
        [[[float("nan"), 0.0]]],
        [[[float("inf"), 0.0], [1.0, 2.0]]],
        [[[1, 0.0]]],
        [[[True, 0.0]]],
        [[[1.0, 0.0, 0.0]]],
        [[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]],
        [[]],
        [],
        [[[np.float64(1.0), 0.0]]],
        [2**64],
        [None, 1.5],
        ["null"],
        ["\ud800"],
        ["é"],
        [1e-05, 3e-7, 1e16, 1e22, 5e-324, -0.0],
    ])
    def test_non_finite_ragged_and_other_values(self, U):
        assert _written_as_json({"verdict": "YES", "U": U, "V": [[[1.0, -0.0]]]})

    @SETTINGS
    @given(st.lists(REPR_DIFFERS | st.floats(allow_nan=False), max_size=40))
    def test_floats_read_back_bit_for_bit(self, floats):
        got = json.loads(dumps_document({"U": floats}))["U"]
        assert np.array(got, dtype=float).tobytes() == np.array(floats, dtype=float).tobytes()

    def test_lists_are_written_by_orjson(self):
        doc = {"U": [[1.0, -0.0], [1e-05, 1e16]], "detail": "a, b", "seed": 7}
        assert dumps_document(doc) == (
            '{\n  "U": [[1.0,-0.0],[0.00001,1e16]],\n  "detail": "a, b",\n  "seed": 7\n}\n')

    def test_nul_delimited_strings_in_values_and_keys(self):
        doc = {"U": [[[1.0, 2.0]]], "V": [[[3.0, 4.0]]]}
        for detail in ("\x00matrix 0\x00", 'a"\x00matrix 1\x00', "\x00matrix 1\x00"):
            assert _written_as_json({**doc, "detail": detail})
            assert _written_as_json({"detail": detail, **doc})
            assert _written_as_json({**doc, detail: None})
