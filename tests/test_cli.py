import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uniequiv
from uniequiv import SamplerConfig, Tolerances, cli
from uniequiv import solver as solver_mod
from uniequiv.cli import _build_parser, main, run
from uniequiv.serialize import (
    dumps_document,
    instance_to_json,
    matrix_from_json,
    matrix_to_json,
    parse_instance,
    vector_to_json,
)
from uniequiv.errors import MalformedInstanceError
from uniequiv.oracle import random_yes_instance

from conftest import ginibre, haar, random_density


def _strip_timing(path):
    doc = json.loads(path.read_text())
    doc.pop("timing", None)
    return json.dumps(doc, indent=2)


OUT_OF_RANGE = [
    (["--trials", "0"], "--trials must be positive"),
    (["--sample-max", "1"], "--sample-max must be at least 2"),
    (["--sample-max", "100000000000000000000"],
     "--sample-max must be at most 9223372036854775807"),
    (["--tol-rank", "0"], "--tol-rank must lie strictly in (0, 1), got 0.0"),
    (["--tol-residual", "2"], "--tol-residual must lie strictly in (0, 1), got 2.0"),
    (["--seed", "-1"], "--seed must be a non-negative integer"),
]


class TestSerialization:
    def test_matrix_round_trip(self, rng):
        M = ginibre(3, 4, rng)
        back = matrix_from_json(matrix_to_json(M), "M")
        assert np.array_equal(M, back)  # binary64-exact via repr round-trip

    def test_instance_round_trip(self):
        inst, _ = random_yes_instance(2, 3, 1, g1_kind=("factor", 2, 1), seed=4)
        mode, parsed = parse_instance(instance_to_json(inst))
        assert mode == "matrix-pairs"
        assert parsed.d1 == 2 and parsed.d2 == 3
        for (X, Y), (X2, Y2) in zip(inst.pairs, parsed.pairs):
            assert np.array_equal(X, X2) and np.array_equal(Y, Y2)
        assert parsed.G1.kind == "factor" and parsed.G1.factor_shape == (2, 1)

    def test_malformed_entry_names_field(self):
        doc = {"mode": "matrix-pairs", "d1": 1, "d2": 1,
               "pairs": [{"X": [[[1.0, 0.0]]], "Y": [[[1.0]]]}]}
        with pytest.raises(MalformedInstanceError, match=r"pairs\[0\].Y"):
            parse_instance(doc)

    def test_missing_dimension_names_field(self):
        with pytest.raises(MalformedInstanceError, match="d2"):
            parse_instance({"mode": "matrix-pairs", "d1": 1, "pairs": []})


def test_parser_defaults_are_the_library_defaults():
    # cli-cold and the in-process callers must decide under the same settings
    parser = _build_parser()
    decide = parser.parse_args(["decide", "i.json", "--seed", "0"])
    verify = parser.parse_args(["verify", "i.json", "c.json"])
    cfg, tol = SamplerConfig(), Tolerances()
    assert (decide.trials, decide.sample_max) == (cfg.trials, cfg.sample_max)
    assert (decide.tol_rank, decide.tol_residual) == (tol.rank_rel, tol.residual_abs)
    assert verify.tol_residual == tol.residual_abs


class TestGen:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--yes", "--d1", "3", "--d2", "4", "--m", "2", "--seed", "7"]
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_factor_descriptor(self, tmp_path):
        out = tmp_path / "f.json"
        assert main(["gen", "--yes", "--d1", "4", "--d2", "2", "--g1", "factor:2,2",
                     "--seed", "5", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["G1"] == {"kind": "factor", "a": 2, "b": 2}

    @pytest.mark.parametrize("flags", [
        ["--no", "--witness", "w.json"],
        ["--no", "--g1", "factor:2,1"],
        ["--yes", "--g1", "factor:x"],
    ], ids=["no-with-witness", "no-with-factor", "malformed-factor"])
    def test_option_errors_exit_64_and_write_nothing(self, tmp_path, monkeypatch, capsys, flags):
        # gen reads no file, so each error it finds is in its options
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--d1", "2", "--d2", "2", "--seed", "1", "-o", "i.json", *flags]) == 64
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [["--d1", "0", "--d2", "2"], ["--d1", "2", "--d2", "0"],
                                       ["--d1", "2", "--d2", "2", "--m", "-1"]],
                             ids=["d1", "d2", "m"])
    @pytest.mark.parametrize("kind", ["--yes", "--no"])
    def test_out_of_range_size_exits_64_with_the_generator_message(self, tmp_path, capsys, flags,
                                                                  kind):
        out = tmp_path / "i.json"
        assert main(["gen", kind, *flags, "--seed", "1", "-o", str(out)]) == 64
        assert capsys.readouterr().err == "error: need d1, d2 >= 1 and m >= 0\n"
        assert not out.exists()

    def test_no_instance_fails_prefilter(self, tmp_path):
        out = tmp_path / "no.json"
        assert main(["gen", "--no", "--d1", "2", "--d2", "3", "--seed", "9", "-o", str(out)]) == 0
        assert main(["decide", str(out), "--seed", "1", "-o", str(tmp_path / "v.json")]) == 1
        verdict = json.loads((tmp_path / "v.json").read_text())
        assert verdict["verdict"] == "NO" and verdict["certainty"] == "exact"


class TestDecide:
    def test_yes_round_trip(self, tmp_path):
        inst_path, verdict_path = tmp_path / "i.json", tmp_path / "v.json"
        assert main(["gen", "--yes", "--d1", "3", "--d2", "2", "--m", "1",
                     "--seed", "11", "-o", str(inst_path)]) == 0
        assert main(["decide", str(inst_path), "--seed", "2", "-o", str(verdict_path)]) == 0
        doc = json.loads(verdict_path.read_text())
        assert doc["verdict"] == "YES"
        assert doc["residual"] <= 1e-8
        assert doc["seed"] == 2

    def test_deterministic_verdicts(self, tmp_path):
        inst_path = tmp_path / "i.json"
        main(["gen", "--yes", "--d1", "2", "--d2", "2", "--seed", "3", "-o", str(inst_path)])
        v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
        main(["decide", str(inst_path), "--seed", "8", "-o", str(v1)])
        main(["decide", str(inst_path), "--seed", "8", "-o", str(v2)])
        assert _strip_timing(v1) == _strip_timing(v2)

    def test_truncated_file_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mode": "matrix-pairs", "d1": 2')
        assert main(["decide", str(bad), "--seed", "1"]) == 3

    def test_pair_of_the_wrong_shape_exits_3(self, tmp_path, capsys):
        doc = {"mode": "matrix-pairs", "d1": 2, "d2": 2,
               "pairs": [{"X": matrix_to_json(np.eye(2, 3)), "Y": matrix_to_json(np.eye(2, 3))}]}
        path = tmp_path / "shape.json"
        path.write_text(dumps_document(doc))
        assert main(["decide", str(path), "--seed", "1"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: instance validation failed: pairs[0] has shape (2, 3)/(2, 3), "
                           "expected (2, 2)\n")

    def test_invalid_algebra_exits_4(self, tmp_path, capsys):
        doc = {
            "mode": "matrix-pairs", "d1": 2, "d2": 2,
            "pairs": [{"X": matrix_to_json(np.eye(2)), "Y": matrix_to_json(np.eye(2))}],
            "G1": {"kind": "span", "basis": [matrix_to_json(np.array([[0, 1], [0, 0]]))]},
            "G2": {"kind": "full"},
        }
        path = tmp_path / "inv.json"
        path.write_text(dumps_document(doc))
        assert main(["decide", str(path), "--seed", "1"]) == 4

    def test_the_reader_ignores_tol_rank(self, tmp_path, rng):
        # sigma_min/sigma_max of {I, diag(1, 1 + 1e-8)} is 2.5e-9: independent
        # at the default rank_rel 1e-10, at which the reader tests a span
        # basis whatever --tol-rank is, so that verify reads every file alike
        doc = {"mode": "matrix-pairs", "d1": 2, "d2": 2,
               "pairs": [{"X": matrix_to_json(ginibre(2, 2, rng)),
                          "Y": matrix_to_json(ginibre(2, 2, rng))}],
               "G1": {"kind": "span", "basis": [matrix_to_json(np.eye(2)),
                                                matrix_to_json(np.diag([1.0, 1.0 + 1e-8]))]}}
        path, out, default = tmp_path / "i.json", tmp_path / "v.json", tmp_path / "d.json"
        path.write_text(dumps_document(doc))
        args = ["decide", str(path), "--seed", "1"]
        assert main(args + ["--tol-rank", "1e-6", "-o", str(out)]) == 1
        assert main(args + ["-o", str(default)]) == 1
        assert json.loads(out.read_text())["detail"] == "singular values differ at pair index 0"
        assert _strip_timing(out) == _strip_timing(default)

    def test_usage_error_exits_64(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["decide"])  # missing instance and --seed
        assert exc.value.code == 64

    def test_the_removed_phase_grid_option_exits_64(self, tmp_path, capsys):
        # a caller that still passes --phase-grid is told so, not silently ignored
        inst_path, out = tmp_path / "i.json", tmp_path / "v.json"
        assert main(["gen", "--yes", "--d1", "2", "--d2", "2", "--seed", "3",
                     "-o", str(inst_path)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["decide", str(inst_path), "--seed", "1", "--phase-grid", "12", "-o", str(out)])
        assert exc.value.code == 64
        assert "unrecognized arguments: --phase-grid 12" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option, message", OUT_OF_RANGE,
                             ids=["=".join(o) for o, _ in OUT_OF_RANGE])
    def test_out_of_range_option_exits_64_before_reading_the_file(self, tmp_path, capsys, option,
                                                                  message):
        inst_path = tmp_path / "i.json"
        assert main(["gen", "--yes", "--d1", "2", "--d2", "2", "--seed", "3",
                     "-o", str(inst_path)]) == 0
        for path in (inst_path, tmp_path / "missing.json"):
            assert main(["decide", str(path), "--seed", "1", *option]) == 64
            out = capsys.readouterr()
            assert out.out == "" and out.err == f"error: {message}\n"

    def test_matrix_pairs_verbose_rerun_is_identical(self, tmp_path):
        inst_path = tmp_path / "i.json"
        assert main(["gen", "--yes", "--d1", "4", "--d2", "3", "--m", "1", "--seed", "8",
                     "-o", str(inst_path)]) == 0
        v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
        for out in (v1, v2):
            assert main(["decide", str(inst_path), "--seed", "2", "--verbose", "-o", str(out)]) == 0
        assert _strip_timing(v1) == _strip_timing(v2)
        aux = json.loads(v1.read_text())["aux"]
        # 3 distinct singular values; the A side pads a zero to 4
        assert aux["pivot_clusters"] == [4, 3]
        assert aux["pivot_merged_gap"] == 0.0 and aux["pivot_split_gap"] > 1e-6
        main(["decide", str(inst_path), "--seed", "2", "-o", str(v2)])
        assert "aux" not in json.loads(v2.read_text())

    def test_merged_padding_zeros_print_a_positive_gap(self, tmp_path):
        # the 5 x 2 pivot pads its spectra with three zeros, which merge at a gap
        # of +0.0; equal values differenced as -diff gave -0.0, which == 0.0 misses
        inst_path, out = tmp_path / "i.json", tmp_path / "v.json"
        assert main(["gen", "--yes", "--d1", "5", "--d2", "2", "--seed", "3",
                     "-o", str(inst_path)]) == 0
        assert main(["decide", str(inst_path), "--seed", "1", "--verbose", "-o", str(out)]) == 0
        assert '"pivot_merged_gap": 0.0,' in out.read_text()

    @pytest.fixture
    def parse_calls(self, monkeypatch):
        import uniequiv.serialize as serialize_mod

        calls = []

        def counted(doc, mode=None, **kwargs):
            calls.append(mode)
            return parse(doc, mode, **kwargs)

        parse = serialize_mod.parse_instance
        monkeypatch.setattr(serialize_mod, "parse_instance", counted)
        return calls

    def test_mode_override_parses_a_modeless_matpoly_file_once(self, tmp_path, rng, parse_calls):
        # without its "mode" key the file reads as matrix-pairs, which has no pairs
        coeffs = [ginibre(2, 3, rng) for _ in range(2)]
        doc = {"d1": 2, "d2": 3, "P": [matrix_to_json(C) for C in coeffs],
               "Q": [matrix_to_json(C) for C in coeffs]}
        path, out = tmp_path / "p.json", tmp_path / "v.json"
        path.write_text(dumps_document(doc))
        assert main(["decide", str(path), "--seed", "4", "--mode", "matpoly", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["mode"] == "matpoly"
        assert main(["decide", str(path), "--seed", "4", "-o", str(out)]) == 3
        assert parse_calls == ["matpoly", None]

    def test_mode_override_that_does_not_fit_exits_3(self, tmp_path, capsys, parse_calls):
        path = tmp_path / "i.json"
        assert main(["gen", "--yes", "--d1", "2", "--d2", "2", "--seed", "3",
                     "-o", str(path)]) == 0
        assert main(["decide", str(path), "--seed", "1", "--mode", "matpoly"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: P: expected a non-empty list of coefficient matrices\n"
        assert parse_calls == ["matpoly"]

    @pytest.mark.parametrize("command", [
        ["decide", "{inst}", "--seed", "1", "-o", "{out}"],
        ["gen", "--yes", "--d1", "2", "--d2", "2", "--seed", "3", "-o", "{out}"],
        ["gen", "--yes", "--d1", "2", "--d2", "2", "--seed", "3", "--witness", "{out}"],
    ], ids=["decide-output", "gen-output", "gen-witness"])
    def test_unwritable_output_exits_64(self, tmp_path, capsys, command):
        # a YES whose document cannot be written must not read as NO (exit 1)
        inst, out = tmp_path / "i.json", tmp_path / "missing" / "o.json"
        assert main(["gen", "--yes", "--d1", "2", "--d2", "2", "--seed", "3",
                     "-o", str(inst)]) == 0
        capsys.readouterr()
        assert main([a.format(inst=inst, out=out) for a in command]) == 64
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1

    def test_matpoly_mode(self, tmp_path, rng):
        A = ginibre(2, 2, rng) + 2 * np.eye(2)
        B = ginibre(3, 3, rng) + 2 * np.eye(3)
        coeffs = [ginibre(2, 3, rng) for _ in range(2)]
        doc = {
            "mode": "matpoly", "d1": 2, "d2": 3,
            "P": [matrix_to_json(C) for C in coeffs],
            "Q": [matrix_to_json(A @ C @ np.linalg.inv(B)) for C in coeffs],
        }
        path = tmp_path / "p.json"
        path.write_text(dumps_document(doc))
        out = tmp_path / "v.json"
        assert main(["decide", str(path), "--seed", "4", "-o", str(out)]) == 0
        verdict = json.loads(out.read_text())
        assert verdict["certificate_kind"] == "invertible"
        v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
        for out in (v1, v2):
            assert main(["decide", str(path), "--seed", "4", "--verbose", "-o", str(out)]) == 0
        assert _strip_timing(v1) == _strip_timing(v2)
        aux = json.loads(v1.read_text())["aux"]
        # a generic 2x3 pivot couples its 2x2 corner, keeps B'_2k (k < 2) as
        # B-only columns, forces B'_j2 (j < 2) to 0 and leaves B'_22 free
        assert {k: aux[k] for k in ("pivot_unknowns", "pivot_free_units")} == {
            "pivot_unknowns": 7, "pivot_free_units": 1}
        assert set(aux) == {"pivot_unknowns", "pivot_free_units", "pivot_coupling_margin",
                            "pivot_eigen_margin"}
        assert aux["pivot_coupling_margin"] > 1.0
        assert aux["pivot_eigen_margin"] is None  # rectangular: the singular frames answer

    def test_pure_sets_mode(self, tmp_path, rng):
        d1, d2 = 2, 2
        local = np.kron(haar(d1, rng), haar(d2, rng))
        vecs = []
        for _ in range(3):
            v = ginibre(1, 4, rng).ravel()
            vecs.append(v / np.linalg.norm(v))
        doc = {
            "mode": "pure-sets", "d1": d1, "d2": d2,
            "states_in": [vector_to_json(v) for v in vecs],
            "states_out": [vector_to_json(local @ v) for v in vecs],
        }
        path = tmp_path / "s.json"
        path.write_text(dumps_document(doc))
        assert main(["decide", str(path), "--seed", "6"]) == 0

    @pytest.mark.filterwarnings("ignore:state norm")
    def test_extreme_scales_decide_on_the_unit_states(self, tmp_path, capsys):
        # (|00> + |11>) 1e200 against |00> 1e200: Schmidt ranks 2 and 1, NO;
        # a density matrix with an antihermitian part of 1e200 is malformed
        bell, product = (np.array(v, dtype=complex) * 1e200 for v in ([1, 0, 0, 1], [1, 0, 0, 0]))
        pure = {"mode": "pure-sets", "d1": 2, "d2": 2,
                "states_in": [vector_to_json(bell)], "states_out": [vector_to_json(product)]}
        M = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        M[0, 1], M[1, 0] = 1e200, -1e200
        mixed = {"mode": "generic-mixed", "d1": 2, "d2": 2,
                 "rho": matrix_to_json(M), "sigma": matrix_to_json(np.diag([0.4, 0.3, 0.2, 0.1]))}
        for name, doc, code in (("p", pure, 1), ("g", mixed, 3)):
            path = tmp_path / f"{name}.json"
            path.write_text(dumps_document(doc))
            assert main(["decide", str(path), "--seed", "6",
                         "-o", str(tmp_path / f"{name}.out")]) == code
        assert "density matrix is not Hermitian" in capsys.readouterr().err

    def test_unilocal_mode(self, tmp_path, rng):
        d1, d2 = 2, 2
        big = np.kron(haar(d1, rng), np.eye(d2))
        rhos = [random_density(d1, d2, rng) for _ in range(2)]
        doc = {
            "mode": "unilocal-mixed", "d1": d1, "d2": d2,
            "rhos": [matrix_to_json(r.matrix) for r in rhos],
            "sigmas": [matrix_to_json(big @ r.matrix @ big.conj().T) for r in rhos],
        }
        path = tmp_path / "u.json"
        path.write_text(dumps_document(doc))
        assert main(["decide", str(path), "--seed", "6"]) == 0
        v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
        for out in (v1, v2):
            assert main(["decide", str(path), "--seed", "6", "--verbose", "-o", str(out)]) == 0
        assert _strip_timing(v1) == _strip_timing(v2)
        out = json.loads(v1.read_text())
        assert out["verdict"] == "YES" and out["V"] is None
        assert set(out["aux"]) == {"pivot_clusters", "pivot_merged_gap", "pivot_split_gap",
                                   "pivot_unknowns", "pivot_free_units",
                                   "pivot_coupling_margin", "uv_gap"}

    def test_generic_mixed_mode_and_precondition(self, tmp_path, rng):
        d1 = d2 = 2
        rho = random_density(d1, d2, rng, min_gap=1e-3)
        local = np.kron(haar(d1, rng), haar(d2, rng))
        doc = {
            "mode": "generic-mixed", "d1": d1, "d2": d2,
            "rho": matrix_to_json(rho.matrix),
            "sigma": matrix_to_json(local @ rho.matrix @ local.conj().T),
        }
        path = tmp_path / "g.json"
        path.write_text(dumps_document(doc))
        assert main(["decide", str(path), "--seed", "6"]) == 0
        degenerate = {
            "mode": "generic-mixed", "d1": d1, "d2": d2,
            "rho": matrix_to_json(np.eye(4) / 4.0),
            "sigma": matrix_to_json(np.eye(4) / 4.0),
        }
        path2 = tmp_path / "deg.json"
        path2.write_text(dumps_document(degenerate))
        assert main(["decide", str(path2), "--seed", "6"]) == 5

    @pytest.mark.parametrize("local, code, counts", [(True, 0, (1, 1)), (False, 1, (0, 0))],
                             ids=["local-yes", "global-no"])
    def test_generic_mixed_verbose_counts_rerun_identically(self, tmp_path, rng, local, code,
                                                            counts):
        d1 = d2 = 2
        rho = random_density(d1, d2, rng, min_gap=1e-3)
        W = np.kron(haar(d1, rng), haar(d2, rng)) if local else haar(d1 * d2, rng)
        doc = {
            "mode": "generic-mixed", "d1": d1, "d2": d2,
            "rho": matrix_to_json(rho.matrix),
            "sigma": matrix_to_json(W @ rho.matrix @ W.conj().T),
        }
        path = tmp_path / "g.json"
        path.write_text(dumps_document(doc))
        v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
        for out in (v1, v2):
            assert main(["decide", str(path), "--seed", "6", "--verbose", "-o", str(out)]) == code
        aux = json.loads(v1.read_text())["aux"]
        assert (aux["phase_components"], aux["grid_solves"]) == counts
        assert _strip_timing(v1) == _strip_timing(v2)


def _state_doc(mode, rng):
    """A YES instance document of a mode other than matrix-pairs."""
    if mode == "matpoly":
        A = ginibre(2, 2, rng) + 2 * np.eye(2)
        B = ginibre(3, 3, rng) + 2 * np.eye(3)
        coeffs = [ginibre(2, 3, rng) for _ in range(2)]
        return {"mode": mode, "d1": 2, "d2": 3,
                "P": [matrix_to_json(C) for C in coeffs],
                "Q": [matrix_to_json(A @ C @ np.linalg.inv(B)) for C in coeffs]}
    local = np.kron(haar(2, rng), haar(2, rng))
    if mode == "pure-sets":
        vecs = [ginibre(1, 4, rng).ravel() for _ in range(3)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        return {"mode": mode, "d1": 2, "d2": 2,
                "states_in": [vector_to_json(v) for v in vecs],
                "states_out": [vector_to_json(local @ v) for v in vecs]}
    if mode == "unilocal-mixed":
        big = np.kron(haar(2, rng), np.eye(2))
        rhos = [random_density(2, 2, rng) for _ in range(2)]
        return {"mode": mode, "d1": 2, "d2": 2,
                "rhos": [matrix_to_json(r.matrix) for r in rhos],
                "sigmas": [matrix_to_json(big @ r.matrix @ big.conj().T) for r in rhos]}
    rho = random_density(2, 2, rng, min_gap=1e-3)
    return {"mode": mode, "d1": 2, "d2": 2, "rho": matrix_to_json(rho.matrix),
            "sigma": matrix_to_json(local @ rho.matrix @ local.conj().T)}


STATE_MODES = ("pure-sets", "unilocal-mixed", "generic-mixed", "matpoly")


def _no_doc(mode, rng):
    """A NO instance document of a mode other than matrix-pairs: a YES of
    _state_doc whose output side is that of another, independent YES; for
    matpoly, whose generic 2x3 pencils are all equivalent, two square pencils
    with different eigenvalues."""
    if mode == "matpoly":
        P, Q = ([matrix_to_json(np.eye(2)), matrix_to_json(np.diag([1.0, e]))] for e in (2.0, 3.0))
        return {"mode": mode, "d1": 2, "d2": 2, "P": P, "Q": Q}
    doc, other = _state_doc(mode, rng), _state_doc(mode, rng)
    key = {"pure-sets": "states_out", "unilocal-mixed": "sigmas", "generic-mixed": "sigma"}[mode]
    return {**doc, key: other[key]}


class TestVerify:
    @staticmethod
    def _decided(tmp_path, mode, rng):
        """(instance path, certificate {U, V} taken from the verdict document)."""
        inst_path, verdict_path = tmp_path / "i.json", tmp_path / "v.json"
        inst_path.write_text(dumps_document(_state_doc(mode, rng)))
        assert main(["decide", str(inst_path), "--seed", "3", "-o", str(verdict_path)]) == 0
        doc = json.loads(verdict_path.read_text())
        return inst_path, {"U": doc["U"], "V": doc["V"]}

    @staticmethod
    def _verify(tmp_path, inst_path, cert):
        cert_path = tmp_path / "c.json"
        cert_path.write_text(json.dumps(cert))
        return main(["verify", str(inst_path), str(cert_path)])

    @pytest.mark.parametrize("mode", STATE_MODES)
    def test_decide_certificate_reverifies_in_every_mode(self, tmp_path, rng, mode):
        inst_path, cert = self._decided(tmp_path, mode, rng)
        assert (cert["V"] is None) == (mode == "unilocal-mixed")
        assert self._verify(tmp_path, inst_path, cert) == 0

    @pytest.mark.parametrize("mode", STATE_MODES)
    def test_perturbed_certificate_rejected_in_every_mode(self, tmp_path, rng, mode):
        inst_path, cert = self._decided(tmp_path, mode, rng)
        # matpoly's A is unnormalized, so its step scales with ||A||_F
        step = 1e-3 * np.linalg.norm(matrix_from_json(cert["U"], "U")) if mode == "matpoly" else 1e-3
        cert["U"][0][0][0] += step
        assert self._verify(tmp_path, inst_path, cert) == 1

    @pytest.mark.parametrize("mode", STATE_MODES)
    def test_misshapen_certificate_exits_3(self, tmp_path, rng, mode):
        inst_path, cert = self._decided(tmp_path, mode, rng)
        wrong_v = matrix_to_json(np.eye(2)) if mode == "unilocal-mixed" else None
        assert self._verify(tmp_path, inst_path, {"U": cert["U"], "V": wrong_v}) == 3
        assert self._verify(tmp_path, inst_path, {"U": matrix_to_json(np.eye(5)), "V": cert["V"]}) == 3

    @pytest.mark.parametrize("tol", ["0", "-1", "2"])
    def test_out_of_range_tolerance_exits_64_before_reading_either_file(self, tmp_path, capsys,
                                                                        tol):
        inst_path, wit_path = tmp_path / "i.json", tmp_path / "w.json"
        main(["gen", "--yes", "--d1", "2", "--d2", "3", "--seed", "11",
              "-o", str(inst_path), "--witness", str(wit_path)])
        capsys.readouterr()
        for paths in ((inst_path, wit_path), (tmp_path / "missing.json", tmp_path / "none.json")):
            assert main(["verify", *map(str, paths), "--tol-residual", tol]) == 64
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == f"error: --tol-residual must lie strictly in (0, 1), got {float(tol)}\n"

    def test_verdict_document_verifies_under_its_mode(self, tmp_path, rng):
        # the file names no mode, so read alone it would be matrix-pairs
        doc = _state_doc("matpoly", rng)
        del doc["mode"]
        inst_path, verdict_path = tmp_path / "i.json", tmp_path / "v.json"
        inst_path.write_text(dumps_document(doc))
        assert main(["decide", str(inst_path), "--mode", "matpoly", "--seed", "1",
                     "-o", str(verdict_path)]) == 0
        assert main(["verify", str(inst_path), str(verdict_path)]) == 0

    def test_verify_does_not_import_the_list_writer(self, tmp_path):
        inst_path, wit_path = tmp_path / "i.json", tmp_path / "w.json"
        main(["gen", "--yes", "--d1", "3", "--d2", "3", "--m", "1", "--seed", "21",
              "-o", str(inst_path), "--witness", str(wit_path)])
        code = ("import sys; from uniequiv.cli import main; "
                "print(main(sys.argv[1:]), 'orjson' in sys.modules)")
        src = str(Path(uniequiv.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code, "verify", str(inst_path), str(wit_path)],
                              capture_output=True, text=True, timeout=120, check=False,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.splitlines()[-1] == "0 False", proc.stdout + proc.stderr

    def test_decide_and_verify_do_not_import_numpy_random(self, tmp_path, rng):
        # the draws are the package's own; numpy.random would bring secrets
        # and OpenSSL's _hashlib into every cold decide. gen, which uses
        # numpy's Generator, runs last: it shows that the probe sees them
        paths = {}
        for label in ("yes", "no"):
            paths["matrix-pairs", label] = tmp_path / f"pairs-{label}.json"
            main(["gen", f"--{label}", "--d1", "3", "--d2", "3", "--m", "1", "--seed", "21",
                  "-o", str(paths["matrix-pairs", label])])
        for mode in STATE_MODES:
            for label, doc in (("yes", _state_doc(mode, rng)), ("no", _no_doc(mode, rng))):
                paths[mode, label] = tmp_path / f"{mode}-{label}.json"
                paths[mode, label].write_text(dumps_document(doc))
        verdict_path = tmp_path / "v.json"
        runs = [["decide", str(path), "--seed", "3", "-o", str(verdict_path)]
                for path in paths.values()]
        runs.insert(1, ["verify", str(paths["matrix-pairs", "yes"]), str(verdict_path)])
        runs.append(["gen", "--yes", "--d1", "2", "--d2", "2", "--seed", "1",
                     "-o", str(tmp_path / "g.json")])
        code = ("import json, sys; from uniequiv.cli import main; "
                "print(json.dumps([(main(run), [m for m in ('numpy.random', 'secrets', "
                "'_hashlib') if m in sys.modules]) for run in json.loads(sys.argv[1])]))")
        src = str(Path(uniequiv.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                              capture_output=True, text=True, timeout=120, check=False,
                              env={**os.environ, "PYTHONPATH": src})
        results = json.loads(proc.stdout.splitlines()[-1])
        codes = [0, 0, 1] + [0, 1] * len(STATE_MODES) + [0]  # decide: 0 YES, 1 NO
        assert [status for status, _ in results] == codes, proc.stdout + proc.stderr
        assert [seen for _, seen in results[:-1]] == [[]] * (len(runs) - 1)
        assert results[-1][1] == ["numpy.random", "secrets", "_hashlib"]

    def test_witness_verifies(self, tmp_path):
        inst_path, wit_path = tmp_path / "i.json", tmp_path / "w.json"
        main(["gen", "--yes", "--d1", "3", "--d2", "3", "--m", "1", "--seed", "21",
              "-o", str(inst_path), "--witness", str(wit_path)])
        assert main(["verify", str(inst_path), str(wit_path)]) == 0

    def test_decide_certificate_reverifies(self, tmp_path):
        inst_path, verdict_path = tmp_path / "i.json", tmp_path / "v.json"
        main(["gen", "--yes", "--d1", "2", "--d2", "4", "--m", "2", "--seed", "31",
              "-o", str(inst_path)])
        assert main(["decide", str(inst_path), "--seed", "5", "-o", str(verdict_path)]) == 0
        doc = json.loads(verdict_path.read_text())
        cert_path = tmp_path / "c.json"
        cert_path.write_text(json.dumps({"U": doc["U"], "V": doc["V"]}))
        assert main(["verify", str(inst_path), str(cert_path)]) == 0

    def test_perturbed_certificate_rejected(self, tmp_path):
        inst_path, wit_path = tmp_path / "i.json", tmp_path / "w.json"
        main(["gen", "--yes", "--d1", "2", "--d2", "2", "--seed", "41",
              "-o", str(inst_path), "--witness", str(wit_path)])
        cert = json.loads(wit_path.read_text())
        cert["U"][0][0][0] += 1e-3  # break unitarity
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(cert))
        assert main(["verify", str(inst_path), str(bad_path)]) == 1

    def test_identity_certificate_on_identical_pairs(self, tmp_path, rng):
        X = ginibre(2, 3, rng)
        doc = {
            "mode": "matrix-pairs", "d1": 2, "d2": 3,
            "pairs": [{"X": matrix_to_json(X), "Y": matrix_to_json(X)}],
        }
        inst_path = tmp_path / "i.json"
        inst_path.write_text(dumps_document(doc))
        cert_path = tmp_path / "c.json"
        cert_path.write_text(json.dumps(
            {"U": matrix_to_json(np.eye(2)), "V": matrix_to_json(np.eye(3))}
        ))
        assert main(["verify", str(inst_path), str(cert_path)]) == 0

    def test_unreadable_files_exit_3_with_the_reader_message(self, tmp_path, capsys):
        inst_path, wit_path = tmp_path / "i.json", tmp_path / "w.json"
        main(["gen", "--yes", "--d1", "2", "--d2", "2", "--seed", "51",
              "-o", str(inst_path), "--witness", str(wit_path)])
        missing, invalid, binary = (tmp_path / name for name in ("none.json", "bad.json", "b.json"))
        invalid.write_text('{"U": [[[1.0, 0.0]]],\n "V": ')
        binary.write_bytes(b"\xff\xfe")
        capsys.readouterr()
        for paths, message in [
                ((inst_path, missing),
                 f"cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"),
                ((inst_path, invalid), f"{invalid}: invalid JSON at line 2: Expecting value"),
                ((inst_path, binary), f"cannot read {binary}: 'utf-8' codec can't decode byte "
                                      "0xff in position 0: invalid start byte"),
                ((missing, wit_path),
                 f"cannot read {missing}: [Errno 2] No such file or directory: '{missing}'")]:
            assert main(["verify", *map(str, paths)]) == 3
            out = capsys.readouterr()
            assert out.out == "" and out.err == f"error: {message}\n"

    def test_matpoly_of_unequal_degrees_exits_3(self, tmp_path, capsys):
        # P = I + t D against Q = I: the parser rejects the unequal lists
        # before certificate_residuals, which would reject them too, sees them
        doc = {"mode": "matpoly", "d1": 2, "d2": 2,
               "P": [matrix_to_json(np.eye(2)), matrix_to_json(np.diag([1.0, 2.0]))],
               "Q": [matrix_to_json(np.eye(2))]}
        inst_path = tmp_path / "i.json"
        inst_path.write_text(dumps_document(doc))
        assert self._verify(tmp_path, inst_path,
                            {"U": matrix_to_json(np.eye(2)), "V": matrix_to_json(np.eye(2))}) == 3
        assert capsys.readouterr().err == "error: P and Q must have equal length\n"

    def test_shape_mismatch_exits_3(self, tmp_path):
        inst_path = tmp_path / "i.json"
        main(["gen", "--yes", "--d1", "2", "--d2", "2", "--seed", "51", "-o", str(inst_path)])
        cert_path = tmp_path / "c.json"
        cert_path.write_text(json.dumps(
            {"U": matrix_to_json(np.eye(3)), "V": matrix_to_json(np.eye(2))}
        ))
        assert main(["verify", str(inst_path), str(cert_path)]) == 3


def _span_yes_doc(rng):
    """A planted YES over G1 = M_2 (+) M_1, the span of five matrix units, and G2 full."""
    units = [np.outer(np.eye(3)[i], np.eye(3)[j])
             for i, j in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))]
    U = np.eye(3, dtype=complex)
    U[:2, :2], U[2, 2] = haar(2, rng), np.exp(2j * np.pi * rng.uniform())
    V = haar(2, rng)
    Xs = [ginibre(3, 2, rng) for _ in range(2)]
    return {"mode": "matrix-pairs", "d1": 3, "d2": 2,
            "pairs": [{"X": matrix_to_json(X), "Y": matrix_to_json(U @ X @ V.conj().T)}
                      for X in Xs],
            "G1": {"kind": "span", "basis": [matrix_to_json(E) for E in units]}}


def _near_dependent_span_doc(rng):
    """X = Y over G1 = span {I, diag(1, 1 + 1e-11)}: sigma_min/sigma_max 2.5e-12,
    independent only below the default rank_rel 1e-10."""
    X = matrix_to_json(ginibre(2, 2, rng))
    return {"mode": "matrix-pairs", "d1": 2, "d2": 2, "pairs": [{"X": X, "Y": X}],
            "G1": {"kind": "span", "basis": [matrix_to_json(np.eye(2)),
                                             matrix_to_json(np.diag([1.0, 1.0 + 1e-11]))]}}


def _unclosed_span_pair_doc(rng):
    """G1 = span {I, E_01, E_10} on C^2, independent but not closed
    (E_01 E_10 = E_00), G2 full, and one pair whose singular values differ."""
    units = [np.eye(2), np.outer(np.eye(2)[0], np.eye(2)[1]), np.outer(np.eye(2)[1], np.eye(2)[0])]
    return {"mode": "matrix-pairs", "d1": 2, "d2": 2,
            "pairs": [{"X": matrix_to_json(np.diag([1.0, 2.0])),
                       "Y": matrix_to_json(np.diag([1.0, 3.0]))}],
            "G1": {"kind": "span", "basis": [matrix_to_json(E) for E in units]}}


def _ill_conditioned_matpoly_doc(rng):
    """A 3x3 planted matpoly YES whose planted A = Q1 diag(1, 1, 1e-11) Q2 has
    condition number 1e11, above 1 / rank_rel at the default."""
    A = haar(3, rng) @ np.diag([1.0, 1.0, 1e-11]) @ haar(3, rng)
    B = ginibre(3, 3, rng) + 2 * np.eye(3)
    coeffs = [ginibre(3, 3, rng) for _ in range(2)]
    return {"mode": "matpoly", "d1": 3, "d2": 3, "P": [matrix_to_json(C) for C in coeffs],
            "Q": [matrix_to_json(A @ C @ np.linalg.inv(B)) for C in coeffs]}


def _non_hermitian_generic_doc(rng):
    """A 2x2 generic-mixed YES whose rho and sigma have Hermitian defect
    ||M - M^dag||_F = 4e-11: within the reader's 1e-10, above 1e-11."""
    E = ginibre(4, 4, rng)
    np.fill_diagonal(E, 0.0)
    N = (E - E.conj().T) / np.linalg.norm(E - E.conj().T)
    rho = random_density(2, 2, rng, min_gap=1e-3).matrix + 2e-11 * N
    W = np.kron(haar(2, rng), haar(2, rng))
    return {"mode": "generic-mixed", "d1": 2, "d2": 2,
            "rho": matrix_to_json(rho), "sigma": matrix_to_json(W @ rho @ W.conj().T)}


def _ill_conditioned_span_doc(rng):
    """A planted YES with diagonal U and V over G1 = G2 = span {I, diag(1, 1 + 1e-8)},
    a basis of condition number about 4e8."""
    G = {"kind": "span", "basis": [matrix_to_json(np.eye(2)),
                                   matrix_to_json(np.diag([1.0, 1.0 + 1e-8]))]}
    U, V = (np.diag(np.exp(2j * np.pi * rng.uniform(size=2))) for _ in range(2))
    Xs = [ginibre(2, 2, rng) for _ in range(2)]
    return {"mode": "matrix-pairs", "d1": 2, "d2": 2,
            "pairs": [{"X": matrix_to_json(X), "Y": matrix_to_json(U @ X @ V.conj().T)}
                      for X in Xs],
            "G1": G, "G2": G}


def _moved_closure_span_doc(rng, nudge):
    """A planted YES with diagonal U over G1 = M_2 (+) M_1 with E_01 moved to
    E_01 + nudge E_02, and G2 full: U lies in the moved span, which is closed
    and star-closed only up to nudge."""
    units = [np.outer(np.eye(3)[i], np.eye(3)[j])
             for i, j in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))]
    units[1] = units[1] + nudge * np.outer(np.eye(3)[0], np.eye(3)[2])
    U, V = np.diag(np.exp(2j * np.pi * rng.uniform(size=3))), haar(2, rng)
    Xs = [ginibre(3, 2, rng) for _ in range(2)]
    return {"mode": "matrix-pairs", "d1": 3, "d2": 2,
            "pairs": [{"X": matrix_to_json(X), "Y": matrix_to_json(U @ X @ V.conj().T)}
                      for X in Xs],
            "G1": {"kind": "span", "basis": [matrix_to_json(E) for E in units]}}


PLANTED_YES = {
    "pairs-full": lambda rng: instance_to_json(random_yes_instance(2, 3, 1, seed=1)[0]),
    "pairs-factor": lambda rng: instance_to_json(
        random_yes_instance(4, 4, 1, ("factor", 2, 2), ("factor", 2, 2), seed=2)[0]),
    "pairs-span": _span_yes_doc,
    **{mode: (lambda rng, mode=mode: _state_doc(mode, rng)) for mode in STATE_MODES},
}
EDGE_FILES = {
    "near-dependent-span": _near_dependent_span_doc,
    "ill-conditioned-matpoly": _ill_conditioned_matpoly_doc,
    "non-hermitian-generic": _non_hermitian_generic_doc,
    "ill-conditioned-span": _ill_conditioned_span_doc,
    # closed within the fixed residual_abs 1e-8, and outside it
    "nudged-closure-span": lambda rng: _moved_closure_span_doc(rng, 1e-10),
    "loose-closure-span": lambda rng: _moved_closure_span_doc(rng, 1e-7),
    # an invalid algebra exits 4 before any NO its pairs' spectra would give
    "unclosed-span-pair": _unclosed_span_pair_doc,
}
# the edge files that decide answers YES at every setting
EDGE_YES = ("ill-conditioned-span", "nudged-closure-span")
# (--tol-rank, --tol-residual)
TOLERANCE_SETTINGS = [("1e-13", "1e-11"), ("1e-10", "1e-8"), ("1e-6", "1e-5")]


class TestDecideThenVerify:
    """Tolerances steer the solve, never what counts as a valid file, algebra
    or certificate: every YES of decide verifies at its --tol-residual, and a
    file decide calls malformed (exit 3) or an invalid algebra (exit 4) at one
    setting is so at every setting, and to verify too."""

    @pytest.mark.parametrize("name", [*PLANTED_YES, *EDGE_FILES])
    def test_at_every_setting(self, tmp_path, capsys, rng, name):
        doc = {**PLANTED_YES, **EDGE_FILES}[name](rng)
        inst, out, cert = tmp_path / "i.json", tmp_path / "v.json", tmp_path / "c.json"
        inst.write_text(dumps_document(doc))
        # a certificate of the right shapes, to show whether verify reads the file
        cert.write_text(json.dumps({
            "U": matrix_to_json(np.eye(doc["d1"])),
            "V": None if doc["mode"] == "unilocal-mixed" else matrix_to_json(np.eye(doc["d2"]))}))
        codes = []
        for rank, residual in TOLERANCE_SETTINGS:
            out.unlink(missing_ok=True)
            code = main(["decide", str(inst), "--seed", "1", "--tol-rank", rank,
                         "--tol-residual", residual, "-o", str(out)])
            capsys.readouterr()
            codes.append(code)
            assert code == 0 or name in EDGE_FILES and name not in EDGE_YES, (rank, code)
            if code == 0:
                assert main(["verify", str(inst), str(out), "--tol-residual", residual]) == 0, rank
                residual_line = f"residual: {json.loads(out.read_text())['residual']:.6e}  "
                assert capsys.readouterr().out.startswith(residual_line)
            # either command that rejects the file (3, 4) is matched by the other
            checked = main(["verify", str(inst), str(cert), "--tol-residual", residual])
            capsys.readouterr()
            assert checked == code or {checked, code}.isdisjoint({3, 4}), (rank, code, checked)
        assert not {3, 4} & set(codes) or len(set(codes)) == 1, codes


def _without_timing(text):
    """A document's text without its `"timing"` line (one top-level key per line)."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith('  "timing": '))


class TestProcessEntry:
    """run() is main() with the collector frozen after it, so the
    interpreter's shutdown collections skip the objects made at import."""

    def test_main_leaves_the_collector_unfrozen(self, tmp_path):
        # library callers and this test process keep their collector as it was
        before = gc.get_freeze_count()
        inst_path = tmp_path / "i.json"
        assert main(["gen", "--yes", "--d1", "2", "--d2", "2", "--seed", "3",
                     "-o", str(inst_path)]) == 0
        assert main(["decide", str(inst_path), "--seed", "1", "-o", str(tmp_path / "v.json")]) == 0
        with pytest.raises(SystemExit):
            main(["decide"])
        assert gc.get_freeze_count() == before

    def test_run_returns_the_status_of_main_and_freezes(self, tmp_path, capsys):
        inst_path = tmp_path / "i.json"
        assert main(["gen", "--no", "--d1", "2", "--d2", "2", "--seed", "3",
                     "-o", str(inst_path)]) == 0
        before = gc.get_freeze_count()
        try:
            assert run(["decide", str(inst_path), "--seed", "1",
                        "-o", str(tmp_path / "v.json")]) == 1
            assert gc.get_freeze_count() > before
            gc.unfreeze()
            # argparse exits through SystemExit; the collector is frozen all the same
            with pytest.raises(SystemExit) as exc:
                run(["decide"])
            assert exc.value.code == 64
            assert gc.get_freeze_count() > before
        finally:
            gc.unfreeze()
        assert "error: the following arguments are required" in capsys.readouterr().err

    def test_an_escaping_exception_is_an_internal_error_not_a_no(self, tmp_path, capsys,
                                                              monkeypatch):
        def crash(*args):
            raise MemoryError("Unable to allocate 12.4 GiB")

        inst_path, out = tmp_path / "i.json", tmp_path / "v.json"
        assert main(["gen", "--yes", "--d1", "2", "--d2", "2", "--seed", "3",
                     "-o", str(inst_path)]) == 0
        monkeypatch.setattr(cli, "decide_uep", crash)
        try:
            for entry in (main, run):
                capsys.readouterr()
                assert entry(["decide", str(inst_path), "--seed", "1", "-o", str(out)]) == 70
                assert cli.EXIT_INTERNAL == 70 != cli.EXIT_NO
                assert capsys.readouterr() == ("", "error: internal MemoryError: Unable to "
                                                   "allocate 12.4 GiB\n")
                assert not out.exists()
        finally:
            gc.unfreeze()

    def test_a_system_over_the_budget_exits_inconclusive(self, tmp_path, monkeypatch):
        # one 3 x 3 pair is never read, and its reduced system of 3 unknowns
        # takes 16 * 3 * (2 * 9 + 18) bytes: over a budget one byte short it
        # is not allocated, and the verdict INCONCLUSIVE exits 2, not 1 or 70
        inst_path, out = tmp_path / "i.json", tmp_path / "v.json"
        assert main(["gen", "--yes", "--d1", "3", "--d2", "3", "--m", "0", "--seed", "3",
                     "-o", str(inst_path)]) == 0
        monkeypatch.setattr(solver_mod, "_MAX_SYSTEM_BYTES", 16 * 3 * 36 - 1)
        monkeypatch.setattr(solver_mod, "_pivot_system", None)  # calling it would raise
        assert main(["decide", str(inst_path), "--seed", "1", "-o", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert (doc["verdict"], doc["detail"]) == (
            "INCONCLUSIVE", "the reduced system of 3 unknowns would take 1728 bytes, over the "
            "budget of 1727 bytes")

    def test_a_process_writes_what_main_writes(self, tmp_path, capsys):
        # nothing is lost at exit: each `python -m uniequiv.cli` run gives the
        # exit status, stderr and document (without timing) of main in process
        yes, no, wit = tmp_path / "yes.json", tmp_path / "no.json", tmp_path / "w.json"
        main(["gen", "--yes", "--d1", "3", "--d2", "2", "--m", "1", "--seed", "11",
              "-o", str(yes), "--witness", str(wit)])
        main(["gen", "--no", "--d1", "2", "--d2", "3", "--seed", "9", "-o", str(no)])
        bad, out = tmp_path / "bad.json", tmp_path / "v.json"
        bad.write_text('{"mode": "matrix-pairs", "d1": 2')
        src = str(Path(uniequiv.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
        capsys.readouterr()
        seen = []
        for argv, path in [(["decide", str(yes), "--seed", "2"], None),
                           (["decide", str(no), "--seed", "1", "-o", str(out)], out),
                           (["decide", str(bad), "--seed", "1"], None),
                           (["verify", str(yes), str(wit)], None)]:
            proc = subprocess.run([sys.executable, "-m", "uniequiv.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120, check=False)
            document = path.read_text() if path else proc.stdout
            code = main(argv)
            expected = capsys.readouterr()
            assert (proc.returncode, proc.stderr) == (code, expected.err)
            assert _without_timing(document) == _without_timing(
                path.read_text() if path else expected.out)
            seen.append((code, proc.stderr, document))
        (yes_code, _, yes_doc), (no_code, _, no_doc), truncated, verified = seen
        assert yes_code == 0 and '"verdict": "YES"' in yes_doc
        assert no_code == 1 and '"verdict": "NO"' in no_doc
        assert truncated == (3, f"error: {bad}: invalid JSON at line 1: "
                                "Expecting ',' delimiter\n", "")
        assert verified[0] == 0 and verified[2].startswith("residual: ")
