import json

import numpy as np
import pytest

from uniequiv.cli import main
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
    (["--phase-grid", "0"], "--phase-grid must be at least 1, got 0"),
    (["--phase-grid", "-3"], "--phase-grid must be at least 1, got -3"),
    (["--trials", "0"], "--trials must be positive"),
    (["--sample-max", "1"], "--sample-max must be at least 2"),
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

    def test_usage_error_exits_64(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["decide"])  # missing instance and --seed
        assert exc.value.code == 64

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

        def counted(doc, mode=None):
            calls.append(mode)
            return parse(doc, mode)

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
        assert set(aux) == {"pivot_unknowns", "pivot_free_units", "pivot_coupling_margin"}
        assert aux["pivot_coupling_margin"] > 1.0

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

    def test_shape_mismatch_exits_3(self, tmp_path):
        inst_path = tmp_path / "i.json"
        main(["gen", "--yes", "--d1", "2", "--d2", "2", "--seed", "51", "-o", str(inst_path)])
        cert_path = tmp_path / "c.json"
        cert_path.write_text(json.dumps(
            {"U": matrix_to_json(np.eye(3)), "V": matrix_to_json(np.eye(2))}
        ))
        assert main(["verify", str(inst_path), str(cert_path)]) == 3
