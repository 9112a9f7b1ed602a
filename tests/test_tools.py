"""Smoke tests of the comparison tools: a tree compared with itself differs
nowhere (tools/verdict_diff.py), which tallies differences by key and case
kind, and tools/case_ab.py prints one timing line
per case of a cycle, or per matched case with --match, and the cycle total,
each with the rounds won by either tree and both trees' quartiles. And
tools/src_lines.py counts only the lines that hold code, and
tools/src_coverage.py lists the statements a run never executes. Both
comparison tools reject a workload that perfbench/workloads.py does not
define."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_verdict_diff_of_the_tree_against_itself_is_empty():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "verdict_diff.py"), str(ROOT),
         "--workload", "unilocal-factor", "--seed", "11"],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # 21 cases of one cycle and the warm-up, each decided in both processes
    assert proc.stdout.splitlines() == [
        "22 documents: 0 differ in a compared key, 22 byte-identical without timing,"
        " 22 value-identical"]


def test_verdict_diff_tallies_each_key_and_case_kind():
    spec = importlib.util.spec_from_file_location("verdict_diff", ROOT / "tools" / "verdict_diff.py")
    verdict_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(verdict_diff)

    def reply(verdict, aux, timing=0.1, U="[1.0,2.0]"):
        # a document as dumps_document lays it out
        text = f'{{\n  "verdict": "{verdict}",\n  "U": {U},\n  "timing": {timing}\n}}\n'
        return {"text": text, "aux": aux}

    requests = [(f"states-small s11 #{i} {kind} d=8", "", i + 1)
                for i, kind in enumerate(["matpoly/yes", "matpoly/yes", "matpoly/random-no",
                                          "pure/yes"])]
    mine = [reply("YES", {"pivot_unknowns": 8, "pivot_eigen_margin": None}),
            reply("YES", {"pivot_unknowns": 9, "pivot_eigen_margin": None}),
            reply("NO", {"pivot_unknowns": 64, "pivot_eigen_margin": None}),
            reply("NO", {})]
    # timing never counts; the spacing of U counts only for the raw text
    theirs = [reply("YES", {"pivot_unknowns": 64}, timing=0.2),
              reply("YES", {"pivot_unknowns": 81}, U="[1.0, 2.0]"),
              reply("NO", {"pivot_unknowns": 64}), reply("YES", {})]
    lines, differing, identical, same_value = verdict_diff.compare(requests, mine, theirs)
    # sorted by key, then kind
    assert lines == [
        "pivot_eigen_margin: 1 documents (matpoly/random-no), first "
        "states-small s11 #2 matpoly/random-no d=8",
        "pivot_eigen_margin: 2 documents (matpoly/yes), first states-small s11 #0 matpoly/yes d=8",
        "pivot_unknowns: 2 documents (matpoly/yes), first states-small s11 #0 matpoly/yes d=8",
        "verdict: 1 documents (pure/yes), first states-small s11 #3 pure/yes d=8"]
    assert (differing, identical, same_value) == (4, 2, 3)


def test_case_ab_of_the_tree_against_itself_prints_every_case_and_the_cycle():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "case_ab.py"), str(ROOT),
         "--workload", "unilocal-factor", "--seed", "11", "--rounds", "1"],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *cases, cycle = proc.stdout.splitlines()
    assert header.split() == ["case", "here", "(s)", "there", "(s)", "change", "won", "here/there",
                              "here", "q1-q3", "(s)", "there", "q1-q3", "(s)"]
    # the timings are not checked, only the format and what one round implies:
    # 21 cases of one cycle, each round won by at most one tree, and every
    # quartile the round's own time
    t = r"(\d+\.\d{6})"
    timing = rf"\s+{t}\s+{t}\s+[+-]\d+\.\d%\s+(\d+)/(\d+)\s+{t}-{t}\s+{t}-{t}$"
    assert len(cases) == 21
    for i, line in enumerate(cases + [cycle]):
        label = f"#{i} \\S+ .*?" if i < len(cases) else "cycle"
        match = re.fullmatch(label + timing, line)
        assert match, line
        here, there, won_here, won_there, *quartiles = match.groups()
        assert int(won_here) + int(won_there) <= 1
        assert quartiles == [here, here, there, there]


def test_case_ab_match_times_only_the_cases_of_that_kind():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "case_ab.py"), str(ROOT),
         "--workload", "states-small", "--seed", "11", "--rounds", "1", "--match", "generic/yes"],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    _, *cases, cycle = proc.stdout.splitlines()
    # the six generic-mixed YES cases of the 51 in the cycle, under their cycle index
    assert [line.split()[:2] for line in cases] == [
        [f"#{i}", "generic/yes"] for i in (13, 14, 24, 29, 38, 42)]
    assert cycle.startswith("cycle ")


def test_case_ab_match_without_a_case_is_an_error():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "case_ab.py"), str(ROOT),
         "--workload", "states-small", "--match", "no-such-kind"],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 2
    assert ("no case of states-small at seed 11 has a kind starting with 'no-such-kind'"
            in proc.stderr)


@pytest.mark.parametrize("tool", ["case_ab.py", "verdict_diff.py"])
def test_unknown_workload_names_those_of_perfbench(tool):
    # the names come from perfbench/workloads.py, so a workload added there
    # reaches both tools without a change to them
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / tool), str(ROOT), "--workload", "pairs-ful"],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].endswith(
        "error: unknown workload 'pairs-ful'; expected one of "
        "pairs-full, unilocal-factor, states-small, cli-cold")


# 8 lines of code: the docstrings of the module, the class and both functions,
# blank lines and comment lines are left out; a trailing comment, a string
# that is not a docstring and a continued expression count
FIXTURE = '''"""A module docstring
over two lines."""

import math  # a trailing comment


# a comment line
class Box:
    """A class docstring."""

    size = 3


def area(r):
    """A function docstring
    over two lines."""
    text = """a string
    that is not a docstring"""
    return (math.pi
            * r * r)
'''


def test_src_lines_counts_only_code(tmp_path):
    fixture = tmp_path / "fixture.py"
    fixture.write_text(FIXTURE)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py"), str(fixture), str(fixture)],
        capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["8", str(fixture)], ["8", str(fixture)], ["16", "total"]]


def test_src_lines_defaults_to_every_module_of_the_package():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py")],
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *modules, total = [line.split() for line in proc.stdout.splitlines()]
    assert [Path(path).name for _, path in modules] == sorted(
        path.name for path in (ROOT / "src" / "uniequiv").glob("*.py"))
    assert total == [str(sum(int(count) for count, _ in modules)), "total"]


def test_src_coverage_lists_each_statement_never_run(tmp_path):
    spec = importlib.util.spec_from_file_location("src_coverage",
                                                  ROOT / "tools" / "src_coverage.py")
    src_coverage = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_coverage)
    root = tmp_path.resolve()
    path = root / "tiny.py"
    path.write_text('"""A module."""\n\n\ndef f(x):\n    """Doc."""\n    if x:\n'
                    "        return 1\n    return (2 +\n            3)\n")
    spec = importlib.util.spec_from_file_location("tiny", path)
    tiny = importlib.util.module_from_spec(spec)
    with src_coverage.LineTrace(root) as trace:
        spec.loader.exec_module(tiny)
        assert tiny.f(True) == 1
    # the statements are the def, the if and both returns; docstrings are not
    assert src_coverage.report([path], trace.hits, root) == [
        "tiny.py:8: return (2 +", "1 of 4 statements not executed"]
