"""Smoke tests of the tools: tools/ab.py, compared with the tree itself,
differs in no document and prints one timing line per case of a cycle, or
per matched case with --match, and one per cycle, each with the rounds won by
either tree and both trees' quartiles, then one line of the pooled requests'
median and tail as perfbench/run.py takes it; it tallies differences by key and
case kind, prints the largest residual of each tree's changed YES
documents per case kind, and rejects a workload that
perfbench/workloads.py does not define; it writes no bytecode into either
tree.
tools/src_lines.py counts only the lines that hold code, and
tools/src_coverage.py lists the statements a run never executes, replaying
for --workloads the requests that tools/ab.py builds."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tools(monkeypatch):
    """Import a module of tools/ (or perfbench/) by name, as the tools import each other."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module


def run_ab(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), *args],
                          capture_output=True, text=True, timeout=300, check=False)


def test_ab_of_the_tree_against_itself_prints_every_case_and_the_cycle():
    proc = run_ab("--workload", "unilocal-factor", "--seed", "11", "--rounds", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *cases, cycle, pooled, summary = proc.stdout.splitlines()
    assert header.split() == ["case", "here", "(s)", "there", "(s)", "change", "won", "here/there",
                              "here", "q1-q3", "(s)", "there", "q1-q3", "(s)"]
    # 21 cases of one cycle and the warm-up, each decided in both processes
    assert summary == ("22 documents: 0 differ in a compared key, 22 byte-identical without"
                       " timing, 22 value-identical")
    # the timings are not checked, only the format and what one round implies:
    # 21 timed cases (the warm-up is not timed), each round won by at most one
    # tree, and every quartile the round's own time
    t = r"(\d+\.\d{6})"
    timing = rf"\s+{t}\s+{t}\s+[+-]\d+\.\d%\s+(\d+)/(\d+)\s+{t}-{t}\s+{t}-{t}$"
    assert len(cases) == 21
    for i, line in enumerate(cases + [cycle]):
        label = f"#{i} \\S+ .*?" if i < len(cases) else "cycle"
        match = re.fullmatch("unilocal-factor s11 " + label + timing, line)
        assert match, line
        here, there, won_here, won_there, *quartiles = match.groups()
        assert int(won_here) + int(won_there) <= 1
        assert quartiles == [here, here, there, there]
    # 21 requests in one round: the median is a case's own time, and the tail
    # that perfbench/run.py takes of 21 requests is p50 too
    medians = [sorted(line.split()[-6 + i] for line in cases)[10] for i in (0, 1)]
    match = re.fullmatch(rf"unilocal-factor s11 pooled\s+p50\s+{t}\s+{t}\s+([+-]\d+\.\d%)"
                         rf"\s+p50\s+{t}\s+{t}\s+([+-]\d+\.\d%)", pooled)
    assert match, pooled
    assert list(match.groups()) == [*medians, match[3], *medians, match[3]]


def test_ab_match_times_only_the_cases_of_that_kind():
    proc = run_ab("--workload", "states-small", "--seed", "11", "--rounds", "1",
                  "--match", "generic/yes")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    _, *cases, cycle, pooled, summary = proc.stdout.splitlines()
    # the six generic-mixed YES cases of the 51 in the cycle, under their cycle index
    assert [line.split()[2:4] for line in cases] == [
        [f"#{i}", "generic/yes"] for i in (13, 14, 24, 29, 38, 42)]
    assert cycle.startswith("states-small s11 cycle ")
    assert pooled.startswith("states-small s11 pooled ")
    assert pooled.endswith("  no tail of 6 requests")
    # and the warm-up, compared but not timed
    assert summary.startswith("7 documents: 0 differ in a compared key")


def test_ab_times_a_cli_cold_case_as_a_fresh_process():
    # a warm decide of these cases takes a few milliseconds; a process that
    # starts the interpreter and imports numpy takes tens of them
    proc = run_ab("--workload", "cli-cold", "--seed", "11", "--rounds", "1",
                  "--match", "pure/yes")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    _, *cases, cycle, _, summary = proc.stdout.splitlines()
    assert cases and summary.startswith(f"{len(cases) + 1} documents: 0 differ in a compared key")
    for line in cases + [cycle]:
        here, there = map(float, line.split()[-6:-4])
        assert here > 0.03 and there > 0.03, line


def test_ab_tallies_a_cold_document_that_differs_from_the_warm_one(tools):
    ab = tools("ab")
    doc = '{\n  "verdict": "YES",\n  "timing": 0.1\n}\n'
    requests = [("cli-cold s11 #0 pure/yes d=2", "", 1, True)]
    lines, differing, identical, same_value = ab.compare(
        requests, [[0.2, doc, {}, doc.replace("0.1", "0.3")]],
        [[0.2, doc, {}, "exit 3: error: bad\n"]])
    assert lines == ["cold there: 1 documents (pure/yes), first cli-cold s11 #0 pure/yes d=2"]
    assert (differing, identical, same_value) == (1, 1, 1)


def test_ab_leaves_no_bytecode_in_the_trees_it_compares(tmp_path, monkeypatch):
    # a __pycache__ in a checkout moves its cold start and every setup_s, so
    # both trees compared by ab.py must stay clean benchmark trees, even when
    # the caller's environment lets Python write bytecode
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    for tree, names in (("here", ("src", "perfbench", "tools")), ("there", ("src", "perfbench"))):
        for name in names:
            shutil.copytree(ROOT / name, tmp_path / tree / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "here" / "tools" / "ab.py"),
                           str(tmp_path / "there"), "--workload", "states-small", "--seed", "11",
                           "--rounds", "1", "--match", "pure/yes"],
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert list(tmp_path.rglob("__pycache__")) == []


def test_ab_match_without_a_case_is_an_error():
    proc = run_ab("--workload", "states-small", "--seed", "11", "--match", "no-such-kind")
    assert proc.returncode == 2
    assert ("no case of states-small at seed 11 has a kind starting with 'no-such-kind'"
            in proc.stderr)


def test_ab_tallies_each_key_and_case_kind(tools):
    ab = tools("ab")

    def reply(verdict, aux, timing=0.1, U="[1.0,2.0]"):
        # a document as dumps_document lays it out, after its wall time
        return [0.001, f'{{\n  "verdict": "{verdict}",\n  "U": {U},\n  "timing": {timing}\n}}\n',
                aux]

    requests = [(f"states-small s11 #{i} {kind} d=8", "", i + 1, True)
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
    lines, differing, identical, same_value = ab.compare(requests, mine, theirs)
    # sorted by key, then kind
    assert lines == [
        "pivot_eigen_margin: 1 documents (matpoly/random-no), first "
        "states-small s11 #2 matpoly/random-no d=8",
        "pivot_eigen_margin: 2 documents (matpoly/yes), first states-small s11 #0 matpoly/yes d=8",
        "pivot_unknowns: 2 documents (matpoly/yes), first states-small s11 #0 matpoly/yes d=8",
        "verdict: 1 documents (pure/yes), first states-small s11 #3 pure/yes d=8"]
    assert (differing, identical, same_value) == (4, 2, 3)


def test_ab_prints_the_largest_residual_of_changed_yes_documents(tools):
    ab = tools("ab")

    def reply(verdict, residual, U):
        return [0.001, f'{{\n  "verdict": "{verdict}",\n  "U": {U},\n  "residual": {residual},'
                       f'\n  "timing": 0.1\n}}\n', {}]

    # the same YES with another certificate, here with the larger residual
    requests = [("states-small s11 #0 pure/yes d=2", "", 1, True)]
    lines = ab.residual_lines(requests, [reply("YES", 3e-15, "[1.0,0.0]")],
                              [reply("YES", 1e-16, "[0.0,1.0]")])
    assert lines == ["largest residual of 1 changed YES documents (pure/yes): "
                     "here 3.00e-15, there 1.00e-16"]
    # a NO on one side has no residual to give, and unchanged text gives no line
    assert ab.residual_lines(requests, [reply("NO", 0.0, "null")],
                             [reply("YES", 1e-16, "[0.0,1.0]")]) == [
        "largest residual of 1 changed YES documents (pure/yes): here none, there 1.00e-16"]
    assert ab.residual_lines(requests, [reply("YES", 1e-16, "[0.0,1.0]")],
                             [reply("YES", 1e-16, "[0.0,1.0]")]) == []


def test_ab_pools_the_requests_into_the_benchmarks_median_and_tail(tools):
    ab = tools("ab")
    # 40 requests, the largest 10 ms, against the same twice as slow: the
    # tail perfbench/run.py takes of 40 is p75, the 30th smallest
    mine = [0.001 * i for i in range(40, 0, -1)]
    theirs = [2 * wall for wall in mine]
    line = ab.pooled_row("states-small s11 pooled", 24, mine, theirs)
    assert line == ("states-small s11 pooled   p50   0.020500    0.041000   -50.0%"
                    "  p75   0.030000    0.060000   -50.0%")
    # ten requests leave none beyond the lowest percentile's rank
    assert ab.pooled_row("x", 1, mine[:10], theirs[:10]).endswith("  no tail of 10 requests")


@pytest.mark.parametrize("args, message", [
    # the names come from perfbench/workloads.py, so a workload added there
    # reaches the tool without a change to it; each named workload is checked
    (["--workload", "pairs-ful"], "unknown workload 'pairs-ful'; expected one of "
                                  "pairs-full, unilocal-factor, states-small, cli-cold"),
    (["--workload", "states-small", "--workload", "pairs-ful"],
     "unknown workload 'pairs-ful'; expected one of "
     "pairs-full, unilocal-factor, states-small, cli-cold"),
    (["--rounds", "0"], "--rounds must be at least 1"),
])
def test_ab_usage_errors_exit_2_with_their_message(args, message):
    proc = run_ab(*args)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].endswith("error: " + message)


def test_src_coverage_replays_the_requests_of_ab(tools, monkeypatch):
    ab, src_coverage, worker, workloads = map(tools, ["ab", "src_coverage", "worker", "workloads"])
    requests = ab.build_requests(workloads, workloads.WORKLOADS, (11, 12, 13))
    # every case and warm-up of the four workloads at three seeds
    assert len(requests) == 354
    sent = []
    monkeypatch.setattr(worker, "decide_text", lambda text, seed: sent.append((text, seed)))
    for seed in (11, 12, 13):
        src_coverage.run_workloads(seed)
    # one seed after the other, each as ab sends it
    assert sent == [(text, decide_seed) for seed in (11, 12, 13)
                    for label, text, decide_seed, _ in requests if label.split()[1] == f"s{seed}"]


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


def test_src_coverage_lists_each_statement_never_run(tmp_path, tools):
    src_coverage = tools("src_coverage")
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
