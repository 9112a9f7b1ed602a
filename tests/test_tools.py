"""Smoke tests of the comparison tools: a tree compared with itself differs
nowhere (tools/verdict_diff.py), and tools/case_ab.py prints one timing line
per case of a cycle and the cycle total."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_verdict_diff_of_the_tree_against_itself_is_empty():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "verdict_diff.py"), str(ROOT),
         "--workload", "unilocal-factor", "--seed", "11"],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # 21 cases of one cycle and the warm-up, each decided in both processes
    assert proc.stdout.splitlines() == [
        "22 documents: 0 differ in a compared key, 22 byte-identical without timing"]


def test_case_ab_of_the_tree_against_itself_prints_every_case_and_the_cycle():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "case_ab.py"), str(ROOT),
         "--workload", "unilocal-factor", "--seed", "11", "--rounds", "1"],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *cases, cycle = proc.stdout.splitlines()
    assert header.split() == ["case", "here", "(s)", "there", "(s)", "change"]
    # the timings are not checked, only the format: 21 cases of one cycle
    timing = r"\s+\d+\.\d{6}\s+\d+\.\d{6}\s+[+-]\d+\.\d%$"
    assert len(cases) == 21
    for i, line in enumerate(cases):
        assert re.fullmatch(rf"#{i} \S+ .*?{timing}", line), line
    assert re.fullmatch(rf"cycle{timing}", cycle), cycle
