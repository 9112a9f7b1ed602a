"""Smoke test of tools/verdict_diff.py: a tree compared with itself differs nowhere."""

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
