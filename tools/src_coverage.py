"""List the statements of the package that a run never executes.

    python3 tools/src_coverage.py --tests
    python3 tools/src_coverage.py --workloads [--seed N]

With --tests, the tier-1 suite (tests/ and perfbench/test_perfbench.py) runs
in this process under pytest; with --workloads, the requests that
`tools/ab.py` sends at seed N (default 11), every case and the warm-up of
each `perfbench` workload, go through `worker.decide_text`. `perfbench` is
only imported, never edited. Code run in a child process is not seen.

Lines are recorded with `sys.settrace` from before the package is imported.
A statement (an `ast.stmt` other than a docstring, `global` or `nonlocal`)
counts as executed when one of its own lines ran: for a compound statement
(if, for, def, ...) the lines of its header, for any other statement all of
its lines. Prints `file:line: statement` for every statement of
src/uniequiv/*.py never executed, with the statement's first line, then
`N of M statements not executed`.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

import ab
from src_lines import docstring_lines

HERE = Path(__file__).resolve().parents[1]
PACKAGE = HERE / "src" / "uniequiv"


class LineTrace:
    """The lines run inside the files under root while the context is open,
    as {path: set of line numbers}; a tracer set before is restored on exit."""

    def __init__(self, root: Path):
        self.root = str(root.resolve())
        self.hits = {}

    def _global(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.root):
            return None
        lines = self.hits.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local(frame, event, arg)

    def __enter__(self):
        self.previous = sys.gettrace()
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(self.previous)
        return False


def _own_lines(node: ast.stmt) -> range:
    """The lines of node that belong to no statement nested in it."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        return range(first, max(body[0].lineno, node.lineno + 1))
    return range(node.lineno, node.end_lineno + 1)


def statements(source: str) -> list:
    """[(line, own lines)] of every statement of source but docstrings, global and nonlocal."""
    tree = ast.parse(source)
    docstrings = docstring_lines(tree)
    return sorted(((node.lineno, _own_lines(node)) for node in ast.walk(tree)
                   if isinstance(node, ast.stmt)
                   and not isinstance(node, (ast.Global, ast.Nonlocal))
                   and not (isinstance(node, ast.Expr) and node.lineno in docstrings)),
                  key=lambda item: item[0])


def report(paths, hits: dict, base: Path) -> list:
    """`file:line: statement` for every statement of paths whose own lines
    never ran by hits, then the count line."""
    lines, total = [], 0
    for path in paths:
        source = path.read_text()
        text = source.splitlines()
        ran = hits.get(str(path.resolve()), set())
        found = statements(source)
        total += len(found)
        name = path.resolve().relative_to(base.resolve())
        lines += [f"{name}:{line}: {text[line - 1].strip()}"
                  for line, own in found if ran.isdisjoint(own)]
    return lines + [f"{len(lines)} of {total} statements not executed"]


def run_tests() -> None:
    import pytest

    pytest.main(["-q", "-p", "no:cacheprovider", str(HERE / "tests"),
                 str(HERE / "perfbench" / "test_perfbench.py")])


def run_workloads(seed: int) -> None:
    sys.path[:0] = [str(HERE / "src"), str(HERE / "perfbench")]
    import worker
    import workloads as wl

    for _, text, decide_seed, _ in ab.build_requests(wl, wl.WORKLOADS, [seed]):
        worker.decide_text(text, decide_seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--tests", action="store_true", help="run the tier-1 suite")
    source.add_argument("--workloads", action="store_true", help="decide every benchmark case")
    parser.add_argument("--seed", type=int, default=11, help="workload seed (default 11)")
    args = parser.parse_args(argv)
    if any(name == "uniequiv" or name.startswith("uniequiv.") for name in sys.modules):
        parser.error("the package was imported before the trace started")
    with LineTrace(PACKAGE) as trace:
        if args.tests:
            run_tests()
        else:
            run_workloads(args.seed)
    for line in report(sorted(PACKAGE.glob("*.py")), trace.hits, HERE):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
