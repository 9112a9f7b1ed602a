"""Time every case of one benchmark cycle in this tree and in another checkout.

    python3 tools/case_ab.py OTHER_TREE --workload NAME [--seed N] [--rounds K]
                             [--match PREFIX]

The cases of one cycle of the `perfbench` workload NAME (seed N, default 11)
are built once, by this tree's `perfbench/workloads.py`; with --match, only
those whose kind starts with PREFIX (say `generic/yes`) are timed, so a
change to one mode can be shown case by case. Two persistent child
processes, one per tree, each import `uniequiv` and `perfbench/worker.py`
from their own tree, run the workload's warm-up, and then time
`worker.decide_text` on the requests sent to them, under one BLAS thread.
Each of K rounds (default 5) sends every case to both children, one after
the other, alternating which goes first from case to case and from round to
round, so that both trees see the same machine state.

One line per case gives the median wall time here and there over the
rounds, the change (here - there) / there, how many rounds each tree won
(here/there; a tie counts for neither) and each tree's quartiles q1-q3; the
last line does the same for the total of the timed cases in each round.
These are the figures a claimed gain is judged by: the share of rounds
won, and whether the medians differ by more than there's q3 - q1. Each
request finds its
child's caches colder than the benchmark's closed loop does, as the other
child ran in between: millisecond cases read up to three times slower than
there, in both trees alike. `perfbench` is only imported, never edited.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def build_cycle(wl, workload: str, seed: int, match: str = ""):
    """[(label, instance text, decide seed)] for the cases of one cycle of wl's
    workload whose kind starts with match, and the warm-up request."""
    cases, warmup = wl.build(workload, seed)
    requests = [(f"#{i} {case.kind}", json.dumps(case.doc), i + 1) for i, case in enumerate(cases)
                if case.kind.startswith(match)]
    return requests, (json.dumps(warmup.doc), 1)


class Child:
    """A process deciding requests with tree's code, one JSON line in, one out."""

    def __init__(self, tree: Path):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        env.pop("PYTHONPATH", None)
        self.tree = tree
        self.proc = subprocess.Popen([sys.executable, __file__, str(tree), "--serve"], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def decide(self, text: str, seed: int) -> float:
        self.proc.stdin.write(json.dumps([text, seed]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"the child for {self.tree} exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def serve(tree: Path) -> int:
    """Child side: time worker.decide_text on every [text, seed] line of stdin."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import worker

    for line in sys.stdin:
        text, seed = json.loads(line)
        start = time.perf_counter()
        worker.decide_text(text, seed)
        print(json.dumps(time.perf_counter() - start), flush=True)
    return 0


def change(here: float, there: float) -> str:
    return f"{100.0 * (here - there) / there:+.1f}%"


def quartiles(values) -> tuple:
    """(q1, q3) of values by the inclusive method; a single value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def row(label: str, width: int, mine, theirs) -> str:
    """One output line: medians, change, rounds won here/there, quartiles."""
    a, b = statistics.median(mine), statistics.median(theirs)
    won = sum(x < y for x, y in zip(mine, theirs)), sum(y < x for x, y in zip(mine, theirs))
    spread = "  ".join("{:.6f}-{:.6f}".format(*quartiles(side)) for side in (mine, theirs))
    return (f"{label:<{width}}  {a:10.6f}  {b:10.6f}  {change(a, b):>7}  "
            f"{won[0]:>4}/{won[1]:<4}  {spread}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare against")
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workload", metavar="NAME",
                        help="a workload of perfbench/workloads.py")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--match", default="", metavar="PREFIX",
                        help="time only the cases whose kind starts with PREFIX")
    args = parser.parse_args(argv)
    if args.serve:
        return serve(args.other.resolve())
    other = args.other.resolve()
    if not (other / "perfbench" / "worker.py").is_file():
        parser.error(f"{other} has no perfbench/worker.py")
    if args.workload is None:
        parser.error("--workload is required")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    # workloads imports uniequiv, so only this parent imports it: each child
    # decides with its own tree's package
    sys.path[:0] = [str(HERE / "src"), str(HERE / "perfbench")]
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(wl.WORKLOADS)}")
    requests, warmup = build_cycle(wl, args.workload, args.seed, args.match)
    if not requests:
        parser.error(f"no case of {args.workload} at seed {args.seed} has a kind "
                     f"starting with {args.match!r}")
    children = (Child(HERE), Child(other))
    try:
        for child in children:
            child.decide(*warmup)
        walls = [([], []) for _ in requests]
        for r in range(args.rounds):
            for i, (_, text, seed) in enumerate(requests):
                order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
                for side in order:
                    walls[i][side].append(children[side].decide(text, seed))
    finally:
        for child in children:
            child.close()
    width = max(len(label) for label, _, _ in requests)
    print(f"{'case':<{width}}  {'here (s)':>10}  {'there (s)':>10}  {'change':>7}  won here/there"
          "  here q1-q3 (s)  there q1-q3 (s)")
    for (label, _, _), (mine, theirs) in zip(requests, walls):
        print(row(label, width, mine, theirs))
    totals = [[sum(w[side][r] for w in walls) for r in range(args.rounds)] for side in (0, 1)]
    print(row("cycle", width, *totals))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
