"""Compare this tree with another checkout on the benchmark's own requests:
their verdict documents, and their wall time per case.

    python3 tools/ab.py OTHER_TREE [--workload NAME]... [--seed N]... [--rounds K]
                        [--match PREFIX]

Every case and the warm-up of each named `perfbench` workload (default:
every one) at each named seed (default: 11, 12 and 13) is built once, by
this tree's `perfbench/workloads.py`, with the seed the benchmark decides it
under (case i of a cycle: i + 1; the warm-up: 1). With --match, only the
cases whose kind starts with PREFIX (say `generic/yes`) are kept, beside the
warm-ups, so a change to one mode can be shown case by case. Two persistent
child processes, one per tree, each import `uniequiv` and
`perfbench/worker.py` from their own tree and answer each request with the
wall time of `worker.decide_text`, the verdict text and the verdict's
compared aux, under one BLAS thread. A timed `cli-cold` case is timed as
the benchmark times it: each tree's wall is a fresh `python -m uniequiv.cli
decide FILE --seed S -o OUT` process with that tree's `src`, one BLAS thread
and no bytecode written, from spawn to exit, so a default run starts about
500 processes beside the two children. Each of K rounds (default 5) sends
every request to both children, one after the other, alternating which goes
first from request to request and from round to round, so that both trees
see the same machine state. `perfbench` is only imported, never edited,
and no process writes bytecode into either tree.

Timing. One line per case gives the median wall time here and there over
the rounds, the change (here - there) / there, how many rounds each tree won
(here/there; a tie counts for neither) and each tree's quartiles q1-q3; a
`cycle` line per workload and seed does the same for the total of its cases
in each round. After it, a `pooled` line gives each tree's median and tail
of all the timed requests of that workload and seed over every round, with
their changes; the tail is the percentile that `perfbench/run.py`'s
`tail_percentile` takes of that many requests (imported, not copied), which
is how the benchmark reads `decide_tail_s` (no tail below 11 requests).
The warm-ups are compared but never timed. These are the
figures a claimed gain is judged by: the share of rounds won, and whether
the medians differ by more than there's q3 - q1. Each request finds its
child's caches colder than the benchmark's closed loop does, as the other
child ran in between: millisecond cases read up to three times slower than
there, in both trees alike.

Verdicts. For every document of the first round the keys verdict,
certainty, solution_dimension, detail, failure_bound and trials_used are
compared, and so is the verdict's aux (the documents do not carry aux, so
the child records it as `serialize.verdict_document` is called): every key,
and the value of every entry that is an int or a list or tuple of ints
(pivot_clusters, pivot_unknowns, pivot_free_units, phase_components,
grid_solves, phase_grid_combo). Float entries such as uv_gap and the pivot
gaps follow the sampled certificate or rounding, so only their keys are
compared. The document of a cold process is compared with the warm one
without `timing`; when they differ, the key `cold here` or `cold there` is
tallied. One tally line is printed per differing key (a document key, an
aux key or a cold key) and case kind (the kind's first word, say
matpoly/yes), with the number of documents and the first of them, so an
expected change to one aux key reads as one line; the summary counts the
documents with a difference, those whose raw text is byte-identical once
the `timing` line is left out, and those that hold the same JSON value
once `timing` is left out. Then, per case kind whose YES documents differ
in their text without `timing` (another certificate, say), one line gives
how many and the largest `residual` of each tree's YES among them, so that
a change of certificate shows its quality. The exit status is 1 when any
document differs in a compared key, else 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
KEYS = ("verdict", "certainty", "solution_dimension", "detail", "failure_bound", "trials_used")


def child_env(**extra) -> dict:
    """The environment of every process started here: one BLAS thread, no
    bytecode written, and no PYTHONPATH but what extra sets."""
    # a __pycache__ left in a tree moves its cold start, so a compared tree
    # would no longer be a clean benchmark tree
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    return {**env, **extra}


def build_requests(wl, workloads, seeds, match: str = ""):
    """[(label, instance text, decide seed, timed)] for the named workloads of
    wl at each seed: the warm-up, untimed, then every case whose kind starts
    with match, in the order the benchmark sends them."""
    out = []
    for name in workloads:
        for seed in seeds:
            cases, warmup = wl.build(name, seed)
            out.append((f"{name} s{seed} warm-up {warmup.kind}", json.dumps(warmup.doc), 1, False))
            out += [(f"{name} s{seed} #{i} {case.kind}", json.dumps(case.doc), i + 1, True)
                    for i, case in enumerate(cases) if case.kind.startswith(match)]
    return out


class Child:
    """A process deciding requests with tree's code, one JSON line in, one out."""

    def __init__(self, tree: Path):
        self.tree = tree
        self.proc = subprocess.Popen([sys.executable, __file__, str(tree), "--serve"],
                                     env=child_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def decide(self, text: str, seed: int) -> list:
        """[wall seconds, document text, compared aux] of one request."""
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


def cold_decide(tree: Path, path: Path, seed: int) -> list:
    """[wall seconds from spawn to exit, document text] of a fresh `python -m
    uniequiv.cli decide` process with tree's code on the instance at path;
    without a document, the text is the exit status and stderr."""
    out = path.with_suffix(".out")
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "uniequiv.cli", "decide", str(path),
                           "--seed", str(seed), "-o", str(out)],
                          env=child_env(PYTHONPATH=str(tree / "src")), cwd=path.parent,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          check=False)
    wall = time.perf_counter() - start
    if proc.returncode not in (0, 1, 2) or not out.is_file():
        return [wall, f"exit {proc.returncode}: {proc.stderr}"]
    return [wall, out.read_text(encoding="utf-8")]


def compared_aux(aux: dict) -> dict:
    """aux with the value of every int or list or tuple of ints kept, and None
    for every other value."""
    def exact(value):
        return isinstance(value, int) or (isinstance(value, (list, tuple))
                                          and all(isinstance(v, int) for v in value))

    return {key: value if exact(value) else None for key, value in sorted(aux.items())}


def serve(tree: Path) -> int:
    """Child side: answer every [text, seed] line of stdin with tree's code."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from uniequiv import serialize
    import worker

    auxes = []
    real = serialize.verdict_document

    def recording(verdict, *args, **kwargs):
        auxes.append(compared_aux(verdict.aux))
        return real(verdict, *args, **kwargs)

    serialize.verdict_document = recording
    for line in sys.stdin:
        text, seed = json.loads(line)
        start = time.perf_counter()
        out = worker.decide_text(text, seed)
        print(json.dumps([time.perf_counter() - start, out, auxes.pop()]), flush=True)
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


def pooled_row(label: str, width: int, mine, theirs) -> str:
    """One output line over the pooled wall times of two trees: the medians
    and their change, then the tail percentile of perfbench/run.py and each
    tree's value there with their change, or the number of requests where
    they are too few for a tail."""
    from run import tail_percentile  # perfbench/, which main puts on sys.path

    a, b = statistics.median(mine), statistics.median(theirs)
    line = f"{label:<{width}}  p50 {a:10.6f}  {b:10.6f}  {change(a, b):>7}"
    tails = tail_percentile(mine), tail_percentile(theirs)
    if None in tails:
        return f"{line}  no tail of {len(mine)} requests"
    (p, x), (_, y) = tails
    return f"{line}  p{p:g} {x:10.6f}  {y:10.6f}  {change(x, y):>7}"


def without_timing(text: str) -> str:
    """The raw text of a document with its `"timing"` line left out: every
    document is written one top-level key per line."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith('  "timing": '))


def value_without_timing(doc: dict) -> str:
    """The JSON value of a parsed document without `timing`, as json.dumps
    text, so that NaN equals itself."""
    return json.dumps({key: value for key, value in doc.items() if key != "timing"})


def compare(requests, mine, theirs):
    """(tally lines, documents differing, documents byte-identical without
    timing, documents value-identical without timing) for the replies of two
    trees to requests. A reply of a cold case carries the cold process's
    document after the warm one's aux."""
    tally = {}  # (key, kind) -> [documents, first label]
    differing = identical = same_value = 0
    absent = object()
    for (label, *_), (_, text_a, aux_a, *cold_a), (_, text_b, aux_b, *cold_b) in zip(
            requests, mine, theirs):
        doc_a, doc_b = json.loads(text_a), json.loads(text_b)
        keys = [key for key in KEYS if doc_a.get(key) != doc_b.get(key)]
        keys += [key for key in sorted(aux_a.keys() | aux_b.keys())
                 if aux_a.get(key, absent) != aux_b.get(key, absent)]
        keys += [f"cold {side}" for side, text, cold in (("here", text_a, cold_a),
                                                        ("there", text_b, cold_b))
                 if cold and without_timing(cold[0]) != without_timing(text)]
        kind = label.split()[3]
        for key in keys:
            tally.setdefault((key, kind), [0, label])[0] += 1
        differing += bool(keys)
        identical += without_timing(text_a) == without_timing(text_b)
        same_value += value_without_timing(doc_a) == value_without_timing(doc_b)
    lines = [f"{key}: {count} documents ({kind}), first {first}"
             for (key, kind), (count, first) in sorted(tally.items())]
    return lines, differing, identical, same_value


def residual_lines(requests, mine, theirs) -> list:
    """One line per case kind, in name order, over the documents whose text
    differs without timing and that are a YES in either tree: their count
    and the largest residual of each tree's YES among them ("none" for a tree
    with no YES there)."""
    kinds = {}  # kind -> [documents, residuals here, residuals there]
    for (label, *_), (_, text_a, *_), (_, text_b, *_) in zip(requests, mine, theirs):
        if without_timing(text_a) == without_timing(text_b):
            continue
        docs = json.loads(text_a), json.loads(text_b)
        residuals = [[doc["residual"]] if doc["verdict"] == "YES" else [] for doc in docs]
        if residuals != [[], []]:
            entry = kinds.setdefault(label.split()[3], [0, [], []])
            entry[0] += 1
            entry[1] += residuals[0]
            entry[2] += residuals[1]
    return [f"largest residual of {count} changed YES documents ({kind}): "
            + ", ".join(f"{side} {max(values):.2e}" if values else f"{side} none"
                        for side, values in (("here", here), ("there", there)))
            for kind, (count, here, there) in sorted(kinds.items())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare against")
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="a workload of perfbench/workloads.py (default: every one)")
    parser.add_argument("--seed", action="append", type=int, help="(default: 11, 12 and 13)")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--match", default="", metavar="PREFIX",
                        help="keep only the cases whose kind starts with PREFIX")
    args = parser.parse_args(argv)
    if args.serve:
        return serve(args.other.resolve())
    other = args.other.resolve()
    if not (other / "perfbench" / "worker.py").is_file():
        parser.error(f"{other} has no perfbench/worker.py")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    # workloads imports uniequiv, so only this parent imports it: each child
    # decides with its own tree's package. Like the children, it writes no
    # bytecode into this tree.
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(HERE / "src"), str(HERE / "perfbench")]
    import workloads as wl

    names, seeds = args.workload or wl.WORKLOADS, args.seed or (11, 12, 13)
    for name in names:
        if name not in wl.WORKLOADS:
            parser.error(f"unknown workload {name!r}; expected one of {', '.join(wl.WORKLOADS)}")
    requests = build_requests(wl, names, seeds, args.match)
    timed = [i for i, (*_, is_timed) in enumerate(requests) if is_timed]
    if not timed:
        parser.error(f"no case of {', '.join(names)} at seed {', '.join(map(str, seeds))} "
                     f"has a kind starting with {args.match!r}")
    trees, children = (HERE, other), (Child(HERE), Child(other))
    walls = [([], []) for _ in requests]
    first = ([], [])  # each tree's replies in the first round
    scratch = tempfile.TemporaryDirectory()
    cold = {i: Path(scratch.name) / f"{i}.json" for i, (label, *_, is_timed) in enumerate(requests)
            if is_timed and label.startswith("cli-cold ")}
    try:
        for i, path in cold.items():
            path.write_text(requests[i][1], encoding="utf-8")
        for r in range(args.rounds):
            for i, (_, text, seed, _) in enumerate(requests):
                for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                    reply = children[side].decide(text, seed)
                    if i in cold:
                        wall, cold_text = cold_decide(trees[side], cold[i], seed)
                        reply = [wall, *reply[1:], cold_text]
                    walls[i][side].append(reply[0])
                    if r == 0:
                        first[side].append(reply)
    finally:
        for child in children:
            child.close()
        scratch.cleanup()
    width = max(len(requests[i][0]) for i in timed)
    print(f"{'case':<{width}}  {'here (s)':>10}  {'there (s)':>10}  {'change':>7}  won here/there"
          "  here q1-q3 (s)  there q1-q3 (s)")
    for group, cases in itertools.groupby(timed, key=lambda i: requests[i][0].split()[:2]):
        cases = list(cases)
        for i in cases:
            print(row(requests[i][0], width, *walls[i]))
        totals = [[sum(walls[i][side][r] for i in cases) for r in range(args.rounds)]
                  for side in (0, 1)]
        print(row(" ".join(group) + " cycle", width, *totals))
        print(pooled_row(" ".join(group) + " pooled", width,
                         *([wall for i in cases for wall in walls[i][side]] for side in (0, 1))))
    lines, differing, identical, same_value = compare(requests, *first)
    for line in lines + residual_lines(requests, *first):
        print(line)
    print(f"{len(requests)} documents: {differing} differ in a compared key, "
          f"{identical} byte-identical without timing, {same_value} value-identical")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
