"""Compare the verdict documents of this tree with those of another checkout.

    python3 tools/verdict_diff.py OTHER_TREE [--workload NAME ...] [--seed N ...]

Every case and the warm-up of each `perfbench` workload (all of them, at seeds
11, 12 and 13 unless narrowed) is built once, by this tree's
`perfbench/workloads.py`, and decided in two fresh processes: one imports
`uniequiv` and `perfbench/worker.py` from this tree, the other from
OTHER_TREE. Each request goes through `worker.decide_text` with the seed the
benchmark gives it (case i of a cycle: i + 1; the warm-up: 1), under one
BLAS thread. `perfbench` is only imported, never edited.

For every document the keys verdict, certainty, solution_dimension, detail,
failure_bound and trials_used are compared, and so is the verdict's aux
(the documents do not carry aux, so the child records it as
`serialize.verdict_document` is called): every key, and the value of every
entry that is an int or a list or tuple of ints (pivot_clusters,
pivot_unknowns, pivot_free_units, phase_components, grid_solves,
phase_grid_combo). Float entries such as uv_gap and the pivot gaps follow
the sampled certificate or rounding, so only their keys are compared. One
tally line is printed per differing key (a document key or an aux key) and
case kind (the kind's first word, say matpoly/yes), with the number of
documents and the first of them, so an expected change to one aux key reads
as one line; the summary counts the documents with a difference, those whose
raw text is byte-identical once the `timing` line is left out, and those that
hold the same JSON value once `timing` is left out. The exit status is 1
when any document differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
KEYS = ("verdict", "certainty", "solution_dimension", "detail", "failure_bound", "trials_used")


def build_requests(wl, workloads, seeds):
    """[(label, instance text, decide seed)] for every case and warm-up of the
    named workloads of wl."""
    requests = []
    for name in workloads:
        for seed in seeds:
            cases, warmup = wl.build(name, seed)
            for i, case in enumerate(cases):
                requests.append((f"{name} s{seed} #{i} {case.kind}", json.dumps(case.doc), i + 1))
            requests.append((f"{name} s{seed} warm-up {warmup.kind}", json.dumps(warmup.doc), 1))
    return requests


def replay(tree: Path, requests):
    """The verdict texts and compared aux of tree for every request, from a fresh process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    payload = json.dumps([[text, seed] for _, text, seed in requests])
    proc = subprocess.run([sys.executable, __file__, "--emit", str(tree)], input=payload,
                          capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"replay in {tree} failed:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def compared_aux(aux: dict) -> dict:
    """aux with the value of every int or list or tuple of ints kept, and None
    for every other value."""
    def exact(value):
        return isinstance(value, int) or (isinstance(value, (list, tuple))
                                          and all(isinstance(v, int) for v in value))

    return {key: value if exact(value) else None for key, value in sorted(aux.items())}


def emit(tree: Path) -> int:
    """Child side: decide every [text, seed] read from stdin with tree's code."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from uniequiv import serialize
    import worker

    auxes = []
    real = serialize.verdict_document

    def recording(verdict, *args, **kwargs):
        auxes.append(compared_aux(verdict.aux))
        return real(verdict, *args, **kwargs)

    serialize.verdict_document = recording
    out = [{"text": worker.decide_text(text, seed), "aux": auxes.pop()}
           for text, seed in json.load(sys.stdin)]
    json.dump(out, sys.stdout)
    return 0


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
    trees to requests."""
    tally = {}  # (key, kind) -> [documents, first label]
    differing = identical = same_value = 0
    absent = object()
    for (label, _, _), a, b in zip(requests, mine, theirs):
        doc_a, doc_b = json.loads(a["text"]), json.loads(b["text"])
        keys = [key for key in KEYS if doc_a.get(key) != doc_b.get(key)]
        keys += [key for key in sorted(a["aux"].keys() | b["aux"].keys())
                 if a["aux"].get(key, absent) != b["aux"].get(key, absent)]
        kind = label.split()[3]
        for key in keys:
            tally.setdefault((key, kind), [0, label])[0] += 1
        differing += bool(keys)
        identical += without_timing(a["text"]) == without_timing(b["text"])
        same_value += value_without_timing(doc_a) == value_without_timing(doc_b)
    lines = [f"{key}: {count} documents ({kind}), first {first}"
             for (key, kind), (count, first) in sorted(tally.items())]
    return lines, differing, identical, same_value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare against")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="a workload of perfbench/workloads.py (default: every one)")
    parser.add_argument("--seed", action="append", type=int)
    args = parser.parse_args(argv)
    if args.emit:
        return emit(args.other.resolve())
    other = args.other.resolve()
    if not (other / "perfbench" / "worker.py").is_file():
        parser.error(f"{other} has no perfbench/worker.py")
    # workloads imports uniequiv, so only this parent imports it: each child
    # decides with its own tree's package
    sys.path[:0] = [str(HERE / "src"), str(HERE / "perfbench")]
    import workloads as wl

    for name in args.workload or ():
        if name not in wl.WORKLOADS:
            parser.error(f"unknown workload {name!r}; expected one of {', '.join(wl.WORKLOADS)}")
    requests = build_requests(wl, args.workload or wl.WORKLOADS, args.seed or (11, 12, 13))
    lines, differing, identical, same_value = compare(requests, replay(HERE, requests),
                                                      replay(other, requests))
    for line in lines:
        print(line)
    print(f"{len(requests)} documents: {differing} differ in a compared key, "
          f"{identical} byte-identical without timing, {same_value} value-identical")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
