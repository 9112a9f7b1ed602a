"""Benchmark of `uniequiv decide`, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark imports `uniequiv` from the
checkout's `src` (the package need not be installed), generates the
workload's instance documents from --seed, times set-up in fresh worker
processes, runs the workload for about --seconds in one more worker (a
closed loop with one client, in whole cycles of the workload's fixed case
list), checks every answer with the independent checker in check.py and
prints one JSON object as its last line. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it reports per-layer metrics from spans
recorded around the package's public functions (see spans.py).

The end-to-end times are scaled by the machine's current speed, which the
workers measure between requests with the fixed computation in
reference.py; the unscaled figures are printed on the lines before the
result. The benchmark and every process it starts run on one CPU with one
BLAS thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_SAMPLES = 5          # fresh workers timed per run; setup_s is their median
DEADLINE_S = 170.0         # the whole run ends within this, or fails
TAIL_LADDER = (50, 75, 90, 95, 99)
# Fewest and most whole cycles a run makes of each workload's case list.
# They keep the request count in one band of TAIL_LADDER, so the tail is
# the same percentile in every run: p75 for 40-99 requests, p95 for 200-999.
CYCLES = {"pairs-full": (2, 3), "unilocal-factor": (2, 4), "states-small": (4, 19), "cli-cold": (3, 5)}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def tail_percentile(values):
    """(percentile, value): the highest percentile of TAIL_LADDER with at
    least 10 samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, -(-p * n // 100))  # ceil(p * n / 100)
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def code_identity() -> str:
    """Commit if the checkout is a git repository, and a hash of src/uniequiv."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "uniequiv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    return f"commit {commit}, src sha256 {digest.hexdigest()[:12]}"


def environment() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return (f"python {platform.python_version()}, numpy {np.__version__}, {blas}, "
            f"nproc {os.cpu_count()}, pinned to CPU {max(os.sched_getaffinity(0))}, "
            f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")


def write_workdir(workload: str, seed: int, trace: int):
    import workloads

    cases, warmup = workloads.build(workload, seed)
    workdir = WORK / f"{workload}-s{seed}-t{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    manifest = {"workload": workload, "src": str(SRC), "warmup": "warmup.json",
                "cycles": CYCLES[workload], "cases": []}
    (workdir / "warmup.json").write_text(json.dumps(warmup.doc), encoding="utf-8")
    for i, case in enumerate(cases):
        name = f"case_{i:03d}.json"
        (workdir / name).write_text(json.dumps(case.doc), encoding="utf-8")
        manifest["cases"].append({"file": name, "seed": i + 1, "kind": case.kind, "label": case.label})
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return workdir, cases


class Worker:
    """One fresh worker process; `ready()` returns its set-up time. Leaving
    the `with` block ends the process if it still runs."""

    def __init__(self, workdir: Path, deadline: float, *extra):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        self.deadline = deadline
        self.stderr_path = workdir / "worker_stderr.txt"
        with open(self.stderr_path, "w", encoding="utf-8") as err:
            self.start = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(workdir), *extra],
                stdout=subprocess.PIPE, stderr=err, text=True, env=env, cwd=ROOT)

    def _error(self, what: str) -> RuntimeError:
        err = self.stderr_path.read_text(encoding="utf-8", errors="replace").strip()
        return RuntimeError(f"{what}: {err[-2000:]}")

    def ready(self) -> float:
        waiting, _, _ = select.select([self.proc.stdout], [], [], max(0.0, self.deadline - time.monotonic()))
        line = self.proc.stdout.readline() if waiting else ""
        elapsed = time.perf_counter() - self.start
        if line.strip() != "READY":
            self.stop()
            raise self._error("worker did not start")
        return elapsed

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def finish(self):
        try:
            self.proc.wait(timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError("worker ran past the deadline") from None
        if self.proc.returncode != 0:
            raise self._error(f"worker exited with {self.proc.returncode}")


def tally(statuses):
    """(failed, inconclusive) among checker statuses."""
    return (sum(s == "fail" for s, _ in statuses), sum(s == "inconclusive" for s, _ in statuses))


def scaled_walls(result):
    """Request wall times divided by the machine's speed factor in their cycle:
    the median reference time of the cycle over reference.NOMINAL_S."""
    from reference import NOMINAL_S

    by_cycle = {}
    for cycle, value in result["references"]:
        by_cycle.setdefault(cycle, []).append(value)
    factor = {c: statistics.median(v) / NOMINAL_S for c, v in by_cycle.items()}
    return [r["wall"] / factor[r["cycle"]] for r in result["records"]], factor


def end_to_end(result, statuses, setups, setup_factor, cases):
    records = result["records"]
    walls, factor = scaled_walls(result)
    n = len(records)
    tail = tail_percentile(walls)
    if tail is None:
        raise RuntimeError(f"{n} requests are too few for a tail percentile")
    failed, inconclusive = tally(statuses)
    raw = [r["wall"] for r in records]
    print(f"requests {n} in {result['cycles']} cycles, {result['elapsed']:.3f} s; "
          f"decide_tail_s is p{tail[0]:g} with {n} samples; "
          f"fail_ratio {failed / n:.4f}, inconclusive_ratio {inconclusive / n:.4f}")
    print(f"machine speed factor {statistics.median(factor.values()):.3f} in the run, "
          f"{setup_factor:.3f} at set-up; unscaled: p50 {statistics.median(raw):.4g} s, "
          f"p{tail[0]:g} {tail_percentile(raw)[1]:.4g} s, {n / sum(raw):.4g} requests/s, "
          f"set-up {statistics.median(setups):.4g} s")
    by_kind = {}
    for r in records:
        by_kind.setdefault(cases[r["case"]].kind, []).append(r["wall"])
    slowest = sorted(((statistics.median(v), k) for k, v in by_kind.items()), reverse=True)[:3]
    print("slowest cases (unscaled median): " + ", ".join(f"{k} {v:.3f} s" for v, k in slowest))
    return {
        "decide_p50_s": (statistics.median(walls), "s"),
        "decide_tail_s": (tail[1], "s"),
        "throughput_ips": (n / sum(walls), "1/s"),
        "setup_s": (statistics.median(setups) / setup_factor, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_ratio": ((n - failed) / n, "ratio"),
        "conclusive_ratio": ((n - inconclusive) / n, "ratio"),
    }


# per-layer time metrics: self time of the spans of one name (see spans.TARGETS)
TIMED_SPANS = ("serialize.parse", "serialize.dump", "algebra.construct", "algebra.verify",
               "solver.prefilter", "solver.build", "linalg.nullspace", "solver.sample",
               "solver.extract", "solver.decide", "solver.matpoly", "linalg.eig", "states.reduce")
SELF_ONLY = {"solver.decide": "solver.decide_self", "states.reduce": "states.reduce_self"}


def per_layer(result, cases, workdir):
    import spans as spanlib

    records = result["records"]
    trace = json.loads((workdir / "spans.json").read_text(encoding="utf-8"))
    spans, counts, maxima = trace["spans"], trace["counts"], trace["maxima"]
    if trace["missing"]:
        print("not traced (absent from the package): " + ", ".join(trace["missing"]))
    self_s, calls = spanlib.self_times(spans)
    traced = [r for r in records if r["traced"]]
    wall = sum(r["wall"] for r in traced)
    scaled, _ = scaled_walls(result)
    traced_scaled = sum(w for w, r in zip(scaled, records) if r["traced"])
    plain_scaled = sum(w for w, r in zip(scaled, records) if not r["traced"])
    # request wall time minus the verdict's own `timing`: in cli-cold the
    # whole process (start, import, argparse, file I/O, parse, dump), in
    # process the parse, the dump and the call around them
    cli_overhead = sum((r["wall"] - json.loads(r["verdict"])["timing"] for r in traced if r["verdict"]), 0.0)
    times = {"cli.overhead": cli_overhead}
    times.update((SELF_ONLY.get(span, span), self_s.get(span, 0.0)) for span in TIMED_SPANS)
    metrics = {}
    for name, value in times.items():
        metrics[f"{name}_s"] = (value, "s")
        metrics[f"{name}_share"] = (100.0 * value / wall, "%")
    case_bytes = [len(json.dumps(case.doc)) for case in cases]
    doc_bytes = sum(case_bytes[r["case"]] + len(r["verdict"] or "") for r in traced)
    trials = counts.get("solver.trials", 0)
    metrics.update({
        "serialize.doc_kib": (doc_bytes / 1024.0, "KiB"),
        "algebra.verify_calls": (calls.get("algebra.verify", 0), "count"),
        "solver.prefilter_no": (counts.get("solver.prefilter_no", 0), "count"),
        "solver.system_mb": (maxima.get("solver.system_mb", 0.0), "MB"),
        "solver.nullity": (counts.get("solver.nullity", 0), "count"),
        "linalg.nullspace_peak_mb": (maxima.get("linalg.nullspace_peak_mb", 0.0), "MB"),
        "solver.trials": (trials, "count"),
        "solver.accept_ratio": (counts.get("solver.accepted", 0) / trials if trials else 0.0, "ratio"),
        "solver.extract_rejects": (counts.get("solver.extract.raised.DegenerateCandidateError", 0),
                                   "count"),
        "states.inner_solves": (spanlib.child_calls(spans, "solver.decide", "states.reduce"), "count"),
        "trace.requests": (len(traced), "count"),
        "trace.overhead_pct": (100.0 * (traced_scaled / plain_scaled - 1.0), "%"),
    })
    # cli.overhead_s overlaps the other layers, so it is not ranked with them
    ranked = sorted(((v, k) for k, (v, u) in metrics.items() if u == "s" and k != "cli.overhead_s"),
                    reverse=True)
    print("largest self times: " + ", ".join(f"{k} {v:.3f} s ({100 * v / wall:.1f}%)"
                                             for v, k in ranked[:5]))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is imported, here and in every child
    # One CPU for this process and all it starts: the reference that scales
    # the timings then runs where the measured work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (SRC / "uniequiv" / "__init__.py").is_file():
        return fail(f"no uniequiv sources under {SRC}; run from the root of a checkout")
    if args.workload not in CYCLES:
        return fail(f"unknown workload {args.workload!r}; expected one of {sorted(CYCLES)}")
    sys.path.insert(0, str(SRC))
    import uniequiv

    if SRC.resolve() not in Path(uniequiv.__file__).resolve().parents:
        return fail(f"uniequiv imported from {uniequiv.__file__}, not from {SRC}")
    print(f"{args.workload} seed {args.seed}: {code_identity()}; {environment()}")

    try:
        workdir, cases = write_workdir(args.workload, args.seed, args.trace)
        from reference import NOMINAL_S, Reference

        reference = Reference()
        speeds, setups = [reference.sample()], []
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            with Worker(workdir, deadline, "--role", "setup") as probe:
                setups.append(probe.ready())
                probe.finish()
            speeds.append(reference.sample())
        with Worker(workdir, deadline, "--role", "run", "--seconds", str(args.seconds),
                    "--trace", str(args.trace)) as worker:
            setups.append(worker.ready())
            worker.finish()
        setup_factor = statistics.median(speeds) / NOMINAL_S
        result = json.loads((workdir / "results.json").read_text(encoding="utf-8"))
    except (RuntimeError, OSError, ValueError) as exc:
        return fail(str(exc))

    import check

    records = result["records"]
    statuses = []
    notes = Counter()
    for r in records:
        case = cases[r["case"]]
        status = ("fail", r["error"]) if r["error"] else check.check(case.doc, case.label, r["verdict"])
        statuses.append(status)
        if status[0] != "ok":
            notes[f"{status[0]}: {case.kind} (label {case.label}): {status[1][:200]}"] += 1
    for note, count in sorted(notes.items()):
        print(f"{count} x {note}")
    failed = tally(statuses)[0]
    try:
        if args.trace:
            metrics = per_layer(result, cases, workdir)
        else:
            metrics = end_to_end(result, statuses, setups, setup_factor, cases)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        return fail(str(exc))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
