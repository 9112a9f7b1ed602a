"""Benchmark worker: one fresh process that is the system under test.

    python3 perfbench/worker.py WORKDIR --role setup
    python3 perfbench/worker.py WORKDIR --role run --seconds S --trace 0|1

It imports `uniequiv` (from the checkout's `src`, through PYTHONPATH), runs
one untimed warm-up request and prints READY; the parent times that as
set-up. With --role run it then sends the workload's requests one after the
other (a closed loop, one client), in whole cycles, and writes the verdict
texts and timings to WORKDIR/results.json. Checking happens in the parent.

A request runs from the JSON instance text to the verdict-document text,
as `uniequiv decide` does, and parses its own document, so caches that hang
off parsed algebras start cold. For the cli-cold workload a request is a
fresh `python -m uniequiv.cli decide FILE --seed S -o OUT` process,
started by launcher.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import uniequiv
from uniequiv import linalg, serialize, solver, states

from reference import Reference
from spans import Recorder

HERE = Path(__file__).resolve().parent
REFERENCE_EVERY_S = 0.5  # the reference is timed between requests at most this often


def decide_text(text: str, seed: int) -> str:
    """The library path of `uniequiv decide`, from instance text to verdict text."""
    mode, payload = serialize.parse_instance(json.loads(text))
    cfg = solver.SamplerConfig(seed=seed)
    tol = linalg.Tolerances()
    start = time.perf_counter()
    if mode == "matrix-pairs":
        verdict = solver.decide_uep(payload, cfg, tol)
    elif mode == "matpoly":
        verdict = solver.decide_invertible_equivalence(payload[0], payload[1], cfg, tol)
    elif mode == "pure-sets":
        verdict = states.simultaneous_lu_pure(payload[0], payload[1], cfg, tol)
    elif mode == "unilocal-mixed":
        verdict = states.unilocal_mixed_equivalence(payload[0], payload[1], cfg, tol)
    else:
        verdict = states.generic_mixed_lu(payload[0], payload[1], cfg, tol)
    timing = time.perf_counter() - start
    doc = serialize.verdict_document(verdict, mode=mode, seed=seed, timing=timing)
    return serialize.dumps_document(doc)


class Runner:
    def __init__(self, workdir: Path, manifest: dict):
        self.workdir = workdir
        self.cli = manifest["workload"] == "cli-cold"
        self.recorder = None
        self.n_cli = 0
        self.child_rss_kb = 0
        self.launcher = None
        if self.cli:
            self.launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self):
        if self.launcher is not None:
            self.launcher.stdin.close()
            self.launcher.stdout.close()
            self.launcher.wait()

    def _launch(self, cmd, env):
        """Run one CLI process through the launcher: (wall, exit code)."""
        request = {"cmd": cmd, "env": env, "stderr": str(self.workdir / "cli_stderr.txt")}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        self.child_rss_kb = max(self.child_rss_kb, reply["maxrss_kb"])
        return reply["wall"], reply["returncode"]

    def request(self, path: Path, text: str, seed: int, traced: bool, request_id: int):
        """One request; returns (wall seconds, verdict text or None, error or None)."""
        rec = self.recorder if traced else None
        if rec is not None:
            rec.request = request_id
        if not self.cli:
            start = time.perf_counter()
            try:
                out = rec.call("request", decide_text, text, seed) if rec else decide_text(text, seed)
            except Exception as exc:  # a failed request is counted, the loop goes on
                return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
            return time.perf_counter() - start, out, None
        out_path = self.workdir / f"out_{path.stem}.json"
        out_path.unlink(missing_ok=True)
        env = dict(os.environ)
        if rec is not None:
            spans_path = self.workdir / f"spans_cli_{self.n_cli}.json"
            self.n_cli += 1
            env.update(PERFBENCH_SPANS=str(spans_path), PERFBENCH_REQUEST=str(request_id))
            cmd = [sys.executable, str(HERE / "cli_traced.py")]
        else:
            cmd = [sys.executable, "-m", "uniequiv.cli"]
        cmd += ["decide", str(path), "--seed", str(seed), "-o", str(out_path)]
        if rec is not None:
            request_span = len(rec.spans)
            wall, code = rec.call("request", self._launch, cmd, env)
            with open(spans_path, encoding="utf-8") as fh:
                child = json.load(fh)
            rec.absorb(child["spans"], parent=request_span)
            rec.counts.update(child["counts"])
            for key, value in child["maxima"].items():
                rec.maxima[key] = max(rec.maxima[key], value)
        else:
            wall, code = self._launch(cmd, env)
        if code not in (0, 1, 2):
            stderr = (self.workdir / "cli_stderr.txt").read_text(encoding="utf-8", errors="replace")
            return wall, None, f"exit {code}: {stderr.strip()[-300:]}"
        try:
            return wall, out_path.read_text(encoding="utf-8"), None
        except OSError as exc:
            return wall, None, f"no verdict document: {exc}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    manifest = json.loads((args.workdir / "manifest.json").read_text(encoding="utf-8"))
    src = Path(manifest["src"]).resolve()
    if src not in Path(uniequiv.__file__).resolve().parents:
        print(f"uniequiv imported from {uniequiv.__file__}, not from {src}", file=sys.stderr)
        return 3
    runner = Runner(args.workdir, manifest)
    warm = args.workdir / manifest["warmup"]
    _, _, error = runner.request(warm, warm.read_text(encoding="utf-8"), 1, False, -1)
    if error is not None:
        print(f"warm-up request failed: {error}", file=sys.stderr)
        return 3
    print("READY", flush=True)
    if args.role == "setup":
        runner.close()
        return 0

    cases = [(args.workdir / c["file"], c["seed"]) for c in manifest["cases"]]
    texts = [p.read_text(encoding="utf-8") for p, _ in cases]
    min_cycles, max_cycles = manifest["cycles"]
    if args.trace:
        runner.recorder = Recorder()
        min_cycles, max_cycles = max(2, min_cycles + min_cycles % 2), max_cycles + max_cycles % 2
    reference = Reference()
    records, references = [], []
    start = time.perf_counter()
    cycles = 0
    while True:
        # in the traced run, odd cycles are traced and even ones are not,
        # so the two halves measure the same documents
        traced = bool(args.trace) and cycles % 2 == 1
        references.append([cycles, reference.sample()])
        last_reference = time.perf_counter()
        if traced:
            runner.recorder.install()
        for i, ((path, seed), text) in enumerate(zip(cases, texts)):
            wall, out, error = runner.request(path, text, seed, traced, len(records))
            records.append({"case": i, "cycle": cycles, "traced": traced, "wall": wall,
                            "verdict": out, "error": error})
            if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                references.append([cycles, reference.sample()])
                last_reference = time.perf_counter()
        if traced:
            runner.recorder.uninstall()
        cycles += 1
        elapsed = time.perf_counter() - start
        if cycles >= min_cycles and (not args.trace or cycles % 2 == 0) \
                and (cycles >= max_cycles or elapsed + elapsed / cycles > args.seconds):
            break
    elapsed = time.perf_counter() - start
    runner.close()
    peak_kb = runner.child_rss_kb if runner.cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"records": records, "references": references, "cycles": cycles, "elapsed": elapsed,
              "peak_rss_mb": peak_kb / 1024.0}
    (args.workdir / "results.json").write_text(json.dumps(result), encoding="utf-8")
    if runner.recorder is not None:
        runner.recorder.dump(args.workdir / "spans.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
