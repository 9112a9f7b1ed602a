"""Command-line front end.

Exit codes: 0 = YES, 1 = NO, 2 = INCONCLUSIVE, 3 = malformed file or shape
mismatch, 4 = invalid algebra, 5 = unmet precondition (e.g. degenerate
spectrum in generic-mixed mode), 64 = usage error: a missing, malformed or
out-of-range option, options that contradict each other, or an output path
that cannot be written, 70 = internal error: any other exception, named on
stderr, with no verdict document written.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from . import serialize
from .errors import (
    InputError,
    InvalidAlgebraError,
    NotGenericError,
    UniequivError,
)
from .linalg import Tolerances
from .oracle import random_no_instance, random_yes_instance
from .solver import (SamplerConfig, _usable_algebras, certificate_residuals,
                     decide_invertible_equivalence, decide_uep)
from .states import generic_mixed_lu, simultaneous_lu_pure, unilocal_mixed_equivalence

EXIT_YES = 0
EXIT_NO = 1
EXIT_INCONCLUSIVE = 2
EXIT_MALFORMED = 3
EXIT_INVALID_ALGEBRA = 4
EXIT_PRECONDITION = 5
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class _UsageError(UniequivError):
    """An option that the command rejects: a value out of range, checked before
    any file is read, or an output path that cannot be written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="uniequiv",
                     description="Decide simultaneous unitary equivalence of matrix sets "
                                 "and local-unitary equivalence of bipartite quantum states.")
    sub = parser.add_subparsers(dest="command", required=True)

    decide = sub.add_parser("decide", help="decide an instance file")
    decide.add_argument("instance", help="path to the JSON instance file")
    decide.add_argument("--mode", choices=serialize.MODES,
                        help="override the mode recorded in the file")
    decide.add_argument("--seed", type=int, required=True,
                        help="sampler seed (recorded in the verdict document)")
    decide.add_argument("--trials", type=int, default=SamplerConfig.trials)
    decide.add_argument("--sample-max", type=int, default=SamplerConfig.sample_max)
    decide.add_argument("--tol-rank", type=float, default=Tolerances.rank_rel)
    decide.add_argument("--tol-residual", type=float, default=Tolerances.residual_abs)
    decide.add_argument("--verbose", action="store_true")
    decide.add_argument("-o", "--output", help="write the verdict document here instead of stdout")

    gen = sub.add_parser("gen", help="generate a reproducible test instance")
    kind = gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--yes", action="store_true", help="planted YES instance")
    kind.add_argument("--no", dest="no_", action="store_true",
                      help="NO instance violating the singular-value prefilter")
    gen.add_argument("--d1", type=int, required=True)
    gen.add_argument("--d2", type=int, required=True)
    gen.add_argument("--m", type=int, default=0, help="polynomial degree (m+1 pairs)")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--g1", default="full", help='"full" or "factor:a,b"')
    gen.add_argument("--g2", default="full", help='"full" or "factor:a,b"')
    gen.add_argument("-o", "--output", help="instance file path (default stdout)")
    gen.add_argument("--witness", help="also write the planted (U0, V0) here (YES only)")

    verify = sub.add_parser("verify", help="independently check a certificate")
    verify.add_argument("instance", help="path to the JSON instance file (any mode)")
    verify.add_argument("certificate",
                        help="path to the certificate JSON with U, V (V null for unilocal-mixed)")
    verify.add_argument("--tol-residual", type=float, default=Tolerances.residual_abs)
    return parser


# Tolerances / SamplerConfig field -> the flag that sets it
_FLAGS = {"rank_rel": "--tol-rank", "residual_abs": "--tol-residual", "trials": "--trials",
          "sample_max": "--sample-max", "seed": "--seed"}


def _options(make, **fields):
    """make(**fields); its range error becomes a usage error naming the flag, not the field."""
    try:
        return make(**fields)
    except InputError as exc:
        field, _, rule = str(exc).partition(" ")
        raise _UsageError(f"{_FLAGS.get(field, field)} {rule}") from exc


def _parse_algebra_flag(flag: str, name: str):
    if flag == "full":
        return "full"
    if flag.startswith("factor:"):
        try:
            a, b = (int(x) for x in flag[len("factor:"):].split(","))
            return ("factor", a, b)
        except ValueError:
            pass
    raise InputError(f'--{name}: expected "full" or "factor:a,b", got {flag!r}')


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_decide(args) -> int:
    tol = _options(Tolerances, rank_rel=args.tol_rank, residual_abs=args.tol_residual)
    cfg = _options(SamplerConfig, sample_max=args.sample_max, trials=args.trials, seed=args.seed)
    mode, payload = serialize.load_instance(args.instance, args.mode)
    start = time.perf_counter()
    if mode == "matrix-pairs":
        verdict = decide_uep(payload, cfg, tol)
    elif mode == "matpoly":
        verdict = decide_invertible_equivalence(payload[0], payload[1], cfg, tol)
    elif mode == "pure-sets":
        verdict = simultaneous_lu_pure(payload[0], payload[1], cfg, tol)
    elif mode == "unilocal-mixed":
        verdict = unilocal_mixed_equivalence(payload[0], payload[1], cfg, tol)
    else:
        verdict = generic_mixed_lu(payload[0], payload[1], cfg, tol)
    timing = time.perf_counter() - start
    out = serialize.verdict_document(verdict, mode=mode, seed=args.seed,
                                     timing=timing, verbose=args.verbose)
    _write(serialize.dumps_document(out), args.output)
    return {"YES": EXIT_YES, "NO": EXIT_NO}.get(verdict.verdict, EXIT_INCONCLUSIVE)


def cmd_gen(args) -> int:
    """Write a planted instance; gen reads no file, so every error is a usage error."""
    g1 = _parse_algebra_flag(args.g1, "g1")
    g2 = _parse_algebra_flag(args.g2, "g2")
    if args.no_ and args.witness:
        raise InputError("--witness needs --yes: a NO instance has no planted certificate")
    if args.yes:
        inst, (U0, V0) = random_yes_instance(args.d1, args.d2, args.m, g1, g2, seed=args.seed)
        if args.witness:
            _write(serialize.dumps_document(serialize.certificate_to_json(U0, V0)), args.witness)
    else:
        if (g1, g2) != ("full", "full"):
            raise InputError("NO instances are generated over the full algebras")
        inst = random_no_instance(args.d1, args.d2, args.m, seed=args.seed)
    doc = serialize.instance_to_json(inst, seed=args.seed)
    _write(serialize.dumps_document(doc), args.output)
    return 0


def cmd_verify(args) -> int:
    """Check a certificate {U, V} against an instance of any mode.

    The certificate may be a whole verdict document of `decide`: the instance
    is then read under the document's "mode", which `decide --mode` may have
    set apart from the file's own. A matrix-pairs instance's algebras are
    judged as `decide` judges them (_usable_algebras, at fixed bounds), so a
    file that `decide` calls an invalid algebra exits 4 here too. The check
    is certificate_residuals, the function every YES of `decide` passes
    through: it shares only matrix kernels with the solver, not the linear
    system, the sampler or the extraction. perfbench/check.py is the checker
    that shares no code with the package.
    """
    tol = _options(Tolerances, residual_abs=args.tol_residual)
    cert = serialize.read_json(args.certificate)
    mode = cert.get("mode") if isinstance(cert, dict) else None
    mode, payload = serialize.load_instance(args.instance, mode)
    U, V = serialize.certificate_from_json(cert)
    if mode == "matrix-pairs":
        _usable_algebras(payload)
    residual, defect = certificate_residuals(mode, payload, U, V)
    print(f"residual: {residual:.6e}  defect: {defect:.6e}")
    return EXIT_YES if max(residual, defect) <= tol.residual_abs else EXIT_NO


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "decide":
            return cmd_decide(args)
        if args.command == "gen":
            return cmd_gen(args)
        return cmd_verify(args)
    except UniequivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _UsageError) or args.command == "gen":
            return EXIT_USAGE
        if isinstance(exc, InvalidAlgebraError):
            return EXIT_INVALID_ALGEBRA
        if isinstance(exc, NotGenericError):
            return EXIT_PRECONDITION
        return EXIT_MALFORMED
    except Exception as exc:  # a crash must not exit 1, the NO status
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run(argv=None) -> int:
    """The process entry (the `uniequiv` script and `python -m uniequiv.cli`):
    main(argv)'s exit status, then gc.freeze(), also when argparse exits.
    The frozen objects, about 22,000 made by importing numpy and the package,
    are never collected again, so the interpreter's shutdown collections do
    not walk them; atexit handlers, module teardown and the stream flush
    still run. main leaves the collector alone for library callers."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
