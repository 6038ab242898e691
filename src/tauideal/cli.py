"""Command-line front end: tau, newton, check, crosscheck, veronese.

Rings and ideals are read from JSON files; rationals are serialized as
"num/den" strings so no float ever enters or leaves.  Exit codes: 0 all
pass, 1 counterexample, 2 inconclusive, 3 input error (any package error
but ``InvariantError``, or a usage error on the command line), 4 internal
error (a failed internal check, ``InvariantError``, or any other exception,
with its traceback on stderr).  ``--help`` exits 0.  ``main`` runs the
``cmd_<subcommand>`` function it finds at call time.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from . import ideals as idl
from .campaigns import CAMPAIGNS, jsonable, run_campaign, run_crosscheck
from .enumeration import sharing
from .errors import InputError, InvariantError, NotStabilizedError, TauIdealError
from .frobenius import frobenius_root_tau_oracle, tau_socle_oracle
from .ideals import MonomialIdeal
from .lattice import ToricRing, int_scalar, toric_ring
from .polyhedra import exponent, newton_polyhedron, scale
from .tau import tau, tau_veronese, veronese_maximal_ideal, veronese_ring

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which would read as inconclusive."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _load_json(path: str) -> dict:
    """The JSON value of a file: InputError if it cannot be opened, or is
    not JSON text (ValueError covers bad JSON, bytes that are not UTF-8 and
    an int longer than Python reads; RecursionError, nesting too deep)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def load_ring(path: str) -> ToricRing:
    """The ring of a JSON file; its generators are checked by ``toric_ring``
    as any caller's are (``lattice.int_vectors``), and "d" by
    ``lattice.int_scalar``, which refuses a float, a bool or a string."""
    data = _load_json(path)
    try:
        gens = data["cone_generators"]
        declared = int_scalar("d", data["d"]) if "d" in data else None
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad ring file {path}: {exc}") from exc
    ring = toric_ring(gens)
    if declared is not None and declared != ring.d:
        raise InputError(
            f"{path}: declared rank {declared} but generators have rank {ring.d}"
        )
    if "shape_hint" in data:
        hint = data["shape_hint"]
        if hint != "orthant":
            raise InputError(f"{path}: unknown shape_hint {hint!r}")
        if not ring.is_orthant():
            raise InputError(f"{path}: shape_hint 'orthant' on a non-orthant cone")
    return ring


def load_ideal(path: str, ring: ToricRing) -> MonomialIdeal:
    data = _load_json(path)
    try:
        gens = data["generators"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad ideal file {path}: {exc}") from exc
    return idl.minimalize(ring, gens)


def emit(payload: dict, out: str) -> None:
    if out == "json":
        print(json.dumps(jsonable(payload), sort_keys=True))
        return
    for key, value in payload.items():
        print(f"{key}: {json.dumps(jsonable(value), sort_keys=True)}")


def _exit_code(failed, inconclusive) -> int:
    """1 on a counterexample, else 2 if anything was inconclusive, else 0."""
    if failed:
        return EXIT_COUNTEREXAMPLE
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_PASS


def cmd_tau(args) -> int:
    ring = load_ring(args.ring)
    a = load_ideal(args.ideal, ring)
    t = exponent(args.t)
    methods = ["polyhedral", "socle", "root"] if args.method == "all" else [args.method]
    qmax, p = args.qmax, args.prime
    results: dict[str, MonomialIdeal] = {}
    inconclusive = []
    with sharing():  # as in run_crosscheck; the root route stays outside
        if "polyhedral" in methods:
            results["polyhedral"] = tau(ring, a, t)
        if "socle" in methods:
            results["socle"] = tau_socle_oracle(ring, a, t, qmax, p).ideal
    # with --method all, skipped where no q = p^e is admissible for it
    if "root" in methods and (args.method == "root" or ring.gorenstein_index % p):
        try:
            results["root"] = frobenius_root_tau_oracle(ring, a, t, qmax, p)
        except NotStabilizedError as exc:
            inconclusive.append({"method": "root", "reason": str(exc)})
    values = list(results.values())
    agreement = all(v == values[0] for v in values)
    payload = {
        "command": "tau",
        "t": t,
        "generators": {m: v for m, v in results.items()},
        "agreement": agreement,
        "inconclusive": inconclusive,
    }
    emit(payload, args.out)
    return _exit_code(not agreement, inconclusive)


def cmd_newton(args) -> int:
    ring = load_ring(args.ring)
    a = load_ideal(args.ideal, ring)
    P = scale(newton_polyhedron(ring, a.gens), args.t)
    payload = {
        "command": "newton",
        "t": P.scale,
        "vertices": [list(v) for v in P.vertices],
        "rays": [list(r) for r in P.rays],
        "inequalities": [[list(av), b] for av, b in P.inequalities],
    }
    emit(payload, args.out)
    return EXIT_PASS


def cmd_check(args) -> int:
    rep = run_campaign(args.campaign, seed=args.seed, count=args.count)
    emit(rep.to_dict(), args.out)
    return EXIT_PASS if rep.ok else EXIT_COUNTEREXAMPLE


def cmd_crosscheck(args) -> int:
    ring = load_ring(args.ring)
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise InputError(f"{args.corpus} is not a directory")
    named = []
    for path in sorted(corpus.glob("*.json")):
        a = load_ideal(str(path), ring)
        if a.is_zero():
            raise InputError(f"{path}: tau of the zero ideal is undefined")
        named.append((path.name, a))
    if not named:
        raise InputError(f"no ideal files (*.json) in {args.corpus}")
    ts = [exponent(s) for s in args.t.split(",")]
    rep = run_crosscheck(ring, named, ts, qmax=args.qmax, primes=(args.prime,))
    emit(rep.to_dict(), args.out)
    return _exit_code(rep.failures, rep.inconclusive)


def cmd_veronese(args) -> int:
    d, r, l = args.d, args.r, args.l
    e = tau_veronese(d, r, l)
    ring = veronese_ring(d, r)
    m = veronese_maximal_ideal(ring, d, r)
    computed = tau(ring, idl.power(m, l), 1)
    agreement = computed == idl.power(m, e)  # m**0 is the unit ideal
    payload = {
        "command": "veronese",
        "d": d,
        "r": r,
        "l": l,
        "closed_form_exponent": e,
        "generators": computed,
        "agreement": agreement,
    }
    emit(payload, args.out)
    return EXIT_PASS if agreement else EXIT_COUNTEREXAMPLE


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of a process and shared after."""
    parser = _Parser(
        prog="tauideal",
        description="Exact test ideals of monomial ideals in toric rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--ring", required=True, help="ring JSON file")
        p.add_argument("--ideal", required=True, help="ideal JSON file")
        p.add_argument("--t", default="1", help="rational exponent, e.g. 5/6")

    p = sub.add_parser("tau", help="compute tau(a^t)")
    common(p)
    p.add_argument(
        "--method",
        choices=["polyhedral", "socle", "root", "all"],
        default="polyhedral",
    )
    p.add_argument("--qmax", type=int, default=128)
    p.add_argument("--prime", type=int, default=2)

    p = sub.add_parser("newton", help="print t*P(a)")
    common(p)

    p = sub.add_parser("check", help="run a theorem test campaign")
    p.add_argument("campaign", choices=sorted(CAMPAIGNS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=None, help="instance count")

    p = sub.add_parser("crosscheck", help="compare oracles over an ideal corpus")
    p.add_argument("--ring", required=True)
    p.add_argument("--corpus", required=True, help="directory of ideal JSON files")
    p.add_argument("--t", default="1", help="comma-separated rationals")
    p.add_argument("--qmax", type=int, default=128)
    p.add_argument("--prime", type=int, default=2)

    p = sub.add_parser("veronese", help="closed-form vs computed Veronese tau")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--l", type=int, required=True)

    for p in sub.choices.values():
        p.add_argument("--out", choices=["text", "json"], default="text")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a replaced cmd_* function is the one run
        return globals()["cmd_" + args.command](args)
    except Exception as exc:
        if isinstance(exc, TauIdealError) and not isinstance(exc, InvariantError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        import traceback  # only a crash needs it: its import costs start-up time

        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
