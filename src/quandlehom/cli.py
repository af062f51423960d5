"""Command-line front end.

Every subcommand prints a single JSON report with the fixed key order
(command, context, status, result-or-error) and integer-only numbers, so
reports can be diffed and re-parsed byte-identically.

Exit codes: 0 success, 1 verification failure, 2 malformed flags,
3 domain errors (modulus below 1 as ``BadModulus``, non-unit twist,
invalid table, unreachable pair, ``verify --n-max`` below 1 as
``EmptyRange``, a negative ``--word-samples`` or ``--rewrite-samples`` as
``NegativeCount``, ...).
"""

from __future__ import annotations

import argparse
import json

from .cocycle import degree_zero_cocycle
from .checks import run_verification
from .errors import QuandleAxiomError, QuandleHomError
from .homology import h2_chain_complex, h2_closed_form, h2_eisermann
from .quandle import (
    FiniteQuandle,
    LinearAlexanderParams,
    build_alexander,
    orbits,
    parse_table,
)
from .words import canonical_word, format_word, parse_word, rewrite_trace, word_eval


def _params(args):
    return LinearAlexanderParams(args.n, args.t)


def _cmd_axioms(args):
    with open(args.table, "r", encoding="utf-8") as handle:
        table = parse_table(handle.read())
    try:
        quandle = FiniteQuandle(table)
    except QuandleAxiomError as exc:
        report = _report(
            args,
            status="error",
            error={
                "code": exc.code,
                "axiom": exc.axiom,
                "witness": list(exc.witness),
            },
        )
        return report, 3
    return _report(args, result={"n": quandle.n, "valid": True}), 0


def _cmd_orbits(args):
    params = _params(args)
    blocks = orbits(build_alexander(params))
    return (
        _report(args, result={"m": params.num_orbits, "orbits": blocks}),
        0,
    )


def _cmd_h2(args):
    params = _params(args)
    if args.method == "chain":
        invariants = h2_chain_complex(build_alexander(params))
    elif args.method == "eisermann":
        invariants = h2_eisermann(params)
    else:
        invariants = h2_closed_form(params)
    return (
        _report(
            args,
            result={"rank": invariants.rank, "torsion": list(invariants.torsion)},
        ),
        0,
    )


def _cmd_normal_form(args):
    params = _params(args)
    word = parse_word(args.word, params)
    packed = word_eval(word)
    result = {
        "packed": {"v": list(packed.v), "a": packed.a},
        "degree": packed.degree,
        "canonical": format_word(canonical_word(packed)),
    }
    if args.trace:
        final, steps = rewrite_trace(word)
        result["trace"] = [
            {"rule": step.rule, "word": format_word(step.word), "note": step.note}
            for step in steps
        ]
        result["canonical"] = format_word(final)
    return _report(args, result=result), 0


def _cmd_phi_table(args):
    params = _params(args)
    table = [
        [list(degree_zero_cocycle(params, a, b).v) for b in range(params.n)]
        for a in range(params.n)
    ]
    return (
        _report(args, result={"m": params.num_orbits, "table": table}),
        0,
    )


def _cmd_verify(args):
    results = run_verification(
        args.n_max,
        seed=args.seed,
        word_samples=args.word_samples,
        rewrite_samples=args.rewrite_samples,
    )
    cases = [
        {
            "name": r.name,
            "context": r.context,
            "checks": r.checks,
            "passed": r.passed,
            "failures": r.failures,
        }
        for r in results
    ]
    failures = sum(1 for r in results if not r.passed)
    report = _report(
        args,
        result={
            "cases": cases,
            "summary": {
                "families": len(results),
                "checks": sum(r.checks for r in results),
                "failed_families": failures,
            },
        },
    )
    return report, (1 if failures else 0)


def _context_of(args):
    context = {}
    for key in ("n", "t", "table", "method", "word", "n_max", "seed"):
        if hasattr(args, key):
            context[key] = getattr(args, key)
    return context


def _report(args, result=None, status="ok", error=None):
    report = {
        "command": args.command,
        "context": _context_of(args),
        "status": status,
    }
    if error is not None:
        report["error"] = error
    else:
        report["result"] = result
    return report


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quandlehom",
        description=(
            "Structure-group invariants and second quandle homology of "
            "linear Alexander quandles (exact integer arithmetic)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", help="validate a quandle table file")
    p.add_argument("--table", required=True, help="path to a plain-text table")
    p.set_defaults(handler=_cmd_axioms)

    def add_nt(p):
        p.add_argument("--n", type=int, required=True, help="modulus")
        p.add_argument("--t", type=int, required=True, help="twist, a unit mod n")

    p = sub.add_parser("orbits", help="orbit partition of the quandle on Z/n")
    add_nt(p)
    p.set_defaults(handler=_cmd_orbits)

    p = sub.add_parser("h2", help="second quandle homology")
    add_nt(p)
    p.add_argument(
        "--method",
        choices=("formula", "eisermann", "chain"),
        default="formula",
        help="closed formula, stabilizer pullback, or chain-complex oracle",
    )
    p.set_defaults(handler=_cmd_h2)

    p = sub.add_parser("normal-form", help="evaluate a word and canonicalize it")
    add_nt(p)
    p.add_argument("--word", required=True, help='word such as "e1 e0^-2 e3"')
    p.add_argument("--trace", action="store_true", help="include the rewrite steps")
    p.set_defaults(handler=_cmd_normal_form)

    p = sub.add_parser("phi-table", help="degree-zero cocycle values as vectors")
    add_nt(p)
    p.set_defaults(handler=_cmd_phi_table)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--n-max", type=int, required=True, help="largest modulus")
    p.add_argument("--seed", type=int, default=2024, help="seed for random sweeps")
    p.add_argument("--word-samples", type=int, default=150)
    p.add_argument("--rewrite-samples", type=int, default=60)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        report, code = args.handler(args)
    except QuandleHomError as exc:
        report = _report(
            args, status="error", error={"code": exc.code, "message": str(exc)}
        )
        code = 3
    except OSError as exc:
        report = _report(
            args, status="error", error={"code": "IO", "message": str(exc)}
        )
        code = 3
    print(json.dumps(report, indent=2))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
