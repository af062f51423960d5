"""Command-line front end.

Every subcommand prints a single JSON report with the fixed key order
(command, context, status, result-or-error) and integer-only numbers, so
reports can be diffed and re-parsed byte-identically.  A report is the
bytes of ``json.dumps(report, indent=2)``; the private writer ``_dumps``
emits them with one ``str.join`` per list of ints, since ``json.dumps``
runs its pure-Python encoder whenever ``indent`` is set.

``phi-table`` computes each phi((0, a), (0, b)) from the closed form
e_[a] + e_[b] - e_[a+b] - e_0, [x] = x mod m, and ``orbits`` lists the
cosets r + mZ/n without building the table; ``verify`` checks both.

``main`` builds its argument parser once per process, on the first call.

Exit codes: 0 success, 1 verification failure, 2 malformed flags,
3 domain errors (modulus below 1 as ``BadModulus``, non-unit twist,
invalid table or a table file that is not UTF-8 as ``TableFormat``,
unreachable pair, ``verify --n-max`` below 1 as
``EmptyRange``, a negative ``--word-samples`` or ``--rewrite-samples`` as
``NegativeCount``, ...).  If the reader closes stdout early, the output
stops there with no traceback and the exit code is still the report's.
Numbers in words and table files are ASCII decimal separated by ASCII
whitespace; ``_`` separators, other digits and other whitespace (such as
U+3000) are refused.
"""

import argparse
import functools
import json
import os
import sys
from itertools import chain

from .cocycle import extension_cocycle
from .checks import run_verification
from .errors import QuandleAxiomError, QuandleHomError, TableFormatError
from .homology import h2_chain_complex, h2_closed_form, h2_eisermann
from .quandle import FiniteQuandle, LinearAlexanderParams, build_alexander, parse_table
from .words import _token, canonical_word, format_word, parse_word, rewrite_trace, word_eval


def _params(args):
    return LinearAlexanderParams(args.n, args.t)


def _cmd_axioms(args):
    with open(args.table, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise TableFormatError(f"table file is not UTF-8: {exc}") from exc
    table = parse_table(text)
    try:
        quandle = FiniteQuandle(table)
    except QuandleAxiomError as exc:
        error = {"code": exc.code, "axiom": exc.axiom, "witness": list(exc.witness)}
        return _report(args, status="error", error=error), 3
    return _report(args, result={"n": quandle.n, "valid": True}), 0


def _cmd_orbits(args):
    params = _params(args)
    m = params.num_orbits
    # check_quandle_structure proves the table's orbits are these cosets
    blocks = [list(range(r, params.n, m)) for r in range(m)]
    return _report(args, result={"m": m, "orbits": blocks}), 0


def _cmd_h2(args):
    params = _params(args)
    if args.method == "chain":
        invariants = h2_chain_complex(build_alexander(params))
    elif args.method == "eisermann":
        invariants = h2_eisermann(params)
    else:
        invariants = h2_closed_form(params)
    result = {"rank": invariants.rank, "torsion": list(invariants.torsion)}
    return _report(args, result=result), 0


class _Texts(dict):
    """key -> the text ``make(key)``, made on first use; a hit is a plain dict lookup."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


def _cmd_normal_form(args):
    params = _params(args)
    word = parse_word(args.word, params)
    packed = word_eval(word)
    if args.trace:
        canonical, steps = rewrite_trace(word, packed)
    else:
        canonical = canonical_word(packed)
    result = {
        "packed": {"v": list(packed.v), "a": packed.a},
        "degree": packed.degree,
        "canonical": format_word(canonical),
    }
    if args.trace:
        # one token table per report: a trace repeats its letters step after step
        token = _Texts(lambda letter: _token(*letter)).__getitem__
        result["trace"] = [
            {
                "rule": step.rule,
                "word": " ".join(map(token, step.word.letters)),
                "note": step.note,
            }
            for step in steps
        ]
    return _report(args, result=result), 0


def _cmd_phi_table(args):
    params = _params(args)
    m = params.num_orbits
    k = params.n // m
    # the closed form reads a and b mod m only, and m divides n: entry (a, b)
    # is the vector of (a mod m, b mod m), so the m x m block repeats k x k times
    rows = [
        [list(extension_cocycle(params, (0, r), (0, s)).v) for s in range(m)] * k
        for r in range(m)
    ]
    return _report(args, result={"m": m, "table": rows * k}), 0


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


@functools.cache
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


_encode_str = json.encoder.encode_basestring_ascii
_CONSTANTS = {True: "true", False: "false", None: "null"}
_EMPTY = {list: "[]", dict: "{}"}


def _dumps(report):
    """The text of ``json.dumps(report, indent=2)``."""
    # reports repeat small ints: one text each per report
    return _write(report, "\n", _Texts(int.__repr__).__getitem__)


def _write(value, pad, int_text):
    """``value`` as ``json.dumps(..., indent=2)`` writes it, nested at ``pad``.

    ``pad`` is a newline and the indent of ``value``'s own line.  Strings,
    ints, bools, None, lists and str-keyed dicts are written here: a list
    of ints in one join, a list of non-empty int lists in one
    comprehension.  Any other value goes to ``json.dumps``, re-indented to
    ``pad``; its output holds no other newline, as strings escape theirs.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int_text(value)
    if kind is bool or value is None:
        return _CONSTANTS[value]
    if not value and kind in _EMPTY:
        return _EMPTY[kind]
    inner = pad + "  "
    if kind is list:
        kinds = set(map(type, value))
        if kinds == {int}:
            items = map(int_text, value)
        elif kinds == {list} and all(value) and set(map(type, chain.from_iterable(value))) == {int}:
            deeper = inner + "  "
            sep = "," + deeper
            items = ["[" + deeper + sep.join(map(int_text, row)) + inner + "]" for row in value]
        else:
            items = [_write(item, inner, int_text) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is dict and set(map(type, value)) == {str}:
        # a str value is encoded in place: trace steps are dicts of three strs
        items = [
            _encode_str(key)
            + ": "
            + (_encode_str(item) if type(item) is str else _write(item, inner, int_text))
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return json.dumps(value, indent=2).replace("\n", pad)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        report, code = args.handler(args)
    except (QuandleHomError, OSError) as exc:
        name = exc.code if isinstance(exc, QuandleHomError) else "IO"
        error = {"code": name, "message": str(exc)}
        report, code = _report(args, status="error", error=error), 3
    try:
        print(_dumps(report), flush=True)
    except BrokenPipeError:
        # the reader left: let the interpreter's last flush go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
