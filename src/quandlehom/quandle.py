"""Finite quandles as operation tables.

A quandle is a set with a binary operation ``a <| b`` that is idempotent,
has bijective right translations, and is right self-distributive.  Tables
are 0-indexed and ``table[a][b]`` always means ``a <| b`` (row = left
operand).

Tables from outside the program (``FiniteQuandle(table)``, ``build_conj``,
``build_core``) are checked against every axiom.  The linear Alexander and
dihedral tables are built from formulas that satisfy the axioms, so their
constructors skip the O(n^3) check; ``checks.check_quandle_structure``
proves the formula explicitly.
"""

import math
import re
from itertools import compress, count
from operator import itemgetter, ne

from ._record import _Record
from .errors import (
    BadModulusError,
    NotAGroupError,
    NotAUnitError,
    QuandleAxiomError,
    TableFormatError,
)


class Violation(_Record):
    """First failed quandle axiom, with the witnessing indices."""

    __slots__ = _fields = ("axiom", "witness")

    def __init__(self, axiom, witness):
        self._fill(axiom, witness)


class LinearAlexanderParams(_Record):
    """Modulus n and twist t of the quandle a <| b = t*a + (1-t)*b on Z/n.

    The twist is stored reduced mod n and must be a unit so that
    multiplication by t is an automorphism of Z/n.  ``num_orbits`` follows
    from n and t, so it is neither compared nor printed.
    """

    __slots__ = ("n", "t", "num_orbits")
    _fields = ("n", "t")

    def __init__(self, n, t):
        if n < 1:
            raise BadModulusError(f"modulus must be >= 1, got {n}")
        t %= n
        if math.gcd(t, n) != 1:
            raise NotAUnitError(f"t={t} is not a unit modulo {n}")
        # the image of 1-t is gcd(n, 1-t)Z/n, so the orbit count is that gcd
        self._fill(n, t, math.gcd(n, (1 - t) % n))

    # == and hash are written out here and in Word and PackedElement, which
    # products and checks compare: the generic ones cost ~100 ns more
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.n == other.n and self.t == other.t)

    def __hash__(self):
        return hash((self.n, self.t))


class FiniteQuandle:
    """Size-n operation table that satisfies the quandle axioms.

    The constructor checks shape, range and every axiom, since its table
    comes from outside (a file, a group).  Tables built here from a formula
    (``build_alexander``, ``build_takasaki``) skip that check.
    """

    __slots__ = ("n", "table")

    def __init__(self, table):
        table = tuple(tuple(row) for row in table)
        violation = find_violation(table)
        if violation is not None:
            raise QuandleAxiomError(violation.axiom, violation.witness)
        self.n = len(table)
        self.table = table

    def __eq__(self, other):
        return isinstance(other, FiniteQuandle) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteQuandle(n={self.n})"


def _as_square_table(table):
    table = [list(row) for row in table]
    n = len(table)
    if n == 0:
        raise TableFormatError("a quandle is non-empty")
    for a, row in enumerate(table):
        if len(row) != n:
            raise TableFormatError(f"row {a} has {len(row)} entries, expected {n}")
        if set(map(type, row)) == {int} and 0 <= min(row) and max(row) < n:
            continue
        # name the first entry that is not an int in range
        for b, e in enumerate(row):
            if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < n:
                raise TableFormatError(f"entry ({a},{b}) = {e!r} outside 0..{n - 1}")
    return table


def find_violation(table):
    """Return the first violated axiom of a square in-range table, or None.

    Checks idempotence (witness a), bijectivity of every right translation
    (witness b), then self-distributivity (witness a, b, c, the first in
    the order of a, then b, then c).  Self-distributivity is checked a
    pair of columns at a time: (a<|b)<|c = (a<|c)<|(b<|c) for every a says
    that column b followed by column c equals column c followed by column
    b<|c.
    """
    table = _as_square_table(table)
    n = len(table)
    for a in range(n):
        if table[a][a] != a:
            return Violation("idempotence", (a,))
    columns = list(zip(*table))
    for b, column in enumerate(columns):
        if len(set(column)) != n:
            return Violation("right-translation", (b,))
    # through[b](column) is the tuple of column[a <| b] over a; for n = 1
    # every lhs and rhs below is the int 0, not a tuple
    through = [itemgetter(*column) for column in columns]
    failures = []
    for b, then_b in enumerate(through):
        for c, column in enumerate(columns):
            lhs = then_b(column)
            rhs = through[c](columns[column[b]])
            if lhs != rhs:
                a = next(compress(count(), map(ne, lhs, rhs)))
                failures.append((a, b, c))
    if failures:
        return Violation("self-distributivity", min(failures))
    return None


def _formula_quandle(table):
    """Wrap a tuple-of-tuples table whose formula satisfies the axioms, unchecked."""
    quandle = FiniteQuandle.__new__(FiniteQuandle)
    quandle.n = len(table)
    quandle.table = table
    return quandle


def build_alexander(params):
    """Quandle on Z/n with a <| b = t*a + (1-t)*b."""
    n, t = params.n, params.t
    s = (1 - t) % n
    return _formula_quandle(
        tuple(tuple((t * a + s * b) % n for b in range(n)) for a in range(n))
    )


def build_takasaki(n):
    """Dihedral quandle a <| b = 2b - a on Z/n, the twist -1 case of Alexander."""
    if n < 1:
        raise BadModulusError(f"modulus must be >= 1, got {n}")
    return _formula_quandle(
        tuple(tuple((2 * b - a) % n for b in range(n)) for a in range(n))
    )


def _group_ops(table):
    """Validate a group multiplication table; return (mul, inverse list)."""
    table = [list(row) for row in table]
    k = len(table)
    if k == 0:
        raise NotAGroupError("empty table")
    for g, row in enumerate(table):
        if len(row) != k or any(not 0 <= e < k for e in row):
            raise NotAGroupError(f"row {g} is not over 0..{k - 1}")
    identity = None
    for e in range(k):
        if all(table[e][x] == x and table[x][e] == x for x in range(k)):
            identity = e
            break
    if identity is None:
        raise NotAGroupError("no identity element")
    for a in range(k):
        for b in range(k):
            ab = table[a][b]
            for c in range(k):
                if table[ab][c] != table[a][table[b][c]]:
                    raise NotAGroupError(f"not associative at ({a},{b},{c})")
    inverse = [None] * k
    for g in range(k):
        for h in range(k):
            if table[g][h] == identity and table[h][g] == identity:
                inverse[g] = h
                break
        if inverse[g] is None:
            raise NotAGroupError(f"element {g} has no inverse")
    return table, inverse


def build_conj(group_table):
    """Conjugation quandle g <| h = h^-1 g h of a finite group table."""
    mul, inv = _group_ops(group_table)
    k = len(mul)
    return FiniteQuandle(
        [[mul[mul[inv[h]][g]][h] for h in range(k)] for g in range(k)]
    )


def build_core(group_table):
    """Core quandle g <| h = h g^-1 h of a finite group table."""
    mul, inv = _group_ops(group_table)
    k = len(mul)
    return FiniteQuandle(
        [[mul[mul[h][inv[g]]][h] for h in range(k)] for g in range(k)]
    )


def orbits(quandle):
    """Partition of 0..n-1 into connected components of the translation action.

    Blocks are sorted internally and listed by smallest element, so the
    result is canonical.
    """
    n = quandle.n
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        block = []
        stack = [start]
        seen[start] = True
        while stack:
            x = stack.pop()
            block.append(x)
            for b in range(n):
                y = quandle.table[x][b]
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        blocks.append(sorted(block))
    blocks.sort(key=lambda blk: blk[0])
    return blocks


# ASCII decimal only: int() would also take "1_0" and non-ASCII digits
_INTEGER = re.compile(r"[+-]?[0-9]+")
# a whole row of them, between spaces and tabs
_ROW = re.compile(r"[+-]?[0-9]+(?:[ \t]+[+-]?[0-9]+)*")
# fields and lines split on ASCII whitespace only: str.split() and
# str.splitlines() would also split on U+3000, U+001C and their kin
ASCII_FIELD = re.compile(r"[^ \t\n\r\v\f]+")
_LINE_BREAK = re.compile(r"\r\n?|[\n\v\f]")


def _decimal(token, what):
    try:
        return int(token)
    except ValueError:
        # int() refuses numerals past sys.get_int_max_str_digits()
        raise TableFormatError(
            f"{what} has {len(token)} characters, past the integer string limit"
        ) from None


def parse_table(text):
    """Parse the plain-text table format: first line n, then n rows of n entries.

    Numbers are ASCII decimal integers of at most
    ``sys.get_int_max_str_digits()`` digits, separated by ASCII whitespace.
    Entries are checked to lie in 0..n-1 before any axiom validation.
    """
    lines = [line.strip(" \t") for line in _LINE_BREAK.split(text)]
    lines = [line for line in lines if line]
    if not lines:
        raise TableFormatError("empty table file")
    if not _INTEGER.fullmatch(lines[0]):
        raise TableFormatError(f"first line must be the size, got {lines[0]!r}")
    n = _decimal(lines[0], "the size")
    if n < 1:
        raise TableFormatError(f"size must be >= 1, got {n}")
    if len(lines) != n + 1:
        raise TableFormatError(f"expected {n} rows after the size, got {len(lines) - 1}")
    return [_row(line, n) or _row_entries(a, line, n) for a, line in enumerate(lines[1:])]


def _row(line, n):
    """The n entries of a row of in-range ASCII decimals, else None.

    Such a row holds only ASCII digits, signs, spaces and tabs, so
    ``str.split`` and ``int`` read it as ``_row_entries`` would.
    """
    if not _ROW.fullmatch(line):
        return None
    tokens = line.split()
    if len(tokens) != n:
        return None
    try:
        row = list(map(int, tokens))
    except ValueError:
        # a numeral past the integer string limit
        return None
    return row if 0 <= min(row) and max(row) < n else None


def _row_entries(a, line, n):
    """The entries of row a, entry by entry: the first bad one is named."""
    tokens = ASCII_FIELD.findall(line)
    if len(tokens) != n:
        raise TableFormatError(f"row {a} has {len(tokens)} entries, expected {n}")
    row = []
    for b, tok in enumerate(tokens):
        if not _INTEGER.fullmatch(tok):
            raise TableFormatError(f"entry ({a},{b}) = {tok!r} is not an integer")
        e = _decimal(tok, f"entry ({a},{b})")
        if not 0 <= e < n:
            raise TableFormatError(f"entry ({a},{b}) = {e} outside 0..{n - 1}")
        row.append(e)
    return row


def format_table(quandle):
    """Serialize a quandle in the plain-text table format."""
    lines = [str(quandle.n)]
    lines.extend(" ".join(str(e) for e in row) for row in quandle.table)
    return "\n".join(lines) + "\n"
