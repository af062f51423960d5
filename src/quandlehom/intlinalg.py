"""Exact integer linear algebra.

Everything in this module works over plain Python integers, so all results
are exact regardless of entry size.  The Smith normal form, after a sparse
elimination of unit pivots, gives the invariant factors of finitely
generated abelian groups presented as Ker/Im of a pair of boundary maps.
The same invariant factors compare lattices: the rows of a matrix span a
lattice whose index in its saturation is the product of its factors.

``IntMatrix(data)`` checks and copies data from outside; matrices the
package builds are adopted as they are.  ``@`` is the one product and forms
only the terms where both factors are nonzero.  The Smith transforms ride
in the working matrix, so every elimination step updates them in passing.
One sparse core gives the homology of a chain pair: it checks
d_low @ d_high == 0 on the nonzeros, with no dense product, and hands the
same rows to the unit-pivot elimination, which keeps them in buckets by
length.  ``homology_invariants`` feeds it a dense pair's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

from .errors import (
    NotAComplexError,
    BadModulusError,
    NotAUnitError,
    ShapeMismatchError,
)


class IntMatrix:
    """Dense integer matrix, stored row-major as lists of Python ints."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        data = [list(row) for row in data]
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ShapeMismatchError(f"ragged data for a {len(data)}x{cols} matrix")
        for row in data:
            for e in row:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise TypeError(f"matrix entries must be int, got {e!r}")
        self.rows = len(data)
        self.cols = cols
        self.data = data

    @classmethod
    def _adopt(cls, data, cols):
        """Take ownership of ``data``: rows of ``cols`` ints each, built in
        the package and never shared."""
        matrix = cls.__new__(cls)
        matrix.rows = len(data)
        matrix.cols = cols
        matrix.data = data
        return matrix

    @classmethod
    def zeros(cls, rows, cols):
        return cls._adopt([[0] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, size):
        return cls._adopt(_identity_rows(size, size), size)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __repr__(self):
        return f"IntMatrix({self.data!r})"

    def __matmul__(self, other):
        """Product that forms only the terms where both factors are nonzero,
        so a sparse factor costs time in its nonzeros, not in its size."""
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        right = _sparse_rows(other)
        out = []
        for row in self.data:
            acc = [0] * other.cols
            for a, terms in zip(row, right):
                if a:
                    for j, e in terms.items():
                        acc[j] += a * e
            out.append(acc)
        return IntMatrix._adopt(out, other.cols)

    def diagonal(self):
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]


def _identity_rows(size, width):
    """The first ``width`` columns of the size x size identity, as rows."""
    return [[int(i == j) for j in range(width)] for i in range(size)]


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization d = u @ matrix @ v with u, v unimodular.

    ``v_inv`` and ``u_inv`` are the inverses of ``v`` and ``u``; each comes
    from undoing the elimination's operations as they happen, which saves
    a separate inversion and certifies that u and v are unimodular.
    Transform fields are None unless transforms were requested.
    """

    d: IntMatrix
    u: IntMatrix | None = None
    v: IntMatrix | None = None
    v_inv: IntMatrix | None = None
    u_inv: IntMatrix | None = None


@dataclass(frozen=True)
class AbelianInvariants:
    """Canonical form of a finitely generated abelian group.

    ``rank`` counts free summands; ``torsion`` is the invariant-factor
    chain, each entry at least 2 and dividing the next.  Two groups are
    isomorphic iff their invariants compare equal.
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for i, t in enumerate(self.torsion):
            if t < 2:
                raise ValueError(f"torsion factor {t} is not >= 2")
            if i and self.torsion[i - 1] != 0 and t % self.torsion[i - 1]:
                raise ValueError(f"torsion chain broken: {self.torsion}")

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def multiplicative_order(t, n):
    """Smallest d >= 1 with t**d == 1 (mod n); requires gcd(t, n) == 1."""
    if n < 1:
        raise BadModulusError(f"modulus must be >= 1, got {n}")
    if math.gcd(t, n) != 1:
        raise NotAUnitError(f"{t} is not a unit modulo {n}")
    one = 1 % n
    d = 1
    x = t % n
    while x != one:
        x = x * t % n
        d += 1
    return d


def smith_normal_form(matrix, transforms=False):
    """Smith normal form of an integer matrix.

    Returns a SmithForm whose ``d`` is diagonal with non-negative entries
    d_1 | d_2 | ... .  With ``transforms=True`` it also carries unimodular
    u, v and their inverses such that d == u @ matrix @ v.

    Pivots are chosen with smallest nonzero absolute value to limit entry
    growth; all arithmetic is exact.
    """
    nr, nc = matrix.rows, matrix.cols
    # The working matrix carries u as nr extra columns of the matrix rows
    # and v as nc extra rows below them, so every row and column operation
    # updates u and v in passing; the search and the elimination only read
    # the top-left nr x nc block.  Each operation is undone on v_inv's rows
    # and on u_inv's columns, kept as the rows of its transpose.  Without
    # transforms all of these have width 0 and cost nothing.
    u_cols, v_rows = (nr, nc) if transforms else (0, 0)
    a = [row + unit for row, unit in zip(matrix.data, _identity_rows(nr, u_cols))]
    a += _identity_rows(v_rows, nc)
    uinv_t = _identity_rows(nr, u_cols)
    vinv = _identity_rows(nc, v_rows)

    def add_row(i, src, q):
        # R_i <- R_i - q*R_src, undone by C_src <- C_src + q*C_i on u_inv
        a[i] = [x - q * y for x, y in zip(a[i], a[src])]
        uinv_t[src] = [x + q * y for x, y in zip(uinv_t[src], uinv_t[i])]

    def find_pivot(s):
        best = None
        best_abs = 0
        for i in range(s, nr):
            rowi = a[i]
            for j in range(s, nc):
                e = rowi[j]
                if e and (best is None or -best_abs < e < best_abs):
                    best, best_abs = (i, j), abs(e)
                    if best_abs == 1:
                        return best
        return best

    for s in range(min(nr, nc)):
        piv = find_pivot(s)
        if piv is None:
            break
        while True:
            i0, j0 = piv
            if i0 != s:
                a[s], a[i0] = a[i0], a[s]
                uinv_t[s], uinv_t[i0] = uinv_t[i0], uinv_t[s]
            if j0 != s:
                for row in a:
                    row[s], row[j0] = row[j0], row[s]
                vinv[s], vinv[j0] = vinv[j0], vinv[s]
            if a[s][s] < 0:
                a[s] = [-x for x in a[s]]
                uinv_t[s] = [-x for x in uinv_t[s]]
            p = a[s][s]
            for i in range(s + 1, nr):
                if a[i][s]:
                    add_row(i, s, a[i][s] // p)
            for j in range(s + 1, nc):
                if a[s][j]:
                    # C_j <- C_j - q*C_s, undone by R_s <- R_s + q*R_j on v_inv
                    q = a[s][j] // p
                    for row in a:
                        row[j] -= q * row[s]
                    vinv[s] = [x + q * y for x, y in zip(vinv[s], vinv[j])]
            # leftover remainders in the cross become the next, smaller pivot
            cross = [(i, s) for i in range(s + 1, nr) if a[i][s]]
            cross += [(s, j) for j in range(s + 1, nc) if a[s][j]]
            if cross:
                piv = min(cross, key=lambda ij: abs(a[ij[0]][ij[1]]))
                continue
            # cross is clear: force the pivot to divide the trailing block
            block = range(s + 1, nc)
            offender = next(
                (i for i in range(s + 1, nr) if any(a[i][j] % p for j in block)), None
            )
            if offender is None:
                break
            add_row(s, offender, -1)
            piv = (s, s)

    d = IntMatrix._adopt([row[:nc] for row in a[:nr]], nc)
    if not transforms:
        return SmithForm(d)
    return SmithForm(
        d,
        IntMatrix._adopt([row[nc:] for row in a[:nr]], nr),
        IntMatrix._adopt(a[nr:], nc),
        IntMatrix._adopt(vinv, nc),
        IntMatrix._adopt([list(col) for col in zip(*uinv_t)], nr),
    )


def _sparse_rows(matrix):
    """Rows of ``matrix`` as {column: entry} dicts holding the nonzeros only."""
    # a list hands out the ints it holds; a range would make each one anew
    columns = list(range(matrix.cols))
    return [{j: row[j] for j in compress(columns, row)} for row in matrix.data]


def _unit_pivot(rows, cols, buckets):
    """A pivot (i, j) with rows[i][j] == +-1 and few fill-ins, or None.

    Eliminating (i, j) writes at most (len(row i) - 1) * (len(col j) - 1)
    new entries (the Markowitz count).  The search is restricted to the
    shortest row that holds a unit, where it takes the unit with the
    shortest column.  ``buckets`` maps a length to the rows of that length
    that may hold a unit; a row found without one leaves its bucket until
    an update touches it, and the pivot row leaves for good.
    """
    for length in sorted(buckets):
        bucket = buckets[length]
        while bucket:
            i = bucket.pop()
            best = None
            for j, e in rows[i].items():
                if (e == 1 or e == -1) and (best is None or len(cols[j]) < best_len):
                    best, best_len = j, len(cols[j])
            if best is not None:
                return i, best
        del buckets[length]
    return None


def _sparse_invariant_factors(sparse):
    """``invariant_factors`` of the matrix whose nonzeros are the row dicts
    ``sparse``, which the elimination updates in place."""
    rows = {i: row for i, row in enumerate(sparse) if row}
    cols = {}
    buckets = {}
    for i, row in rows.items():
        buckets.setdefault(len(row), set()).add(i)
        for j in row:
            cols.setdefault(j, set()).add(i)
    units = 0
    while (pivot := _unit_pivot(rows, cols, buckets)) is not None:
        i, j = pivot
        units += 1
        prow = rows.pop(i)
        p = prow.pop(j)
        for c in prow:
            cols[c].discard(i)
        touched = cols.pop(j)
        touched.discard(i)
        # row_r -= (row_r[j] / p) * prow, and 1/p == p for a unit; the
        # entry in column j cancels exactly, so it is dropped up front
        for r in touched:
            row = rows[r]
            bucket = buckets.get(len(row))
            if bucket is not None:
                bucket.discard(r)
            f = row.pop(j) * p
            for c, e in prow.items():
                if c in row:
                    v = row[c] - f * e
                    if v:
                        row[c] = v
                    else:
                        del row[c]
                        cols[c].discard(r)
                else:
                    row[c] = -f * e
                    cols[c].add(r)
            if row:
                buckets.setdefault(len(row), set()).add(r)
            else:
                del rows[r]
    if not rows:
        return [1] * units

    core_cols = sorted(j for j, owners in cols.items() if owners)
    core = IntMatrix._adopt(
        [[row.get(j, 0) for j in core_cols] for row in rows.values()],
        len(core_cols),
    )
    return [1] * units + [e for e in smith_normal_form(core).d.diagonal() if e]


def invariant_factors(matrix):
    """Nonzero Smith diagonal entries of ``matrix``, in divisibility order.

    The matrix is turned into sparse rows once.  Unit pivots are then
    eliminated on them, in Markowitz order with the rows kept in buckets
    by length: each pivot contributes an invariant factor 1 and leaves the
    Schur complement, which has the remaining factors.  Only the core left
    when no entry is +-1 goes to the dense ``smith_normal_form``.
    """
    return _sparse_invariant_factors(_sparse_rows(matrix))


def _homology(low, high, middle):
    """``homology_invariants`` on the sparse rows ``low`` and ``high``, which
    meet in a middle degree of rank ``middle``; both are eliminated in place.
    """
    for row in low:
        acc = {}
        for k, a in row.items():
            for j, e in high[k].items():
                acc[j] = acc.get(j, 0) + a * e
        if any(acc.values()):
            raise NotAComplexError("d_low @ d_high is nonzero")
    low_rank = len(_sparse_invariant_factors(low))
    high_factors = _sparse_invariant_factors(high)
    torsion = tuple(f for f in high_factors if f >= 2)
    return AbelianInvariants(middle - low_rank - len(high_factors), torsion)


def homology_invariants(d_low, d_high):
    """Invariants of Ker(d_low) / Im(d_high) for a chain-complex pair.

    ``d_low`` maps the middle degree C down, ``d_high`` maps into it; the
    composition d_low @ d_high must vanish.  C / Ker(d_low) is isomorphic
    to Im(d_low), which is free, so Ker(d_low) is a direct summand of C
    and C / Im(d_high) = Ker(d_low) / Im(d_high) + Z^rank(d_low).  Hence

        H = Z^(cols(d_low) - rank(d_low) - rank(d_high)) + torsion,

    where the torsion is the invariant factors >= 2 of d_high.  No basis
    of the kernel is ever formed.  Each matrix is turned into sparse rows
    once; the check d_low @ d_high == 0 sums products of their nonzeros
    row by row, with no dense product, and the same rows then go to both
    factorizations.
    """
    if d_low.cols != d_high.rows:
        raise ShapeMismatchError(f"cannot multiply {d_low.shape} by {d_high.shape}")
    return _homology(_sparse_rows(d_low), _sparse_rows(d_high), d_low.cols)
