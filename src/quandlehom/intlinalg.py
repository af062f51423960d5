"""Exact integer linear algebra.

Everything in this module works over plain Python integers, so all results
are exact regardless of entry size.  The Smith normal form, after a sparse
elimination of unit pivots, gives the invariant factors of finitely
generated abelian groups presented as Ker/Im of a pair of boundary maps;
``hnf_rows`` gives canonical bases of lattices.

``IntMatrix(data)`` checks and copies data from outside; matrices the
package builds are adopted as they are.  ``@`` is the one product and forms
only the terms where both factors are nonzero.  The Smith transforms ride
in the working matrix, so every elimination step updates them in passing.
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
    columns = range(matrix.cols)
    return [{j: row[j] for j in compress(columns, row)} for row in matrix.data]


def _unit_pivot(rows, cols):
    """A pivot (i, j) with rows[i][j] == +-1 and few fill-ins, or None.

    Eliminating (i, j) writes at most (len(row i) - 1) * (len(col j) - 1)
    new entries (the Markowitz count).  The search is restricted to the
    shortest row that holds a unit, where it takes the unit with the
    shortest column.
    """
    for i in sorted(rows, key=lambda r: len(rows[r])):
        units = [j for j, e in rows[i].items() if e in (1, -1)]
        if units:
            return i, min(units, key=lambda j: len(cols[j]))
    return None


def invariant_factors(matrix):
    """Nonzero Smith diagonal entries of ``matrix``, in divisibility order.

    Unit pivots are eliminated first on sparse rows, in Markowitz order:
    each contributes an invariant factor 1 and leaves the Schur complement,
    which has the remaining factors.  Only the core left when no entry is
    +-1 goes to the dense ``smith_normal_form``.
    """
    rows = {i: row for i, row in enumerate(_sparse_rows(matrix)) if row}
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    units = 0
    while (pivot := _unit_pivot(rows, cols)) is not None:
        i, j = pivot
        units += 1
        prow = rows.pop(i)
        p = prow[j]
        # row_r -= (row_r[j] / p) * prow, and 1/p == p for a unit
        for r in cols[j] - {i}:
            row = rows[r]
            f = row[j] * p
            for c, e in prow.items():
                v = row.get(c, 0) - f * e
                if v:
                    if c not in row:
                        cols[c].add(r)
                    row[c] = v
                else:
                    del row[c]
                    cols[c].discard(r)
            if not row:
                del rows[r]
        for c in prow:
            cols[c].discard(i)

    core_cols = sorted(j for j, owners in cols.items() if owners)
    core = IntMatrix._adopt(
        [[row.get(j, 0) for j in core_cols] for row in rows.values()],
        len(core_cols),
    )
    return [1] * units + [e for e in smith_normal_form(core).d.diagonal() if e]


def homology_invariants(d_low, d_high):
    """Invariants of Ker(d_low) / Im(d_high) for a chain-complex pair.

    ``d_low`` maps the middle degree C down, ``d_high`` maps into it; the
    composition d_low @ d_high must vanish.  C / Ker(d_low) is isomorphic
    to Im(d_low), which is free, so Ker(d_low) is a direct summand of C
    and C / Im(d_high) = Ker(d_low) / Im(d_high) + Z^rank(d_low).  Hence

        H = Z^(cols(d_low) - rank(d_low) - rank(d_high)) + torsion,

    where the torsion is the invariant factors >= 2 of d_high.  No basis
    of the kernel is ever formed.  The check d_low @ d_high == 0 and both
    factorizations work in the nonzeros of the pair, not in its size.
    """
    if any(map(any, (d_low @ d_high).data)):
        raise NotAComplexError("d_low @ d_high is nonzero")
    low_rank = len(invariant_factors(d_low))
    high_factors = invariant_factors(d_high)
    return AbelianInvariants(
        d_low.cols - low_rank - len(high_factors),
        tuple(f for f in high_factors if f >= 2),
    )


def hnf_rows(vectors, width=None):
    """Canonical (row-style Hermite) basis of the lattice spanned by ``vectors``.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), and zero rows are dropped.  Two spanning sets generate the
    same lattice iff their hnf_rows agree, which is how all basis-valued
    results in this package are compared.
    """
    rows = [list(vec) for vec in vectors if any(vec)]
    if width is None:
        if not rows:
            return []
        width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ShapeMismatchError("vectors of unequal length")
    h = 0
    for j in range(width):
        while True:
            best = None
            for i in range(h, len(rows)):
                if rows[i][j] and (best is None or abs(rows[i][j]) < abs(rows[best][j])):
                    best = i
            if best is None:
                placed = False
                break
            rows[h], rows[best] = rows[best], rows[h]
            if rows[h][j] < 0:
                rows[h] = [-x for x in rows[h]]
            p = rows[h][j]
            clean = True
            for i in range(h + 1, len(rows)):
                e = rows[i][j]
                if e:
                    q = e // p
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[h])]
                    if rows[i][j]:
                        clean = False
            if clean:
                placed = True
                break
        if not placed:
            continue
        p = rows[h][j]
        for i in range(h):
            q = rows[i][j] // p
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[h])]
        h += 1
    return rows[:h]
