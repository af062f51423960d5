"""Exact integer linear algebra.

Everything in this module works over plain Python integers, so all results
are exact regardless of entry size.  The Smith normal form, after a sparse
elimination of unit pivots, gives the invariant factors of finitely
generated abelian groups presented as Ker/Im of a pair of boundary maps;
``hnf_rows`` gives canonical bases of lattices.
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

    def __init__(self, data, shape=None):
        data = [list(row) for row in data]
        if shape is not None:
            rows, cols = shape
        else:
            rows = len(data)
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ShapeMismatchError(f"ragged data for a {rows}x{cols} matrix")
        for row in data:
            for e in row:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise TypeError(f"matrix entries must be int, got {e!r}")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], shape=(rows, cols))

    @classmethod
    def identity(cls, size):
        return cls([[int(i == j) for j in range(size)] for i in range(size)])

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(map(tuple, self.data))))

    def __repr__(self):
        return f"IntMatrix({self.data!r})"

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        bt = list(zip(*other.data)) if other.data else []
        out = []
        for row in self.data:
            if bt:
                out.append([sum(x * y for x, y in zip(row, col)) for col in bt])
            else:
                out.append([0] * other.cols)
        return IntMatrix(out, shape=(self.rows, other.cols))

    def transpose(self):
        return IntMatrix(
            [list(col) for col in zip(*self.data)], shape=(self.cols, self.rows)
        )

    def diagonal(self):
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def is_zero(self):
        return all(e == 0 for row in self.data for e in row)


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization d = u @ matrix @ v with u, v unimodular.

    ``v_inv`` is the inverse of ``v``; it comes for free from the column
    bookkeeping and saves a separate inversion.
    Transform fields are None unless transforms were requested.
    """

    d: IntMatrix
    u: IntMatrix | None = None
    v: IntMatrix | None = None
    v_inv: IntMatrix | None = None


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
    u, v (and v's inverse) such that d == u @ matrix @ v.

    Pivots are chosen with smallest nonzero absolute value to limit entry
    growth; all arithmetic is exact.
    """
    a = [row[:] for row in matrix.data]
    nr, nc = matrix.rows, matrix.cols
    if transforms:
        u = [[int(i == j) for j in range(nr)] for i in range(nr)]
        v = [[int(i == j) for j in range(nc)] for i in range(nc)]
        vinv = [[int(i == j) for j in range(nc)] for i in range(nc)]
    else:
        u = v = vinv = None

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if transforms:
            u[i], u[j] = u[j], u[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if transforms:
            u[i] = [-x for x in u[i]]

    def add_row(i, src, q):
        # R_i <- R_i - q*R_src
        ai, asrc = a[i], a[src]
        for jj in range(nc):
            ai[jj] -= q * asrc[jj]
        if transforms:
            ui, usrc = u[i], u[src]
            for jj in range(nr):
                ui[jj] -= q * usrc[jj]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        if transforms:
            for row in v:
                row[i], row[j] = row[j], row[i]
            vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_col(j, src, q):
        # C_j <- C_j - q*C_src; the inverse op accumulates on vinv rows
        for row in a:
            row[j] -= q * row[src]
        if transforms:
            for row in v:
                row[j] -= q * row[src]
            vj, vsrc = vinv[j], vinv[src]
            for jj in range(nc):
                vsrc[jj] += q * vj[jj]

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
                swap_rows(s, i0)
            if j0 != s:
                swap_cols(s, j0)
            if a[s][s] < 0:
                negate_row(s)
            p = a[s][s]
            for i in range(s + 1, nr):
                if a[i][s]:
                    add_row(i, s, a[i][s] // p)
            for j in range(s + 1, nc):
                if a[s][j]:
                    add_col(j, s, a[s][j] // p)
            # leftover remainders in the cross become the next, smaller pivot
            piv = None
            best_abs = 0
            for i in range(s + 1, nr):
                e = a[i][s]
                if e and (piv is None or abs(e) < best_abs):
                    piv, best_abs = (i, s), abs(e)
            for j in range(s + 1, nc):
                e = a[s][j]
                if e and (piv is None or abs(e) < best_abs):
                    piv, best_abs = (s, j), abs(e)
            if piv is not None:
                continue
            # cross is clear: force the pivot to divide the trailing block
            p = a[s][s]
            offender = None
            for i in range(s + 1, nr):
                rowi = a[i]
                for j in range(s + 1, nc):
                    if rowi[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(s, offender, -1)
            piv = (s, s)

    result = IntMatrix(a, shape=(nr, nc))
    if transforms:
        return SmithForm(
            result,
            IntMatrix(u, shape=(nr, nr)),
            IntMatrix(v, shape=(nc, nc)),
            IntMatrix(vinv, shape=(nc, nc)),
        )
    return SmithForm(result)


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
    core = IntMatrix(
        [[row.get(j, 0) for j in core_cols] for row in rows.values()],
        shape=(len(rows), len(core_cols)),
    )
    return [1] * units + [e for e in smith_normal_form(core).d.diagonal() if e]


def composes_to_zero(d_low, d_high):
    """True iff d_low @ d_high is the zero matrix.

    Only products of two nonzero entries are formed, so boundary matrices
    with a handful of nonzeros per column cost time in their nonzeros, not
    in their size.
    """
    if d_low.cols != d_high.rows:
        raise ShapeMismatchError(
            f"boundary shapes {d_low.shape} and {d_high.shape} do not chain"
        )
    low_columns = [[] for _ in range(d_low.cols)]
    for k, row in enumerate(_sparse_rows(d_low)):
        for i, e in row.items():
            low_columns[i].append((k, e))
    product = {}
    for i, row in enumerate(_sparse_rows(d_high)):
        terms = low_columns[i]
        for j, e in row.items():
            for k, a in terms:
                product[k, j] = product.get((k, j), 0) + a * e
    return not any(product.values())


def homology_invariants(d_low, d_high):
    """Invariants of Ker(d_low) / Im(d_high) for a chain-complex pair.

    ``d_low`` maps the middle degree C down, ``d_high`` maps into it; the
    composition d_low @ d_high must vanish.  C / Ker(d_low) is isomorphic
    to Im(d_low), which is free, so Ker(d_low) is a direct summand of C
    and C / Im(d_high) = Ker(d_low) / Im(d_high) + Z^rank(d_low).  Hence

        H = Z^(cols(d_low) - rank(d_low) - rank(d_high)) + torsion,

    where the torsion is the invariant factors >= 2 of d_high.  No basis
    of the kernel is ever formed.
    """
    if not composes_to_zero(d_low, d_high):
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
