"""Exact linear algebra over a Field by sparse-row Gaussian elimination.

A matrix is a list of sparse rows: ``{column: value}`` dicts that hold no
zero values, so a row operation touches only the nonzero entries of the
pivot row.  A matrix given by columns is a list of ``{row: value}`` dicts,
and ``transpose`` turns one form into the other.  The side of the shape
that the list does not carry is passed explicitly.  ``SpanBuilder`` holds
a reduced echelon basis built one row at a time and the one elimination
step, with a column index from each non-pivot column to the stored rows
that may hold it, so that a new pivot is cleared only from those rows;
``rref`` feeds the rows of a matrix into a ``SpanBuilder``, and
``kernel_basis`` and ``solve`` go through ``rref``, while ``rank`` and
``span_modulo`` use a ``SpanBuilder`` directly and read no row out.
Over Q the elimination runs on integers: each row's denominators are
cleared once, on entry, and a ``Fraction`` is formed only when ``rref``
hands a reduced row out.  ``solve`` is the one solver: it eliminates the
columns and all right-hand sides together, once per call.  No function
changes its input rows.  A vector is a sparse ``{column: value}`` dict
too, again with no zero values: kernel vectors and solutions alike.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm

from .fields import Field, add_scaled


def _span(field: Field, rows) -> "SpanBuilder":
    span = SpanBuilder(field)
    for row in rows:
        span._insert(row)
    return span


def rref(field: Field, rows: list[dict]) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    The reduced rows are the nonzero ones, in pivot order."""
    span = _span(field, rows)
    return span.reduced_rows(), list(span.pivots)


def rank(field: Field, rows: list[dict]) -> int:
    return _span(field, rows).dim


def kernel_basis(field: Field, rows: list[dict], ncols: int) -> list[dict]:
    """Basis of {v : A v = 0} for the matrix with the given rows, one
    vector per free column in ascending order, with a one there.

    A reduced row holds, besides its pivot, only free columns, and every
    one of them lies past the pivot; so one pass over the reduced rows in
    pivot order fills each vector with its keys ascending."""
    red, pivots = rref(field, rows)
    pivot_set = set(pivots)
    basis = {c: {} for c in range(ncols) if c not in pivot_set}
    for row, pc in zip(red, pivots):
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = field.neg(x)
    for c, v in basis.items():
        v[c] = field.one
    return list(basis.values())


def transpose(rows: list[dict], ncols: int) -> list[dict]:
    """The same sparse matrix by columns (or, given columns and the row
    count, by rows)."""
    out = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            out[c][r] = x
    return out


def solve(field: Field, columns: list[dict], rhs_list: list[dict],
          nrows: int) -> list:
    """For each column b in rhs_list, the coefficients x with
    sum_k x[k] * columns[k] = b as a sparse ``{k: x[k]}`` dict, or None
    when b is outside the span of the columns; None for every b when
    nrows is 0.  Each x is the canonical solution, with the free
    variables zero (so b = 0 yields {}).  One elimination of [A | B]
    serves every right-hand side, and one pass over the reduced rows
    reads all of them off: row r < rank(A) gives x[pivot r] in each
    column past A, in ascending pivot order, and b is unsolvable when a
    row past rank(A) has an entry in its column."""
    if not nrows:
        return [None] * len(rhs_list)
    n = len(columns)
    red, pivots = rref(field, transpose(columns + rhs_list, nrows))
    rank_a = bisect_left(pivots, n)
    out = [{} for _ in rhs_list]
    for row, p in zip(red[:rank_a], pivots):
        for j, x in row.items():
            if j >= n:
                out[j - n][p] = x
    for row in red[rank_a:]:
        for j in row:
            out[j - n] = None
    return out


def _primitive(row: dict, lead: int) -> dict:
    """The integer row divided by the gcd of its entries, with the sign
    that makes its entry lead positive (the row itself when that divisor
    is one)."""
    g = abs(lead)
    for x in row.values():
        if g == 1:
            break
        g = gcd(g, x)
    if lead < 0:
        g = -g
    return row if g == 1 else {k: x // g for k, x in row.items()}


class SpanBuilder:
    """Incrementally maintained row space in reduced echelon form.

    Each row is a sparse dict keyed by its pivot column; it is zero at
    every other pivot.  Over F_p it has a one at its pivot.  Over Q it
    is a primitive integer row (the gcd of its entries is one) whose
    positive pivot entry d stands for the monic row row/d: a new row's
    denominators are cleared once, on entry, an elimination step is
    integer cross-multiplication followed by dividing out the gcd
    content, and ``reduced_rows`` hands the monic rows out.

    A column index, ``_holders``, maps each non-pivot column to the
    pivots of the stored rows that may hold it, so a new pivot is cleared
    only from the rows listed there.  The lists only grow: a row's pivot
    is appended for each column of the row when it is stored and for each
    column it gains when it is cleared, and a listed row that has since
    lost the column is skipped.  No reduced vector holds a pivot column,
    so the list of a column is dropped once the column becomes a pivot."""

    def __init__(self, field: Field):
        self.field = field
        self.pivots: list[int] = []  # ascending
        self._rows: dict[int, dict] = {}
        self._holders: defaultdict[int, list[int]] = defaultdict(list)

    def add(self, v: dict) -> bool:
        """Add the sparse row v to the span; True if it enlarged the space."""
        return self._insert(v)

    def _insert(self, v: dict) -> bool:
        """The body of ``add``, which ``rref`` and ``rank`` call directly,
        so that a trace of ``add`` counts only rows added from outside;
        v is not changed.  Clearing the new pivot from a stored row is
        ``add_scaled`` with the index kept in the same loop, written once
        per kind of field as there."""
        field = self.field
        p = field.characteristic
        if not p:
            return self._insert_integral(v)
        rows = self._rows
        v = dict(v)
        # the basis is reduced, so clearing one pivot leaves the others as they were
        for q in [c for c in v if c in rows]:
            add_scaled(field, v, field.neg(v[q]), rows[q])
        if not v:
            return False
        c = min(v)
        if v[c] != field.one:
            inv = field.inv(v[c])
            v = {k: field.mul(inv, x) for k, x in v.items()}
        holders = self._holders
        for q in holders.pop(c, ()):
            row = rows[q]
            y = row.get(c)
            if not y:
                continue
            if p == 2:
                for k in v:
                    if row.pop(k, 0) == 0:
                        row[k] = 1
                        holders[k].append(q)
            else:
                factor, get = field.neg(y), row.get
                for k, x in v.items():
                    old = get(k)
                    if old is None:
                        row[k] = factor * x % p
                        holders[k].append(q)
                    else:
                        z = (old + factor * x) % p
                        if z:
                            row[k] = z
                        else:
                            del row[k]
        self._store(c, v)
        return True

    def _insert_integral(self, v: dict) -> bool:
        """``_insert`` over Q.  Clearing the pivots of v one by one leaves
        its entries at the other pivots as they were, so v is scaled once,
        by the lcm of the pivot entries it meets, and every such row is
        then subtracted an integral number of times."""
        rows = self._rows
        den = lcm(*(x.denominator for x in v.values() if type(x) is not int))
        w = {k: x * den if type(x) is int else x.numerator * (den // x.denominator)
             for k, x in v.items()}
        hits = [c for c in w if c in rows]
        if hits:
            scale = lcm(*(rows[p][p] for p in hits))
            if scale != 1:
                for k in w:
                    w[k] *= scale
            for p in hits:
                add_scaled(self.field, w, -(w[p] // rows[p][p]), rows[p])
        if not w:
            return False
        c = min(w)
        w = _primitive(w, w[c])
        d = w[c]
        holders = self._holders
        for p in holders.pop(c, ()):
            row = rows[p]
            y = row.get(c)
            if not y:
                continue
            g = gcd(d, y)
            a, factor = d // g, -(y // g)
            if a != 1:
                for k in row:
                    row[k] *= a
            get = row.get
            for k, x in w.items():
                old = get(k)
                if old is None:
                    row[k] = factor * x
                    holders[k].append(p)
                else:
                    z = old + factor * x
                    if z:
                        row[k] = z
                    else:
                        del row[k]
            rows[p] = _primitive(row, row[p])
        self._store(c, w)
        return True

    def _store(self, c: int, v: dict) -> None:
        """Store the reduced row v with pivot c and list it under its
        other columns."""
        holders = self._holders
        for k in v:
            if k != c:
                holders[k].append(c)
        self._rows[c] = v
        insort(self.pivots, c)

    def reduced_rows(self) -> list[dict]:
        """The monic reduced rows in pivot order, over Q with every value
        in canonical form (an ``int`` when integral)."""
        rows = [self._rows[p] for p in self.pivots]
        if self.field.characteristic:
            return rows
        out = []
        for row, p in zip(rows, self.pivots):
            d = row[p]
            out.append(row if d == 1 else
                       {k: x // d if x % d == 0 else Fraction(x, d) for k, x in row.items()})
        return out

    @property
    def dim(self) -> int:
        return len(self.pivots)


def span_modulo(field: Field, base, vectors) -> tuple[int, list[int]]:
    """(dim span(base), indices of the vectors that enlarge the span when
    added in turn after base): the kept vectors are a basis of
    span(base + vectors) modulo span(base).  All are sparse rows."""
    span = SpanBuilder(field)
    for u in base:
        span.add(u)
    base_dim = span.dim
    return base_dim, [k for k, v in enumerate(vectors) if span.add(v)]
