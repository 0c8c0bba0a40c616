"""Exact linear algebra over a Field by sparse-row Gaussian elimination.

A matrix is a list of sparse rows: ``{column: value}`` dicts that hold no
zero values, so a row operation touches only the nonzero entries of the
pivot row.  A matrix given by columns is a list of ``{row: value}`` dicts,
and ``transpose`` turns one form into the other.  The side of the shape
that the list does not carry is passed explicitly.  ``SpanBuilder`` holds
a reduced echelon basis built one row at a time and the one elimination
step; ``rref`` feeds the rows of a matrix into a ``SpanBuilder``, and
``rank``, ``kernel_basis`` and ``solve`` go through ``rref``, while
``span_modulo`` uses a ``SpanBuilder`` directly.  ``solve`` is the one
solver: it eliminates the columns and all right-hand sides together,
once per call.  No function changes its input rows.  A vector is a sparse
``{column: value}`` dict too, again with no zero values: kernel vectors
and solutions alike.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .fields import Field


def add_scaled(field: Field, v: dict, factor, row: dict) -> None:
    """v += factor * row in place, dropping the entries that cancel.

    factor must be nonzero.  Then factor * y is nonzero for every entry
    y of row, so an entry that cancels was in v.  The loop is written
    once per kind of field: over F_2 the factor and the entries are one,
    so each key of row toggles; over F_p one residue is taken per entry;
    over Q the sum starts from the Fraction zero."""
    p = field.characteristic
    get = v.get
    if p == 2:
        for k in row:
            if v.pop(k, 0) == 0:
                v[k] = 1
    elif p:
        for k, y in row.items():
            x = (get(k, 0) + factor * y) % p
            if x:
                v[k] = x
            else:
                del v[k]
    else:
        zero = field.zero
        for k, y in row.items():
            x = get(k, zero) + factor * y
            if x:
                v[k] = x
            else:
                del v[k]


def rref(field: Field, rows: list[dict]) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    The reduced rows are the nonzero ones, in pivot order."""
    span = SpanBuilder(field)
    for row in rows:
        span._insert(dict(row))
    return [span._rows[p] for p in span.pivots], list(span.pivots)


def rank(field: Field, rows: list[dict]) -> int:
    _, pivots = rref(field, rows)
    return len(pivots)


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


class SpanBuilder:
    """Incrementally maintained row space in reduced echelon form.

    Each row is a sparse dict keyed by its pivot column; it has a one at
    its pivot and zeros at every other pivot."""

    def __init__(self, field: Field):
        self.field = field
        self.pivots: list[int] = []  # ascending
        self._rows: dict[int, dict] = {}

    def add(self, v: dict) -> bool:
        """Add the sparse row v to the span; True if it enlarged the space."""
        return self._insert(dict(v))

    def _insert(self, v: dict) -> bool:
        field = self.field
        rows = self._rows
        # the basis is reduced, so clearing one pivot leaves the others as they were
        for p in [c for c in v if c in rows]:
            add_scaled(field, v, field.neg(v[p]), rows[p])
        if not v:
            return False
        c = min(v)
        if v[c] != field.one:
            inv = field.inv(v[c])
            v = {k: field.mul(inv, x) for k, x in v.items()}
        for row in rows.values():
            if c in row:
                add_scaled(field, row, field.neg(row[c]), v)
        rows[c] = v
        insort(self.pivots, c)
        return True

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
