"""Exact linear algebra over a Field by sparse-row Gaussian elimination.

Rows are kept internally as ``{column: value}`` dicts, so a row operation
touches only the nonzero entries of the pivot row.  ``SpanBuilder`` holds
a reduced echelon basis built one row at a time and the one elimination
step; ``rref`` feeds the rows of a matrix into a ``SpanBuilder``, and
``rank``, ``kernel_basis``, ``solve`` and ``solve_columns`` go through
``rref``, while ``span_modulo`` uses a ``SpanBuilder`` directly.
``solve_columns`` solves many right-hand sides with one elimination.
Inputs and results are dense lists.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .fields import Field


def _sparse(field: Field, row) -> dict:
    zero = field.zero
    return {c: x for c, x in enumerate(row) if x != zero}


def _subtract(field: Field, v: dict, factor, row: dict) -> None:
    """v -= factor * row in place, dropping the entries that cancel."""
    zero = field.zero
    mul, sub = field.mul, field.sub
    for k, y in row.items():
        x = sub(v.get(k, zero), mul(factor, y))
        if x == zero:
            v.pop(k, None)
        else:
            v[k] = x


def rref(field: Field, rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    The pivot rows come first, in pivot order, followed by zero rows up to
    the input's row count."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    span = SpanBuilder(field, ncols)
    for row in rows:
        span._insert(_sparse(field, row))
    red = span.dense_rows()
    red.extend([field.zero] * ncols for _ in range(len(rows) - span.dim))
    return red, list(span.pivots)


def rank(field: Field, rows: list[list]) -> int:
    _, pivots = rref(field, rows)
    return len(pivots)


def kernel_basis(field: Field, rows: list[list], ncols: int) -> list[list]:
    """Basis of {v : A v = 0} for the matrix with the given rows."""
    red, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][fc])
        basis.append(v)
    return basis


def _solve_augmented(field: Field, aug: list[list], n: int, k: int) -> list:
    """Canonical solutions (free variables zero) of A x = b for the k
    right-hand sides b in columns n..n+k-1 of aug = [A | B], None for
    each inconsistent one."""
    red, pivots = rref(field, aug)
    rank_a = bisect_left(pivots, n)
    zero = field.zero
    out = []
    for j in range(n, n + k):
        # b is solvable iff the rows past rank(A) vanish in its column
        if any(red[r][j] != zero for r in range(rank_a, len(pivots))):
            out.append(None)
            continue
        x = [zero] * n
        for r in range(rank_a):
            x[pivots[r]] = red[r][j]
        out.append(x)
    return out


def solve(field: Field, rows: list[list], rhs: list) -> list | None:
    """One solution of A x = b, or None.  Returns the canonical solution
    with free variables set to zero (so b = 0 yields x = 0)."""
    if not rows:
        return None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    return _solve_augmented(field, aug, len(rows[0]), 1)[0]


def solve_columns(field: Field, columns: list[list], rhs_list: list[list]) -> list:
    """For each b in rhs_list, the coefficients x with
    sum_k x[k] * columns[k] = b, or None (as solve).  One elimination of
    [A | B] serves every right-hand side."""
    nrows = len(rhs_list[0]) if rhs_list else 0
    aug = [[col[r] for col in columns] + [b[r] for b in rhs_list]
           for r in range(nrows)]
    if not aug:
        return [None] * len(rhs_list)
    return _solve_augmented(field, aug, len(columns), len(rhs_list))


class SpanBuilder:
    """Incrementally maintained row space in reduced echelon form.

    Each row is a sparse dict keyed by its pivot column; it has a one at
    its pivot and zeros at every other pivot."""

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.pivots: list[int] = []  # ascending
        self._rows: dict[int, dict] = {}

    def add(self, v: list) -> bool:
        """Add v to the span; True if it enlarged the space."""
        return self._insert(_sparse(self.field, v))

    def _insert(self, v: dict) -> bool:
        field = self.field
        rows = self._rows
        # the basis is reduced, so clearing one pivot leaves the others as they were
        for p in [c for c in v if c in rows]:
            _subtract(field, v, v[p], rows[p])
        if not v:
            return False
        c = min(v)
        inv = field.inv(v[c])
        v = {k: field.mul(inv, x) for k, x in v.items()}
        for row in rows.values():
            if c in row:
                _subtract(field, row, row[c], v)
        rows[c] = v
        insort(self.pivots, c)
        return True

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def dense_rows(self) -> list[list]:
        """The basis rows as dense lists, in pivot order."""
        zero = self.field.zero
        out = []
        for p in self.pivots:
            row = [zero] * self.ncols
            for k, x in self._rows[p].items():
                row[k] = x
            out.append(row)
        return out


def span_modulo(field: Field, ncols: int, base, vectors) -> tuple[int, list[int]]:
    """(dim span(base), indices of the vectors that enlarge the span when
    added in turn after base): the kept vectors are a basis of
    span(base + vectors) modulo span(base)."""
    span = SpanBuilder(field, ncols)
    for u in base:
        span.add(u)
    base_dim = span.dim
    return base_dim, [k for k, v in enumerate(vectors) if span.add(v)]
