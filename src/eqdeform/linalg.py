"""Dense exact linear algebra over a Field (Gaussian elimination only)."""

from __future__ import annotations

from .fields import Field


def rref(field: Field, rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != field.zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != field.zero:
                factor = rows[i][c]
                rows[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


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


def solve(field: Field, rows: list[list], rhs: list) -> list | None:
    """One solution of A x = b, or None.  Returns the canonical solution
    with free variables set to zero (so b = 0 yields x = 0)."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(field, aug)
    for r in range(len(red)):
        if all(x == field.zero for x in red[r][:ncols]) and red[r][ncols] != field.zero:
            return None
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[r][ncols]
    return x


def solve_columns(field: Field, columns: list[list], rhs: list) -> list | None:
    """Coefficients x with sum_k x[k] * columns[k] = rhs, or None (as solve)."""
    rows = [[col[r] for col in columns] for r in range(len(rhs))]
    return solve(field, rows, rhs)


class SpanBuilder:
    """Incrementally maintained row space in reduced echelon form."""

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def _reduce(self, v: list) -> list:
        field = self.field
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            if v[p] != field.zero:
                factor = v[p]
                v = [field.sub(x, field.mul(factor, y)) for x, y in zip(v, row)]
        return v

    def add(self, v: list) -> bool:
        """Add v to the span; True if it enlarged the space."""
        field = self.field
        red = self._reduce(v)
        for c in range(self.ncols):
            if red[c] != field.zero:
                inv = field.inv(red[c])
                red = [field.mul(inv, x) for x in red]
                # back-substitute into the existing rows
                for i, row in enumerate(self.rows):
                    if row[c] != field.zero:
                        factor = row[c]
                        self.rows[i] = [
                            field.sub(x, field.mul(factor, y)) for x, y in zip(row, red)
                        ]
                self.rows.append(red)
                self.pivots.append(c)
                order = sorted(range(len(self.pivots)), key=lambda i: self.pivots[i])
                self.rows = [self.rows[i] for i in order]
                self.pivots = [self.pivots[i] for i in order]
                return True
        return False

    @property
    def dim(self) -> int:
        return len(self.rows)


def span_modulo(field: Field, ncols: int, base, vectors) -> tuple[int, list[int]]:
    """(dim span(base), indices of the vectors that enlarge the span when
    added in turn after base): the kept vectors are a basis of
    span(base + vectors) modulo span(base)."""
    span = SpanBuilder(field, ncols)
    for u in base:
        span.add(u)
    base_dim = span.dim
    return base_dim, [k for k, v in enumerate(vectors) if span.add(v)]
