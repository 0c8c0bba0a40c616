"""The sparse eliminator in eqdeform.linalg against the dense copy in oracles.

Each seed gives one fixed system, so the cases are the same on every run.
Over Q the entries are small fractions, wide ones (numerators up to 10^6,
denominators up to 10^4) and integral ``Fraction``s, and some rows are
scaled by a common factor, negative ones included, so that the integer
rows of ``SpanBuilder`` clear denominators, divide out contents and turn
signs; every value returned over Q must be canonical."""

import inspect
import math
import random
from collections import defaultdict
from fractions import Fraction

import pytest

import oracles
from eqdeform import linalg
from eqdeform.fields import GF, QQ

FIELDS = (GF(2), GF(3), GF(7), QQ)
SEEDS = range(300)


def _rational(rng):
    kind = rng.random()
    if kind < 0.5:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if kind < 0.8:
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
    d = rng.randint(1, 10**4)
    return Fraction(rng.randint(-99, 99) * d, d)  # integral, still a Fraction


def _scalar(field, rng, density):
    if rng.random() >= density:
        return field.zero
    if field is QQ:
        return _rational(rng)
    return rng.randrange(field.p)


# common factors of a row over Q; a negative one turns its leading sign
ROW_FACTORS = (-1, 6, -30, 210, Fraction(-35, 4))


def system(seed):
    """(field, rows, ncols, rng): up to 8 x 8, dense, sparse or all zero,
    with zero-width rows when ncols is 0; over Q some rows scaled by one
    of ROW_FACTORS."""
    rng = random.Random(seed)
    field = rng.choice(FIELDS)
    nrows, ncols = rng.randint(0, 8), rng.randint(0, 8)
    density = rng.choice((0.0, 0.15, 0.4, 1.0))
    rows = [[_scalar(field, rng, density) for _ in range(ncols)]
            for _ in range(nrows)]
    if field is QQ:
        for row in rows:
            if rng.random() < 0.4:
                factor = rng.choice(ROW_FACTORS)
                row[:] = [factor * x for x in row]
    return field, rows, ncols, rng


def _canonical(field, vectors):
    """Over Q, whether every value of the sparse vectors is canonical (an
    ``int`` exactly when integral); True over F_p."""
    return field is not QQ or all(oracles.is_canonical_rational(x)
                                  for v in vectors if v is not None for x in v.values())


def _image(field, rows, x):
    out = []
    for row in rows:
        total = field.zero
        for a, b in zip(row, x):
            total = field.add(total, field.mul(a, b))
        out.append(total)
    return out


def _right_hand_side(field, rows, ncols, rng):
    """A x for a random x, or an arbitrary (often inconsistent) b."""
    if rng.random() < 0.5:
        return _image(field, rows, [_scalar(field, rng, 0.5) for _ in range(ncols)])
    return [_scalar(field, rng, 0.5) for _ in rows]


def _sparse_rows(field, rows):
    return [oracles.sparse(field, row) for row in rows]


@pytest.mark.parametrize("seed", SEEDS)
def test_rref_and_kernel_match_the_dense_oracle(seed):
    field, rows, ncols, _ = system(seed)
    sparse_rows = _sparse_rows(field, rows)
    red, pivots = linalg.rref(field, sparse_rows)
    assert all(field.zero not in row.values() for row in red)
    assert _canonical(field, red)
    # densified, with the zero rows padded back, as the oracle returns them
    dense = [oracles.dense(field, row, ncols) for row in red]
    dense += [[field.zero] * ncols for _ in range(len(rows) - len(red))]
    assert (dense, pivots) == oracles.rref(field, rows)
    kernel = linalg.kernel_basis(field, sparse_rows, ncols)
    assert all(field.zero not in v.values() and list(v) == sorted(v) for v in kernel)
    assert _canonical(field, kernel)
    assert [oracles.dense(field, v, ncols) for v in kernel] == oracles.kernel_basis(field, rows, ncols)
    assert linalg.rank(field, sparse_rows) == len(oracles.rref(field, rows)[1])
    # no function changes its input rows
    assert sparse_rows == _sparse_rows(field, rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_solves_match_the_dense_oracle(seed):
    field, rows, ncols, rng = system(seed)
    k = rng.randint(0, 4)
    rhs_list = [_right_hand_side(field, rows, ncols, rng) for _ in range(k)]
    expected = [oracles.solve(field, rows, b) for b in rhs_list]
    columns = _sparse_rows(field, ([row[c] for row in rows] for c in range(ncols)))
    rhs_columns = _sparse_rows(field, rhs_list)

    def dense(solutions):
        assert all(x is None or field.zero not in x.values() for x in solutions)
        assert _canonical(field, solutions)
        return [None if x is None else oracles.dense(field, x, ncols) for x in solutions]

    assert dense(linalg.solve(field, columns, rhs_columns, len(rows))) == expected
    # k right-hand sides in one call give the k single solves
    assert [dense(linalg.solve(field, columns, [b], len(rows)))[0]
            for b in rhs_columns] == expected
    assert columns == _sparse_rows(field, ([row[c] for row in rows] for c in range(ncols)))
    assert rhs_columns == _sparse_rows(field, rhs_list)


MANY_RHS_SEEDS = range(1000, 1100)


def many_rhs_system(seed):
    """(field, rows, ncols, rhs_list) with more right-hand sides than
    rank(A), each A x for a random x or an arbitrary b."""
    field, rows, ncols, rng = system(seed)
    rank = len(oracles.rref(field, rows)[1])
    rhs_list = [_right_hand_side(field, rows, ncols, rng)
                for _ in range(rank + rng.randint(1, 6))]
    return field, rows, ncols, rhs_list


@pytest.mark.parametrize("seed", MANY_RHS_SEEDS)
def test_more_right_hand_sides_than_the_rank(seed):
    """One call with more right-hand sides than rank(A), solvable and
    unsolvable mixed, reads each one off as the dense oracle solves it,
    every solution's keys ascending."""
    field, rows, ncols, rhs_list = many_rhs_system(seed)
    columns = _sparse_rows(field, ([row[c] for row in rows] for c in range(ncols)))
    solutions = linalg.solve(field, columns, _sparse_rows(field, rhs_list), len(rows))
    assert all(x is None or list(x) == sorted(x) for x in solutions)
    assert _canonical(field, solutions)
    assert [None if x is None else oracles.dense(field, x, ncols) for x in solutions] == \
        [oracles.solve(field, rows, b) for b in rhs_list]


def test_many_right_hand_side_cases_mix_solvable_and_unsolvable():
    """The seeds above cover calls whose right-hand sides are partly
    solvable and partly not, and solutions with several keys."""
    mixed = several = 0
    for seed in MANY_RHS_SEEDS:
        field, rows, _, rhs_list = many_rhs_system(seed)
        solved = [oracles.solve(field, rows, b) for b in rhs_list]
        mixed += None in solved and any(x is not None for x in solved)
        several += any(x is not None and sum(v != field.zero for v in x) > 1 for x in solved)
    assert mixed >= 20 and several >= 20


def test_systems_without_rows_have_no_solution():
    for field in FIELDS:
        assert linalg.solve(field, [{}, {}, {}], [{}], 0) == [None]
        assert linalg.solve(field, [{}, {}], [{}, {}], 0) == [None, None]


@pytest.mark.parametrize("seed", SEEDS)
def test_span_modulo_keeps_the_oracle_indices(seed):
    field, rows, ncols, rng = system(seed)
    split = rng.randint(0, 8)
    base, vectors = rows[:split], rows[split:]
    span = oracles.SpanBuilder(field, ncols)
    for u in base:
        span.add(u)
    base_dim = span.dim
    kept = [k for k, v in enumerate(vectors) if span.add(v)]
    assert linalg.span_modulo(field, _sparse_rows(field, base),
                              _sparse_rows(field, vectors)) == (base_dim, kept)


def test_field_units_are_plain_attributes():
    for p in (2, 3, 7):
        f = GF(p)
        assert type(f.zero) is int and f.zero == 0
        assert type(f.one) is int and f.one == 1
        assert not isinstance(inspect.getattr_static(type(f), "zero", None), property)
        assert not isinstance(inspect.getattr_static(type(f), "one", None), property)
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1
    assert not isinstance(inspect.getattr_static(type(QQ), "zero", None), property)
    assert not isinstance(inspect.getattr_static(type(QQ), "one", None), property)


def _nonzero(field, rng):
    x = field.zero
    while x == field.zero:
        x = _scalar(field, rng, 1.0)
    return x


@pytest.mark.parametrize("seed", SEEDS)
def test_add_scaled_matches_the_reference_loop(seed):
    """Each row of a seeded system added, with a random nonzero factor, to
    each row in turn, and to the row's own negative (full cancellation),
    gives what the field.add/field.mul loop gives; no value is zero, and
    every value is canonical over Q (an int when integral, else a Fraction
    with denominator > 1) and an int in [0, p) over F_p.  The seeded rows
    hold integral Fractions too, so they are put in canonical form first,
    as the package keeps its field elements."""
    field, rows, _, rng = system(seed)
    rows = [[field.of(x) for x in row] for row in rows]
    sparse_rows = _sparse_rows(field, rows)
    cases = [(v, _nonzero(field, rng), row) for v in sparse_rows for row in sparse_rows]
    cases += [(row, field.neg(field.one), row) for row in sparse_rows]
    for v, factor, row in cases:
        out = dict(v)
        linalg.add_scaled(field, out, factor, row)
        assert out == oracles.add_scaled(field, v, factor, row)
        assert field.zero not in out.values()
        if field is QQ:
            assert all(oracles.is_canonical_rational(x) for x in out.values())
        else:
            assert all(type(x) is int and 0 <= x < field.p for x in out.values())
    assert sparse_rows == _sparse_rows(field, rows)


def test_add_scaled_cases_cover_every_field():
    """The seeds above reach all four fields with nonempty rows."""
    fields = set()
    for seed in SEEDS:
        field, rows, _, _ = system(seed)
        if any(x != field.zero for row in rows for x in row):
            fields.add(field)
    assert fields == set(FIELDS)


def test_rational_cases_reach_the_integer_rows():
    """The seeds above give Q systems with wide numerators and
    denominators, integral Fractions, rows whose cleared integer entries
    share a factor, and rows with a negative leading entry."""
    wide = integral = shared = negative = 0
    for seed in SEEDS:
        field, rows, _, _ = system(seed)
        if field is not QQ:
            continue
        for row in rows:
            values = [Fraction(x) for x in row if x != 0]
            if not values:
                continue
            wide += any(abs(x.numerator) > 10**4 or x.denominator > 100 for x in values)
            integral += any(type(x) is Fraction and x.denominator == 1 for x in row)
            den = math.lcm(*(x.denominator for x in values))
            shared += len(values) > 1 and math.gcd(*(int(x * den) for x in values)) > 1
            negative += values[0] < 0
    assert min(wide, integral, shared, negative) >= 20


# --- larger seeded systems ----------------------------------------------------
# Up to about 60 rows, so that clearing a new pivot makes stored rows gain
# and lose columns and the column index of SpanBuilder holds stale entries.

SHAPES = ("diagonal", "banded", "block", "dense")
LARGE_SEEDS = range(2000, 2064)


def _small_scalar(field, rng):
    """A nonzero entry; over Q a small integer or fraction, so that dense
    systems stay quick for the dense oracle."""
    x = field.zero
    while x == field.zero:
        den = rng.choice((1, 1, 2, 3)) if field is QQ else 1
        x = field.of(Fraction(rng.randint(-4, 4), den))
    return x


def large_system(seed):
    """(field, shape, rows, ncols, rng): 20 to 60 columns and 20 to 60
    rows (no more rows than columns when diagonal) over F2, F3, F7 or Q
    (by seed), in one of SHAPES, then up to 11 more rows: zero rows,
    combinations of two rows, and copies of a row with a stretch of its
    entries past the first one zeroed (clearing the difference of the two
    from the original makes it lose every column of the stretch); all
    rows shuffled.

    diagonal: one entry per row, on the diagonal of a column permutation;
    banded: a run of 1 to 5 columns from the row's position; block: one
    or two blocks of 4 to 10 columns, dense inside; dense: each entry
    nonzero with probability 0.5 to 1."""
    rng = random.Random(seed)
    field, shape = FIELDS[seed % 4], SHAPES[seed // 4 % 4]
    nrows, ncols = rng.randint(20, 60), rng.randint(20, 60)
    rows = []
    if shape == "diagonal":
        cols = rng.sample(range(ncols), min(nrows, ncols))
        for c in cols:
            row = [field.zero] * ncols
            row[c] = _small_scalar(field, rng)
            rows.append(row)
    elif shape == "banded":
        for i in range(nrows):
            row = [field.zero] * ncols
            start = i * ncols // nrows
            for c in range(start, min(ncols, start + rng.randint(1, 5))):
                row[c] = _small_scalar(field, rng)
            rows.append(row)
    elif shape == "block":
        bounds = [0]
        while bounds[-1] < ncols:
            bounds.append(min(ncols, bounds[-1] + rng.randint(4, 10)))
        blocks = list(zip(bounds, bounds[1:]))
        for _ in range(nrows):
            row = [field.zero] * ncols
            for lo, hi in rng.sample(blocks, min(len(blocks), rng.randint(1, 2))):
                for c in range(lo, hi):
                    row[c] = _small_scalar(field, rng)
            rows.append(row)
    else:
        density = rng.uniform(0.5, 1.0)
        rows = [[_small_scalar(field, rng) if rng.random() < density else field.zero
                 for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.randint(2, 5)):
        row = list(rng.choice(rows))
        support = [c for c, x in enumerate(row) if x != field.zero]
        if len(support) > 2:
            start = rng.randrange(1, len(support) - 1)
            for c in support[start:start + rng.randint(2, 4)]:
                row[c] = field.zero
        rows.append(row)
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.3 or len(rows) < 2:
            rows.append([field.zero] * ncols)
            continue
        a, b = rng.sample(rows, 2)
        s, t = _small_scalar(field, rng), _small_scalar(field, rng)
        rows.append([field.add(field.mul(s, x), field.mul(t, y)) for x, y in zip(a, b)])
    rng.shuffle(rows)
    return field, shape, rows, ncols, rng


def _index_is_complete(span):
    """The white-box invariant of SpanBuilder's column index: every
    nonzero non-pivot column of a stored row lists the row's pivot, and
    no pivot column has a list."""
    holders = span._holders
    return holders.keys().isdisjoint(span.pivots) and all(
        k == p or p in holders.get(k, ()) for p, row in span._rows.items() for k in row)


class _CountingHolders(defaultdict):
    """A column index that counts the listed rows that no longer hold a
    column when the column becomes a pivot: the rows the clearing loop
    skips."""

    def __init__(self, rows):
        super().__init__(list)
        self.rows, self.skipped = rows, 0

    def pop(self, c, *default):
        listed = super().pop(c, *default)
        self.skipped += sum(c not in self.rows[p] for p in listed)
        return listed


@pytest.mark.parametrize("seed", LARGE_SEEDS)
def test_large_systems_match_the_dense_oracle(seed):
    """rref, rank, kernel_basis, solve and span_modulo on a larger seeded
    system give what the dense oracle gives."""
    field, _, rows, ncols, rng = large_system(seed)
    sparse_rows = _sparse_rows(field, rows)
    red, pivots = linalg.rref(field, sparse_rows)
    expected_red, expected_pivots = oracles.rref(field, rows)
    assert pivots == expected_pivots
    assert [oracles.dense(field, row, ncols) for row in red] == expected_red[:len(pivots)]
    assert _canonical(field, red)
    assert linalg.rank(field, sparse_rows) == len(expected_pivots)
    kernel = linalg.kernel_basis(field, sparse_rows, ncols)
    assert [oracles.dense(field, v, ncols) for v in kernel] == \
        oracles.kernel_basis(field, rows, ncols)
    rhs_list = [_right_hand_side(field, rows, ncols, rng) for _ in range(3)]
    columns = _sparse_rows(field, ([row[c] for row in rows] for c in range(ncols)))
    solutions = linalg.solve(field, columns, _sparse_rows(field, rhs_list), len(rows))
    assert [None if x is None else oracles.dense(field, x, ncols) for x in solutions] == \
        [oracles.solve(field, rows, b) for b in rhs_list]
    split = rng.randint(0, len(rows))
    span = oracles.SpanBuilder(field, ncols)
    base_dim = sum(span.add(u) for u in rows[:split])
    kept = [k for k, v in enumerate(rows[split:]) if span.add(v)]
    assert linalg.span_modulo(field, sparse_rows[:split], sparse_rows[split:]) == \
        (base_dim, kept)
    assert sparse_rows == _sparse_rows(field, rows)


@pytest.mark.parametrize("seed", LARGE_SEEDS)
def test_interleaved_adds_and_reads_match_the_dense_oracle(seed):
    """Rows added one at a time, with the reduced rows read out between
    the additions as ``slice_of_normal_module`` reads them: every answer
    of ``add`` and every read-out is the dense oracle's, and the column
    index is complete after every insertion."""
    field, _, rows, ncols, rng = large_system(seed)
    span, reference = linalg.SpanBuilder(field), oracles.SpanBuilder(field, ncols)
    for row in rows:
        assert span.add(oracles.sparse(field, row)) == reference.add(row)
        assert _index_is_complete(span)
        if rng.random() < 0.3:
            assert span.pivots == reference.pivots
            assert [oracles.dense(field, r, ncols) for r in span.reduced_rows()] == \
                reference.rows
    assert [oracles.dense(field, r, ncols) for r in span.reduced_rows()] == reference.rows


def test_large_systems_reach_stale_index_entries():
    """Every field and every shape but the diagonal one make the clearing
    loop skip rows listed under a column they have lost."""
    skipping = set()
    for seed in LARGE_SEEDS:
        field, shape, rows, _, _ = large_system(seed)
        span = linalg.SpanBuilder(field)
        span._holders = holders = _CountingHolders(span._rows)
        for row in rows:
            span.add(oracles.sparse(field, row))
        if holders.skipped:
            skipping.add((field, shape))
    assert {field for field, _ in skipping} == set(FIELDS)
    assert {shape for _, shape in skipping} == set(SHAPES) - {"diagonal"}
