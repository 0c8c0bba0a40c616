"""The sparse eliminator in eqdeform.linalg against the dense copy in oracles.

Each seed gives one fixed system, so the cases are the same on every run."""

import inspect
import random
from fractions import Fraction

import pytest

import oracles
from eqdeform import linalg
from eqdeform.fields import GF, QQ

FIELDS = (GF(2), GF(3), GF(7), QQ)
SEEDS = range(300)


def _scalar(field, rng, density):
    if rng.random() >= density:
        return field.zero
    if field is QQ:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return rng.randrange(field.p)


def system(seed):
    """(field, rows, ncols, rng): up to 8 x 8, dense, sparse or all zero,
    with zero-width rows when ncols is 0."""
    rng = random.Random(seed)
    field = rng.choice(FIELDS)
    nrows, ncols = rng.randint(0, 8), rng.randint(0, 8)
    density = rng.choice((0.0, 0.15, 0.4, 1.0))
    rows = [[_scalar(field, rng, density) for _ in range(ncols)]
            for _ in range(nrows)]
    return field, rows, ncols, rng


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
    # densified, with the zero rows padded back, as the oracle returns them
    dense = [oracles.dense(field, row, ncols) for row in red]
    dense += [[field.zero] * ncols for _ in range(len(rows) - len(red))]
    assert (dense, pivots) == oracles.rref(field, rows)
    kernel = linalg.kernel_basis(field, sparse_rows, ncols)
    assert all(field.zero not in v.values() and list(v) == sorted(v) for v in kernel)
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
    assert type(QQ.zero) is Fraction and QQ.zero == 0
    assert type(QQ.one) is Fraction and QQ.one == 1
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
    every value is a Fraction over Q and an int in [0, p) over F_p."""
    field, rows, _, rng = system(seed)
    sparse_rows = _sparse_rows(field, rows)
    cases = [(v, _nonzero(field, rng), row) for v in sparse_rows for row in sparse_rows]
    cases += [(row, field.neg(field.one), row) for row in sparse_rows]
    for v, factor, row in cases:
        out = dict(v)
        linalg.add_scaled(field, out, factor, row)
        assert out == oracles.add_scaled(field, v, factor, row)
        assert field.zero not in out.values()
        if field is QQ:
            assert all(type(x) is Fraction for x in out.values())
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
