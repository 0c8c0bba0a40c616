import random
from fractions import Fraction

import pytest

import oracles
from eqdeform.ambient import AffinePresentation, original_ambient
from eqdeform.fields import GF, QQ
from eqdeform.gaction import (
    ClosureBoundExceededError,
    NotInvertibleError,
    Substitution,
    close_group,
    verify_stability,
)
from eqdeform.groebner import buchberger
from eqdeform.poly import PolyRing, Polynomial


@pytest.fixture
def ring():
    return PolyRing(QQ, ["x", "y"])


def randpoly(ring, rng):
    out = {}
    for _ in range(4):
        m = tuple(rng.randrange(3) for _ in ring.variables)
        c = ring.field.of(rng.randrange(-3, 4))
        if c != ring.field.zero:
            out[m] = c
    return ring.from_terms(out)


def test_close_group_examples(ring):
    x, y = ring.gens()
    assert len(close_group([{"y": -y}], ring=ring)) == 2
    r2 = PolyRing(GF(2), ["x"])
    assert len(close_group([{"x": r2.var("x") + 1}], ring=r2)) == 2
    # swap and sign flip generate a dihedral group; the order comes from
    # the closure itself and the table must be a Latin square
    g = close_group([{"x": y, "y": x}, {"y": -y}], ring=ring)
    n = len(g)
    assert n == 8
    for i in range(n):
        assert sorted(g.table[i]) == list(range(n))
        assert sorted(g.table[j][i] for j in range(n)) == list(range(n))
        assert g.mul(i, g.inv(i)) == g.identity_index
        assert g.mul(g.inv(i), i) == g.identity_index


def test_closure_bound(ring):
    x, y = ring.gens()
    with pytest.raises(ClosureBoundExceededError):
        close_group([{"x": y, "y": x}, {"y": -y}], ring=ring, bound=4)
    with pytest.raises(ClosureBoundExceededError):
        close_group([{"x": x + 1}], ring=ring, bound=64)  # infinite over Q


def test_close_group_records_generators(ring):
    x, y = ring.gens()
    swap, flip = {"x": y, "y": x}, {"y": -y}
    g = close_group([swap, flip, swap], ring=ring)
    assert [g.elements[i] for i in g.generators] == [
        Substitution.from_map(ring, swap), Substitution.from_map(ring, flip)]
    assert close_group([], ring=ring).generators == []
    # an identity generator is not recorded, so the trivial group has none
    assert close_group([{"x": x}], ring=ring).generators == []
    assert close_group([{"x": x}, swap], ring=ring).generators == [1]


def test_non_invertible_generator(ring):
    x, y = ring.gens()
    with pytest.raises(NotInvertibleError):
        close_group([{"x": x + y, "y": x + y}], ring=ring)
    with pytest.raises(ValueError):
        Substitution.from_map(ring, {"x": x**2})


def test_representation_property(ring):
    rng = random.Random(31)
    x, y = ring.gens()
    g = close_group([{"x": y, "y": x}, {"y": -y}], ring=ring)
    n = len(g)
    for _ in range(20):
        f = randpoly(ring, rng)
        i, j = rng.randrange(n), rng.randrange(n)
        assert g.apply(g.mul(i, j), f) == g.apply(i, g.apply(j, f))


def test_verify_stability(ring):
    x, y = ring.gens()
    sign = close_group([{"y": -y}], ring=ring)
    swap = close_group([{"x": y, "y": x}], ring=ring)
    assert verify_stability(buchberger([y**2 - x**3]), sign)
    assert verify_stability(buchberger([x * y]), swap)
    assert not verify_stability(buchberger([x]), swap)


def test_verify_stability_reads_every_generator(ring):
    """The sign flip of x fixes (y); only the second generator, the swap,
    moves it."""
    x, y = ring.gens()
    group = close_group([{"x": -x}, {"x": y, "y": x}], ring=ring)
    assert len(group.generators) == 2
    assert verify_stability(buchberger([y]), close_group([{"x": -x}], ring=ring))
    assert not verify_stability(buchberger([y]), group)


def _twist_ambient(ring, group, gens):
    return original_ambient(AffinePresentation.build(ring, gens), group)


def test_twist_matrices_examples(ring):
    """The ambient divides at the generator's inverse, here the generator
    itself, and its twist images are the conormal matrices of the
    action: 1 on the cusp and the node, the swap on (x^2, y^2)."""
    x, y = ring.gens()
    one = ring.field.one
    sign = close_group([{"y": -y}], ring=ring)
    amb = _twist_ambient(ring, sign, [y**2 - x**3])
    assert amb.twists == {1: [[ring.one]]}
    assert amb.twist_images == [[[(0, one)]], [[(0, one)]]]

    swap = close_group([{"x": y, "y": x}], ring=ring)
    amb = _twist_ambient(ring, swap, [x**2, y**2])
    assert amb.twists == {1: [[ring.zero, ring.one], [ring.one, ring.zero]]}
    assert amb.twist_images[1] == [[(1, one)], [(0, one)]]

    amb = _twist_ambient(ring, swap, [x * y])
    assert amb.twists == {1: [[ring.one]]}
    assert amb.twist_images[1] == [[(0, one)]]


def _twist_matrix(amb, i):
    """A_i of the ambient as a dense matrix of polynomials."""
    out = [[amb.ring.zero] * amb.rank for _ in range(amb.rank)]
    for j, row in enumerate(amb.twist_images[i]):
        for l, e in row:
            out[j][l] = e if isinstance(e, Polynomial) else amb.ring.const(e)
    return out


def test_twist_cocycle_compatibility(ring):
    """On D4 acting on (x^2 + y^2, x^2 y^2), every pair of elements
    satisfies A_{ij} = A_i sigma_i(A_j) mod I, substituted and reduced
    as written, and each division at a generator's inverse s^-1 is
    exact: s^-1(f_j) = sum_l T[j][l] f_l."""
    x, y = ring.gens()
    g = close_group([{"x": y, "y": x}, {"y": -y}], ring=ring)
    gens = [x**2 + y**2, x**2 * y**2]
    amb = _twist_ambient(ring, g, gens)
    gb = amb.pres.gb
    assert len(g) == 8 and any(a != g.identity_index for a, _, _ in g.tree)
    c = len(gens)
    A = [_twist_matrix(amb, i) for i in g.indices()]
    for i in g.indices():
        for j in g.indices():
            for a in range(c):
                for b in range(c):
                    total = ring.zero
                    for l in range(c):
                        total = total + A[i][a][l] * g.apply(i, A[j][l][b])
                    assert gb.normal_form(total) == A[g.mul(i, j)][a][b]
    assert sorted(amb.twists) == sorted(map(g.inv, g.generators))
    for i, rows in amb.twists.items():
        for a in range(c):
            rhs = ring.zero
            for l in range(c):
                rhs = rhs + rows[a][l] * gens[l]
            assert g.apply(i, gens[a]) == rhs


def test_variable_orbits_free(ring):
    x, y = ring.gens()
    swap = close_group([{"x": y, "y": x}], ring=ring)
    assert swap.variable_orbits_free()
    sign = close_group([{"y": -y}], ring=ring)
    assert not sign.variable_orbits_free()
    triv = close_group([], ring=ring)
    assert triv.variable_orbits_free()


FIELDS = (GF(2), GF(3), QQ)
BOUND = 24


def draw_generators(seed):
    """(ring, substitutions) for the seed: one to three generators over
    F2, F3 or Q on two to four variables, each a permutation of the
    variables, a sign flip, a translation (an infinite group over Q), the
    identity or a repeat of an earlier one."""
    rng = random.Random(seed)
    ring = PolyRing(FIELDS[seed % len(FIELDS)], ["x", "y", "z", "w"][:rng.randint(2, 4)])
    xs = ring.gens()
    subs = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("permutation", "permutation", "sign", "translation",
                           "identity", "repeat"))
        if kind == "repeat" and subs:
            subs.append(rng.choice(subs))
            continue
        images = list(xs)
        if kind == "permutation":
            images = rng.sample(images, len(images))
        elif kind == "sign":
            images = [-x if rng.random() < 0.5 else x for x in images]
        elif kind == "translation":
            i = rng.randrange(len(images))
            images[i] = images[i] + 1
        subs.append(Substitution(ring, images))
    return ring, subs


def closure_or_bound(close, *args):
    """close(*args), or None when it raises ClosureBoundExceededError."""
    try:
        return close(*args)
    except ClosureBoundExceededError:
        return None


@pytest.mark.parametrize("seed", range(80))
def test_close_group_matches_the_composed_table(seed):
    """Elements, table and inverses read off the closure walk equal the
    composition of every pair, and both closures stop at the same bound."""
    ring, subs = draw_generators(seed)
    expected = closure_or_bound(oracles.composed_table, ring, subs, BOUND)
    group = closure_or_bound(close_group, subs, ring, BOUND)
    if expected is None:
        assert group is None
        return
    elements, table, inverse = expected
    assert group.elements == elements
    assert group.table == table
    assert group.inverse == inverse
    assert group.tree == oracles.cayley_tree(group)
    if len(elements) > 1:
        smaller = len(elements) - 1
        assert closure_or_bound(oracles.composed_table, ring, subs, smaller) is None
        assert closure_or_bound(close_group, subs, ring, smaller) is None


def test_the_seeded_groups_cover_the_cases():
    """The seeds reach every field, groups of order 1 to at least 16, and
    the bound on both finite and infinite groups."""
    orders, fields, bounded = set(), set(), 0
    for seed in range(80):
        ring, subs = draw_generators(seed)
        group = closure_or_bound(close_group, subs, ring, BOUND)
        fields.add(ring.field.characteristic)
        if group is None:
            bounded += 1
        else:
            orders.add(len(group))
    assert fields == {0, 2, 3}
    assert 1 in orders and max(orders) >= 16
    assert bounded


def random_affine(ring, rng):
    """An affine substitution, invertible or not: each image a random
    linear combination of the variables plus a constant, its terms in a
    shuffled order, zero images and cancelling coefficients included."""
    field, n = ring.field, ring.nvars
    images = []
    for _ in range(n):
        terms = []
        for k in range(n + 1):
            if rng.random() < 0.6:
                c = field.of(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 5, 7))))
                if c != field.zero:
                    terms.append((tuple(int(j == k) for j in range(n)), c))
        rng.shuffle(terms)
        images.append(ring.from_terms(dict(terms)))
    return Substitution(ring, images)


@pytest.mark.parametrize("seed", range(60))
def test_compose_matches_the_substitution_form(seed):
    """s.compose(t) has the images that substituting s's images into t's
    gives, over F2, F3 and Q, with their terms in the same order (over
    F_p a denominator 5 or 7 is inverted)."""
    rng = random.Random(seed)
    ring = PolyRing(FIELDS[seed % len(FIELDS)], ["x", "y", "z", "w"][:rng.randint(1, 4)])
    s, t = random_affine(ring, rng), random_affine(ring, rng)
    for a, b in ((s, t), (t, s), (s, s)):
        got, expected = a.compose(b), oracles.compose_by_substitution(a, b)
        assert got == expected
        assert [list(g.terms.items()) for g in got.images] == \
            [list(g.terms.items()) for g in expected.images]
