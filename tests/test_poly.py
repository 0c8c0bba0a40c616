import random

import pytest

import oracles
from eqdeform.ambient import _combination
from eqdeform.deform import EpsPoly
from eqdeform.fields import GF, QQ, FieldError
from eqdeform.groebner import _spair, _vec_lt, vec_from_polys
from eqdeform.poly import (
    ContextMismatchError,
    MonomialOrder,
    ParseError,
    PolyRing,
    canonical_render,
    parse_polynomial,
    partial,
    substitute,
)


@pytest.fixture
def ring():
    return PolyRing(QQ, ["x", "y"])


def randpoly(ring, rng, terms=4, deg=3, span=5):
    out = {}
    for _ in range(terms):
        m = tuple(rng.randrange(deg) for _ in ring.variables)
        c = ring.field.of(rng.randrange(-span, span + 1))
        if c != ring.field.zero:
            out[m] = c
    return ring.from_terms(out)


def test_ring_axioms_random(ring):
    rng = random.Random(7)
    for _ in range(40):
        f, g, h = (randpoly(ring, rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f - f == ring.zero


def test_ring_axioms_prime_field():
    ring = PolyRing(GF(5), ["x", "y", "z"])
    rng = random.Random(8)
    for _ in range(25):
        f, g, h = (randpoly(ring, rng) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_substitute_examples(ring):
    x, y = ring.gens()
    f = y**2 - x**3
    assert substitute(f, {"y": -y}) == f
    assert substitute(x * y, {"x": y, "y": x}) == x * y
    r2 = PolyRing(GF(2), ["x"])
    t = r2.var("x")
    assert substitute(t**2, {"x": t + 1}) == t**2 + 1


def test_substitute_is_ring_hom(ring):
    rng = random.Random(9)
    x, y = ring.gens()
    images = {"x": x + y, "y": x - 2 * y}
    for _ in range(15):
        f, g = randpoly(ring, rng), randpoly(ring, rng)
        assert substitute(f * g, images) == substitute(f, images) * substitute(g, images)
        assert substitute(f + g, images) == substitute(f, images) + substitute(g, images)


def test_substitute_invertible(ring):
    x, y = ring.gens()
    rng = random.Random(10)
    fwd = {"x": y, "y": -x}
    back = {"x": -y, "y": x}
    for _ in range(10):
        f = randpoly(ring, rng)
        assert substitute(substitute(f, fwd), back) == f


def test_substitute_context_mismatch(ring):
    other = PolyRing(QQ, ["x", "y"])
    with pytest.raises(ContextMismatchError):
        substitute(ring.var("x"), {"x": other.var("x")})
    with pytest.raises(ContextMismatchError):
        ring.var("x") + other.var("x")
    # images are polynomials only, eps-polynomials included
    x = ring.var("x")
    for image in (EpsPoly(ring, 1, [x, ring.one]), 1):
        with pytest.raises(ContextMismatchError):
            substitute(x**2, {"x": image, "y": ring.var("y")})


def test_substitute_into_another_ring(ring):
    other = PolyRing(GF(3), ["u"])
    u = other.var("u")
    x, y = ring.gens()
    small = PolyRing(QQ, ["t"])
    t = small.var("t")
    assert substitute(x**2 * y - 1, {"x": t + 1, "y": t}) == t**3 + 2 * t**2 + t - 1
    with pytest.raises(ContextMismatchError):
        substitute(x * y, {"x": t, "y": u})


def test_substitute_large_exponent():
    r = PolyRing(QQ, ["x"])
    x = r.var("x")
    assert substitute(x**3000, {"x": -x}) == x**3000


def test_render_examples(ring):
    x, y = ring.gens()
    assert canonical_render(y**2 - x**3) == "-x^3 + y^2"
    assert canonical_render(ring.zero) == "0"
    r2 = PolyRing(GF(2), ["x"])
    assert canonical_render(r2.var("x") + 1) == "x + 1"
    assert canonical_render(2 * x * y**2 - ring.const("1/2") * x) == "2*x*y^2 - 1/2*x"


def test_parse_render_round_trip(ring):
    rng = random.Random(12)
    for _ in range(40):
        f = randpoly(ring, rng, terms=5, deg=4)
        assert parse_polynomial(ring, canonical_render(f)) == f
    r5 = PolyRing(GF(5), ["a", "b"])
    for _ in range(20):
        f = randpoly(r5, rng, terms=5, deg=4)
        assert parse_polynomial(r5, canonical_render(f)) == f


def test_parse_variants(ring):
    x, y = ring.gens()
    assert parse_polynomial(ring, "3/2*x^2*y - 1") == ring.const("3/2") * x**2 * y - 1
    assert parse_polynomial(ring, "2x") == 2 * x
    assert parse_polynomial(ring, "x y") == x * y
    assert parse_polynomial(ring, "0").is_zero()
    assert parse_polynomial(ring, "-x - y") == -x - y


def test_parse_errors(ring):
    with pytest.raises(ParseError):
        parse_polynomial(ring, "z + 1")
    with pytest.raises(ParseError):
        parse_polynomial(ring, "x +")
    with pytest.raises(ParseError):
        parse_polynomial(ring, "x ^ y")
    r2 = PolyRing(GF(2), ["x"])
    with pytest.raises(ParseError):
        parse_polynomial(r2, "1/2*x")


def test_monomial_orders():
    grevlex = MonomialOrder("grevlex")
    # smaller power of the least variable wins at equal total degree
    assert grevlex.key((1, 2, 0)) > grevlex.key((2, 0, 1))
    lex = MonomialOrder("lex")
    assert lex.key((0, 2)) > lex.key((3, 1))
    ring = PolyRing(QQ, ["x", "y"], MonomialOrder("lex"))
    x, y = ring.gens()
    assert (y**2 - x**3).leading_monomial() == (0, 2)


def test_partial_derivative(ring):
    x, y = ring.gens()
    f = y**2 - x**3
    assert partial(f, 0) == -3 * x**2
    assert partial(f, 1) == 2 * y
    r2 = PolyRing(GF(2), ["x"])
    assert partial(r2.var("x") ** 2, 0).is_zero()


def test_scalar_invariants():
    assert QQ.of("2/4") == QQ.of("1/2")
    f5 = GF(5)
    assert f5.of(-1) == 4
    assert f5.fraction(1, 2) == 3
    with pytest.raises(FieldError):
        GF(6)
    with pytest.raises(FieldError):
        f5.fraction(1, 5)


# --- sums through add_scaled against the loops they replaced ---------------------

SUM_FIELDS = (GF(2), GF(3), GF(7), QQ)


def _nonzero(field, rng):
    """A nonzero element, over Q an int or a Fraction with denominator 2 or 3."""
    x = field.zero
    while x == field.zero:
        x = field.fraction(rng.randint(-5, 5), rng.choice((2, 3))) \
            if field is QQ and rng.random() < 0.3 else field.of(rng.randrange(-6, 7))
    return x


def _cancelling_pair(ring, rng):
    """f and g on a pool of 12 monomials, g meeting f's terms with their
    negatives (they cancel) or with other values (they update)."""
    field = ring.field
    pool = [tuple(rng.randrange(3) for _ in ring.variables) for _ in range(12)]
    f = ring.from_terms({m: _nonzero(field, rng) for m in rng.sample(pool, 7)})
    g = {m: field.neg(f.terms[m]) if m in f.terms and rng.random() < 0.5
         else _nonzero(field, rng) for m in rng.sample(pool, 8)}
    return f, ring.from_terms(g)


def _terms(p):
    return list(p.terms.items())


@pytest.mark.parametrize("seed", range(24))
def test_sums_keep_the_values_and_term_order_of_the_reference_loops(seed):
    """Polynomial + and -, ``ambient._combination``, ``groebner._spair``
    and the running sum of ``substitute`` give the same terms in the same
    order as the entry-by-entry loops they replaced (``oracles``), on
    seeded F_2, F_3, F_7 and Q inputs whose terms cancel and update."""
    rng = random.Random(seed)
    ring = PolyRing(SUM_FIELDS[seed % 4], ["x", "y", "z"])
    field = ring.field
    f, g = _cancelling_pair(ring, rng)
    h, k = _cancelling_pair(ring, rng)
    assert _terms(f + g) == _terms(oracles.poly_add(f, g))
    assert _terms(f - g) == _terms(oracles.poly_sub(f, g))
    assert _terms(g - g) == []
    pairs = [(field.one, f), (field.neg(field.one), g), (_nonzero(field, rng), h)]
    assert _terms(_combination(ring, pairs)) == _terms(oracles.combination(ring, pairs))
    u, v = vec_from_polys([f, h]), vec_from_polys([g, k])
    ult, vlt = _vec_lt(ring, u), _vec_lt(ring, v)
    assert list(_spair(ring, u, ult, v, vlt).items()) == \
        list(oracles.spair(ring, u, ult, v, vlt).items())
    images = [h, g + ring.var("x"), ring.var("y") - k]
    assert _terms(substitute(f, dict(zip(ring.variables, images)))) == \
        _terms(oracles.substitute_summed(f, images))


def test_reference_sums_meet_cancellations_and_updates():
    """The seeds above cancel terms in every field and update terms in
    place in every field but F_2, where two meeting terms always cancel."""
    seen = set()
    for seed in range(24):
        rng = random.Random(seed)
        ring = PolyRing(SUM_FIELDS[seed % 4], ["x", "y", "z"])
        f, g = _cancelling_pair(ring, rng)
        total = f + g
        for m in f.terms.keys() & g.terms.keys():
            seen.add((ring.field, "update" if m in total.terms else "cancel"))
    assert seen == {(F, "cancel") for F in SUM_FIELDS} | \
        {(F, "update") for F in SUM_FIELDS if F != GF(2)}
