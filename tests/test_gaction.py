import random

import pytest

from eqdeform.fields import GF, QQ
from eqdeform.gaction import (
    ClosureBoundExceededError,
    NotInvertibleError,
    Substitution,
    close_group,
    twist_matrices,
    verify_stability,
)
from eqdeform.groebner import Representer, buchberger
from eqdeform.poly import PolyRing


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


def test_twist_matrices_examples(ring):
    x, y = ring.gens()
    sign = close_group([{"y": -y}], ring=ring)
    gb_cusp = buchberger([y**2 - x**3])
    tw = twist_matrices([y**2 - x**3], sign, gb_cusp, Representer([y**2 - x**3]))
    assert tw.reduced[1][0][0] == ring.one

    swap = close_group([{"x": y, "y": x}], ring=ring)
    gb_sq = buchberger([x**2, y**2])
    tws = twist_matrices([x**2, y**2], swap, gb_sq, Representer([x**2, y**2]))
    m = tws.reduced[1]
    assert m[0][0].is_zero() and m[0][1] == ring.one
    assert m[1][0] == ring.one and m[1][1].is_zero()

    gb_node = buchberger([x * y])
    twn = twist_matrices([x * y], swap, gb_node, Representer([x * y]))
    assert twn.reduced[1][0][0] == ring.one


def test_twist_cocycle_compatibility(ring):
    x, y = ring.gens()
    g = close_group([{"x": y, "y": x}, {"y": -y}], ring=ring)
    gens = [x**2 + y**2, x**2 * y**2]
    gb = buchberger(gens)
    assert verify_stability(gb, g)
    tw = twist_matrices(gens, g, gb, Representer(gens))
    c = len(gens)
    for i in g.indices():
        for j in g.indices():
            ij = g.mul(i, j)
            for a in range(c):
                for b in range(c):
                    # T_{ij} = i(T_j) T_i entrywise mod I
                    total = ring.zero
                    for l in range(c):
                        total = total + g.apply(i, tw.reduced[j][a][l]) \
                            * tw.reduced[i][l][b]
                    assert gb.normal_form(tw.reduced[ij][a][b] - total).is_zero()
    # exact representation really divides
    for i in g.indices():
        for a in range(c):
            lhs = g.apply(i, gens[a])
            rhs = ring.zero
            for l in range(c):
                rhs = rhs + tw.exact[i][a][l] * gens[l]
            assert lhs == rhs


def test_variable_orbits_free(ring):
    x, y = ring.gens()
    swap = close_group([{"x": y, "y": x}], ring=ring)
    assert swap.variable_orbits_free()
    sign = close_group([{"y": -y}], ring=ring)
    assert not sign.variable_orbits_free()
    triv = close_group([], ring=ring)
    assert triv.variable_orbits_free()
