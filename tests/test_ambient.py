import random
from pathlib import Path

import pytest

import eqdeform.ambient
import eqdeform.groebner
import oracles
from eqdeform.ambient import (
    AffinePresentation,
    NormalModule,
    NotCompleteIntersectionError,
    _SliceCoordinates,
    ambient_vector_slice,
    choose_ambient,
    derivation_action,
    derivations,
    normal_image,
    original_ambient,
    regular_rep_embedding,
)
from eqdeform.cli import Workspace
from eqdeform.fields import GF, QQ
from eqdeform.gaction import close_group
from eqdeform.linalg import SpanBuilder
from eqdeform.poly import PolyRing, canonical_render
from eqdeform.problem import parse_problem

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def ring():
    return PolyRing(QQ, ["x", "y"])


@pytest.fixture
def cusp(ring):
    x, y = ring.gens()
    return AffinePresentation.build(ring, [y**2 - x**3])


@pytest.fixture
def sign(ring):
    return close_group([{"y": -ring.var("y")}], ring=ring)


def test_presentation_requires_regular_sequence(ring):
    x, y = ring.gens()
    with pytest.raises(NotCompleteIntersectionError):
        AffinePresentation.build(ring, [x, x])


def test_one_groebner_basis_per_presentation(monkeypatch):
    """The presentation and the regular-representation embedding each run
    Buchberger once: the regularity certificate carries the basis it was
    read from."""
    calls = []
    buchberger = eqdeform.groebner.buchberger

    def counted(*args, **kwargs):
        calls.append(args)
        return buchberger(*args, **kwargs)

    for module in (eqdeform.ambient, eqdeform.groebner):
        if hasattr(module, "buchberger"):
            monkeypatch.setattr(module, "buchberger", counted)
    r2 = PolyRing(GF(2), ["x", "y"])
    x, y = r2.gens()
    node = AffinePresentation.build(r2, [x * y])
    assert len(calls) == 1
    swap = close_group([{"x": y, "y": x}], ring=r2)
    amb = regular_rep_embedding(node, swap)
    assert len(calls) == 2
    assert node.gb is node.certificate.gb
    assert amb.pres.gb is amb.pres.certificate.gb


def test_regular_rep_embedding_cusp(cusp, sign):
    amb = regular_rep_embedding(cusp, sign)
    assert amb.ring.variables == ("x_g0", "y_g0", "x_g1", "y_g1")
    rendered = [canonical_render(f) for f in amb.pres.gens]
    assert rendered == ["-x_g0^3 + y_g0^2", "x_g1 - x_g0", "y_g1 + y_g0"]
    cert = amb.pres.certificate
    assert cert.regular and cert.quotient_dimension == 1 and cert.nvars == 4
    # the action permutes the variables in free orbits
    assert amb.action.variable_orbits_free()
    # phi' is equivariant for the left-translation action
    for i in amb.action.indices():
        for v in amb.ring.variables:
            lhs = amb.project(amb.action.apply(i, amb.ring.var(v)))
            rhs = cusp.nf(sign.apply(i, amb.project(amb.ring.var(v))))
            assert lhs == rhs
    # the presented generators die under phi' (they present the kernel)
    for f in amb.pres.gens:
        assert amb.project(f).is_zero()
    # and the e-block section splits phi'
    for v in cusp.ring.variables:
        assert amb.project(amb.embed(cusp.ring.var(v))) == cusp.nf(cusp.ring.var(v))


def test_regular_rep_trivial_group(cusp, ring):
    triv = close_group([], ring=ring)
    amb = regular_rep_embedding(cusp, triv)
    assert len(amb.pres.gens) == 1
    assert amb.pres.certificate.regular


def test_regular_rep_translation_line():
    r = PolyRing(GF(2), ["x"])
    line = AffinePresentation.build(r, [])
    g = close_group([{"x": r.var("x") + 1}], ring=r)
    amb = choose_ambient(line, g)
    assert amb.kind == "regular"
    assert [canonical_render(f) for f in amb.pres.gens] == ["x_g1 + x_g0 + 1"]
    assert amb.pres.certificate.quotient_dimension == 1


def test_choose_ambient_policy(ring, cusp, sign):
    x, y = ring.gens()
    # tame: original kept
    assert choose_ambient(cusp, sign).kind == "original"
    # already regular-representation shaped: original kept even in char 2
    r2 = PolyRing(GF(2), ["x", "y"])
    node2 = AffinePresentation.build(r2, [r2.var("x") * r2.var("y")])
    sw2 = close_group([{"x": r2.var("y"), "y": r2.var("x")}], ring=r2)
    assert choose_ambient(node2, sw2).kind == "original"
    # wild and not G-FL: regular representation
    r1 = PolyRing(GF(2), ["x"])
    line = AffinePresentation.build(r1, [])
    g1 = close_group([{"x": r1.var("x") + 1}], ring=r1)
    assert choose_ambient(line, g1).kind == "regular"
    assert choose_ambient(cusp, sign, mode="regular").kind == "regular"


def _span_dim(field, coords, vectors) -> int:
    span = SpanBuilder(field)
    for v in vectors:
        span.add(coords.row(v))
    return span.dim


def test_derivations_cusp(ring, cusp, sign):
    x, y = ring.gens()
    amb = original_ambient(cusp, sign)
    invariant = derivations(amb, 1)
    # each basis vector is an invariant derivation of B
    for d in invariant:
        assert all(p.is_zero() for p in normal_image(amb, d))
        assert derivation_action(amb, 1, d) == d
    # the Euler derivation is invariant and lies in the degree <= 1 slice
    euler = (2 * x, 3 * y)
    assert derivation_action(amb, 1, euler) == euler
    assert all(p.is_zero() for p in normal_image(amb, euler))
    coords = _SliceCoordinates()
    assert _span_dim(ring.field, coords, invariant + [euler]) == \
        _span_dim(ring.field, coords, invariant) == len(invariant)


def test_derivations_smooth_line():
    r = PolyRing(QQ, ["t"])
    line = AffinePresentation.build(r, [])
    amb = original_ambient(line, close_group([], ring=r))
    assert derivations(amb, 0) == [(r.one,)]
    assert derivations(amb, 1) == [(r.one,), (r.var("t"),)]


def test_derivation_slice_reynolds_cross_check(ring, cusp, sign):
    """Invariant slice dimension: Reynolds projection of the full tangent
    slice (over the trivial group) vs the direct solver."""
    amb = original_ambient(cusp, sign)
    plain = original_ambient(cusp, close_group([], ring=ring))
    field = ring.field
    for degree in (2, 3):
        full = ambient_vector_slice(plain, degree, tangent=True)
        inv = ambient_vector_slice(amb, degree, tangent=True)
        projected = []
        for d in full:
            total = (ring.zero, ring.zero)
            for i in sign.indices():
                total = tuple(a + b for a, b in
                              zip(total, derivation_action(amb, i, d)))
            projected.append(tuple(cusp.nf(c.scale(field.fraction(1, 2)))
                                   for c in total))
        coords = _SliceCoordinates()
        assert _span_dim(field, coords, projected) == _span_dim(field, coords, inv)


def test_normal_module_action(ring, cusp, sign):
    x, y = ring.gens()
    amb = original_ambient(cusp, sign)
    N = NormalModule(amb)
    assert N.act(1, (x + y,)) == (x - y,)
    # representation property on random vectors
    rng = random.Random(41)
    for _ in range(10):
        vec = (ring.from_terms({(rng.randrange(3), rng.randrange(2)):
                                ring.field.of(rng.randrange(1, 5))}),)
        for i in sign.indices():
            for j in sign.indices():
                lhs = N.act(sign.mul(i, j), vec)
                rhs = N.act(i, N.act(j, vec))
                assert tuple(cusp.nf(a - b) for a, b in zip(lhs, rhs)) == \
                    (ring.zero,)


def test_normal_module_regular_rep_representation_property(cusp, sign):
    amb = regular_rep_embedding(cusp, sign)
    N = NormalModule(amb)
    ring = amb.ring
    rng = random.Random(42)
    monos = amb.pres.std_monomials_upto(2)
    for _ in range(6):
        vec = [ring.zero] * N.rank
        vec[rng.randrange(N.rank)] = ring.monomial(monos[rng.randrange(len(monos))])
        vec = tuple(vec)
        for i in amb.action.indices():
            for j in amb.action.indices():
                lhs = N.act(amb.action.mul(i, j), vec)
                rhs = N.act(i, N.act(j, vec))
                assert lhs == rhs


def test_semilinearity_of_twist(cusp, sign):
    # sigma(b.psi) = sigma(b).sigma(psi) on the normal module
    amb = original_ambient(cusp, sign)
    N = NormalModule(amb)
    ring = amb.ring
    x, y = ring.gens()
    b = x + y
    psi = (y,)
    lhs = N.act(1, tuple(b * p for p in psi))
    scaled = tuple(sign.apply(1, b) * p for p in N.act(1, psi))
    assert tuple(cusp.nf(a - c) for a, c in zip(lhs, scaled)) == (ring.zero,)


def test_ambient_vector_slice_counts(cusp, sign):
    amb = original_ambient(cusp, sign)
    inv = ambient_vector_slice(amb, 1)
    for v in inv:
        assert derivation_action(amb, 1, v) == v


@pytest.mark.parametrize("name,degree", [
    (name, degree) for name in ("klein_f2", "d4_f2", "cubic_q", "trans_f3")
    for degree in (1, 2)])
@pytest.mark.parametrize("tangent", [False, True])
def test_invariant_slice_matches_the_all_elements_oracle(name, degree, tangent):
    """Invariance imposed by the generators only gives the same basis as
    invariance under every s != e; each group here has fewer generators
    than nonidentity elements (trans_f3 through its regular ambient)."""
    text = (ROOT / "bench" / "problems" / f"{name}.prob").read_text(encoding="utf-8")
    amb = Workspace(parse_problem(text)).ambient
    assert len(amb.action.generators) < len(amb.action) - 1
    assert (name == "trans_f3") == (amb.kind == "regular")
    basis = ambient_vector_slice(amb, degree, tangent=tangent)
    assert basis == oracles.invariant_vector_slice(amb, degree, tangent)
