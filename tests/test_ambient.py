import random
from functools import cached_property
from pathlib import Path

import pytest

import eqdeform.ambient
import eqdeform.groebner
import oracles
from eqdeform.ambient import (
    AffinePresentation,
    EquivariantAmbient,
    NormalModule,
    NotCompleteIntersectionError,
    _SliceCoordinates,
    ambient_vector_slice,
    choose_ambient,
    derivations,
    normal_image,
    original_ambient,
    regular_rep_embedding,
)
from eqdeform.cli import CLOSURE_BOUND, Workspace, main
from eqdeform.fields import GF, QQ
from eqdeform.gaction import close_group, verify_stability
from eqdeform.groebner import buchberger, is_regular_sequence
from eqdeform.linalg import SpanBuilder
from eqdeform.poly import MonomialOrder, PolyRing, Polynomial, canonical_render, substitute
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
    return close_group([{"y": -ring.var("y")}], ring, CLOSURE_BOUND)


def test_presentation_requires_regular_sequence(ring):
    x, y = ring.gens()
    with pytest.raises(NotCompleteIntersectionError):
        AffinePresentation.build(ring, [x, x])


def test_one_groebner_basis_per_presentation(monkeypatch):
    """The presentation runs Buchberger once, and the regularity
    certificate carries the basis it was read from; the
    regular-representation embedding writes its basis down without
    running it."""
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
    swap = close_group([{"x": y, "y": x}], r2, CLOSURE_BOUND)
    amb = regular_rep_embedding(node, swap)
    assert len(calls) == 1
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
    # phi': X_{i,k} -> NF(sigma_k(x_i)), built from cusp and sign alone
    images = [cusp.nf(sign.apply(k, cusp.ring.var(v)))
              for k in sign.indices() for v in cusp.ring.variables]

    def project(f):
        return cusp.nf(substitute(f, dict(zip(amb.ring.variables, images))))

    # phi' is equivariant for the left-translation action
    for i in amb.action.indices():
        for v in amb.ring.variables:
            lhs = project(amb.action.apply(i, amb.ring.var(v)))
            rhs = cusp.nf(sign.apply(i, project(amb.ring.var(v))))
            assert lhs == rhs
    # the presented generators die under phi' (they present the kernel)
    for f in amb.pres.gens:
        assert project(f).is_zero()
    # and the e-block section splits phi'
    for v in cusp.ring.variables:
        assert project(amb.embed(cusp.ring.var(v))) == cusp.nf(cusp.ring.var(v))


def test_regular_rep_trivial_group(cusp, ring):
    triv = close_group([], ring, CLOSURE_BOUND)
    amb = regular_rep_embedding(cusp, triv)
    assert len(amb.pres.gens) == 1
    assert amb.pres.certificate.regular


def test_regular_rep_translation_line():
    r = PolyRing(GF(2), ["x"])
    line = AffinePresentation.build(r, [])
    g = close_group([{"x": r.var("x") + 1}], r, CLOSURE_BOUND)
    amb = choose_ambient(line, g, "auto")
    assert amb.kind == "regular"
    assert [canonical_render(f) for f in amb.pres.gens] == ["x_g1 + x_g0 + 1"]
    assert amb.pres.certificate.quotient_dimension == 1


GRAPH_CASES = {
    "trans_f3": (ROOT / "bench/problems/trans_f3.prob").read_text(),
    "line_f2": (ROOT / "problems/line_f2.prob").read_text(),
    "cusp_q": (ROOT / "problems/cusp_q.prob").read_text(),
    "node_f2": (ROOT / "problems/node_f2.prob").read_text(),
    "parabola_q": "field Q\nvars x y\nideal: y - x^2\ngen s: x -> -x\n",
    "trivial_group": "field Q\nvars x y\nideal: y^2 - x^3\n",
    "empty_ideal": "field F 2\nvars x y\nideal:\ngen t: x -> y + 1, y -> x\n",
}


def _forced_regular_ambient(text: str, kind: str):
    """The regular ambient of a problem, with the monomial order kind."""
    prob = parse_problem(text)
    ring = PolyRing(prob.field, prob.variables, MonomialOrder(kind))

    def move(f):
        return ring.from_terms(f.terms)

    pres = AffinePresentation.build(ring, [move(c[0]) for c in prob.ideal])
    maps = [{v: move(img) for v, img in m.items()} for _, m in prob.group_maps]
    return regular_rep_embedding(pres, close_group(maps, ring, CLOSURE_BOUND))


@pytest.mark.parametrize("kind", ["grevlex", "lex"])
@pytest.mark.parametrize("name", sorted(GRAPH_CASES))
def test_regular_ambient_is_a_graph(name, kind):
    """The closed-form basis, certificate and stability of the regular
    ambient agree with Buchberger, the dimension count and the stability
    check run in the big ring."""
    amb = _forced_regular_ambient(GRAPH_CASES[name], kind)
    assert amb.kind == "regular"
    assert amb.pres.gb == buchberger(amb.pres.gens, amb.ring)
    assert amb.pres.certificate == is_regular_sequence(amb.pres.gens, amb.ring)
    assert verify_stability(amb.pres.gb, amb.action)
    # the standard monomials are those of the original presentation in X_{.,0}
    n = amb.origin.ring.nvars
    embedded = [m + (0,) * (amb.ring.nvars - n)
                for m in amb.origin.std_monomials_upto(3)]
    assert amb.pres.std_monomials_upto(3) == embedded
    if (name, kind) == ("parabola_q", "lex"):
        # NF(y) = x^2: the graph generator of y leads with a degree-2 tail
        assert max(g.degree() for g in amb.pres.gb.generators) == 2


def test_choose_ambient_policy(ring, cusp, sign):
    x, y = ring.gens()
    # tame: original kept
    assert choose_ambient(cusp, sign, "auto").kind == "original"
    # already regular-representation shaped: original kept even in char 2
    r2 = PolyRing(GF(2), ["x", "y"])
    node2 = AffinePresentation.build(r2, [r2.var("x") * r2.var("y")])
    sw2 = close_group([{"x": r2.var("y"), "y": r2.var("x")}], r2, CLOSURE_BOUND)
    assert choose_ambient(node2, sw2, "auto").kind == "original"
    # wild and not G-FL: regular representation
    r1 = PolyRing(GF(2), ["x"])
    line = AffinePresentation.build(r1, [])
    g1 = close_group([{"x": r1.var("x") + 1}], r1, CLOSURE_BOUND)
    assert choose_ambient(line, g1, "auto").kind == "regular"
    assert choose_ambient(cusp, sign, mode="regular").kind == "regular"


def _span_dim(field, coords, vectors) -> int:
    span = SpanBuilder(field)
    for v in vectors:
        span.add(coords.row(v))
    return span.dim


def test_derivations_cusp(ring, cusp, sign):
    x, y = ring.gens()
    amb = original_ambient(cusp, sign)
    invariant = oracles.slice_derivations(amb, 1)
    assert derivations(amb, 1) == len(invariant)
    # each basis vector is an invariant derivation of B
    for d in invariant:
        assert all(p.is_zero() for p in normal_image(amb, d))
        assert oracles.derivation_act(amb, 1, d) == d
    # the Euler derivation is invariant and lies in the degree <= 1 slice
    euler = (2 * x, 3 * y)
    assert oracles.derivation_act(amb, 1, euler) == euler
    assert all(p.is_zero() for p in normal_image(amb, euler))
    coords = _SliceCoordinates()
    assert _span_dim(ring.field, coords, invariant + [euler]) == \
        _span_dim(ring.field, coords, invariant) == len(invariant)


def test_derivations_smooth_line():
    r = PolyRing(QQ, ["t"])
    line = AffinePresentation.build(r, [])
    amb = original_ambient(line, close_group([], r, CLOSURE_BOUND))
    assert oracles.slice_derivations(amb, 0) == [(r.one,)]
    assert oracles.slice_derivations(amb, 1) == [(r.one,), (r.var("t"),)]
    assert (derivations(amb, 0), derivations(amb, 1)) == (1, 2)


def test_derivation_slice_reynolds_cross_check(ring, cusp, sign):
    """Invariant slice dimension: Reynolds projection of the full tangent
    slice (over the trivial group) vs the direct solver."""
    amb = original_ambient(cusp, sign)
    plain = original_ambient(cusp, close_group([], ring, CLOSURE_BOUND))
    field = ring.field
    for degree in (2, 3):
        full = oracles.slice_derivations(plain, degree)
        inv = oracles.slice_derivations(amb, degree)
        assert (derivations(plain, degree), derivations(amb, degree)) == (len(full), len(inv))
        projected = []
        for d in full:
            total = (ring.zero, ring.zero)
            for i in sign.indices():
                total = tuple(a + b for a, b in
                              zip(total, oracles.derivation_act(amb, i, d)))
            projected.append(tuple(cusp.nf(c * field.fraction(1, 2))
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
        assert oracles.derivation_act(amb, 1, v) == v


@pytest.mark.parametrize("name,degree", [
    (name, degree) for name in ("klein_f2", "d4_f2", "cubic_q", "trans_f3")
    for degree in (1, 2)])
@pytest.mark.parametrize("tangent", [False, True])
def test_invariant_slice_matches_the_all_elements_oracle(name, degree, tangent):
    """Invariance imposed by the generators only gives the same basis as
    invariance under every s != e, and the same T^0_G slice (tangent=True,
    where ``derivations`` counts it and ``oracles.slice_derivations``
    returns another basis of the same space); each
    group here has fewer generators than nonidentity elements (trans_f3
    through its regular ambient)."""
    text = (ROOT / "bench" / "problems" / f"{name}.prob").read_text(encoding="utf-8")
    amb = Workspace(parse_problem(text)).ambient
    assert len(amb.action.generators) < len(amb.action) - 1
    assert (name == "trans_f3") == (amb.kind == "regular")
    expected = oracles.invariant_vector_slice(amb, degree, tangent)
    if not tangent:
        assert ambient_vector_slice(amb, degree) == expected
        return
    basis = oracles.slice_derivations(amb, degree)
    assert derivations(amb, degree) == len(basis) == len(expected)
    new, old = oracles.row_space(amb.ring.field, [basis, expected])
    assert new == old


# regular ambients (the translation fixes no variable orbit and |G| = 3 = p)
# whose twist matrices have non-constant entries; adding z^3 - z makes
# B finite, so a product with such an entry needs a reduction
NONCONSTANT_TWIST = {
    "nonconstant_twist": "field F 3\nvars x y z\nideal: x; y + x*z^2\ngen s: z -> z + 1\n",
    "nonconstant_twist_finite":
        "field F 3\nvars x y z\nideal: x; y + x*z^2; z^3 - z\ngen s: z -> z + 1\n",
}
ACTION_CASES = {
    f"{path.parent.name}/{path.stem}": path.read_text(encoding="utf-8")
    for path in sorted((ROOT / "problems").glob("*.prob"))
    + sorted((ROOT / "bench" / "problems").glob("*.prob"))}
ACTION_CASES.update(NONCONSTANT_TWIST)


def _random_vector(rng, amb, length):
    """Components of up to three terms of degree <= 2, half of them
    standard monomials and half arbitrary ones (mostly not normal)."""
    ring = amb.ring
    pools = (amb.pres.std_monomials_upto(2), oracles.monomials_upto(ring, 2))
    out = []
    for _ in range(length):
        terms = {}
        for _ in range(rng.randrange(4)):
            pool = pools[rng.randrange(2)]
            terms[pool[rng.randrange(len(pool))]] = ring.field.of(rng.randrange(1, 7))
        out.append(Polynomial(ring, {m: c for m, c in terms.items() if c}))
    return tuple(out)


@pytest.mark.parametrize("name", [*ACTION_CASES, "parabola_q_lex"])
def test_actions_by_linearity_match_the_direct_formulas(name):
    """The normal-module action and amb.image, computed from the memo of
    monomial images, equal substituting and reducing the whole sum, for
    every element on random vectors; so does the derivation action of
    each generator on x^m e_i read as column i of the cached inverse
    linear part times NF(g(x^m)).  Over the 14 shipped and bench
    problems, the non-constant twists and a lex ambient."""
    if name == "parabola_q_lex":
        amb = _forced_regular_ambient(GRAPH_CASES["parabola_q"], "lex")
    else:
        amb = Workspace(parse_problem(ACTION_CASES[name])).ambient
    assert len(ACTION_CASES) == 14 + len(NONCONSTANT_TWIST)
    if name in NONCONSTANT_TWIST:
        assert amb.kind == "regular" and amb.rank >= 8
        assert any(isinstance(e, Polynomial) for rows in amb.twist_images
                   for row in rows for _, e in row)
    N = NormalModule(amb)
    rng = random.Random(sum(map(ord, name)))
    for _ in range(3):
        psi = _random_vector(rng, amb, amb.rank)
        D = _random_vector(rng, amb, amb.ring.nvars)
        for i in amb.action.indices():
            assert N.act(i, psi) == oracles.normal_module_act(amb, i, psi)
            for p in psi + D:
                assert amb.image(i, p) == amb.pres.nf(amb.action.apply(i, p))
    ring, monos = amb.ring, amb.pres.std_monomials_upto(2)
    for g, columns in amb.inverse_linear_columns.items():
        for i, column in enumerate(columns):
            m = rng.choice(monos)
            acted = [ring.zero] * ring.nvars
            for r, c in column:
                acted[r] = amb._monomial_image(g, m) * c
            unit = tuple(ring.monomial(m) if k == i else ring.zero for k in range(ring.nvars))
            assert tuple(acted) == oracles.derivation_act(amb, g, unit)


S3_SYM_F2 = ("field F 2\nvars x y z\nideal: x*y + y*z + z*x\n"
             "gen r: x -> y, y -> z, z -> x\ngen s: x -> y, y -> x\n")


@pytest.mark.parametrize("name", [*ACTION_CASES, "parabola_q_lex", "s3_sym_f2"])
def test_twist_images_off_the_tree_match_the_division_at_every_element(name):
    """A_i = sigma_i(T_{sigma_i^-1}) mod I, read off the Cayley tree from
    the divisions at the generators' inverses, equals dividing at every
    element and substituting: on the 14 shipped and bench problems, the
    non-constant twists, a lex ambient and S3 through its regular
    ambient of 18 variables, where the tree goes two edges deep."""
    if name == "parabola_q_lex":
        amb = _forced_regular_ambient(GRAPH_CASES["parabola_q"], "lex")
    else:
        amb = Workspace(parse_problem(S3_SYM_F2 if name == "s3_sym_f2"
                                      else ACTION_CASES[name])).ambient
    if name == "s3_sym_f2":
        assert amb.kind == "regular" and amb.ring.nvars == 18
        assert any(a != amb.action.identity_index for a, _, _ in amb.action.tree)
    for i in amb.action.indices():
        assert amb.twist_images[i] == oracles.twist_image_rows(amb, i)


@pytest.mark.parametrize("name,calls", [("trans_f3", 5), ("klein_f2", 2), ("d4_f2", 2)])
def test_the_twists_divide_once_per_generator_inverse_and_polynomial(
        monkeypatch, name, calls):
    """Building every twist image divides each s^-1(f_j) once, s a
    generator: |S| c calls of Representer.express, the rows keyed by
    the index of s^-1."""
    amb = Workspace(parse_problem(ACTION_CASES[f"problems/{name}"])).ambient
    counted = []
    express = eqdeform.groebner.Representer.express
    monkeypatch.setattr(eqdeform.groebner.Representer, "express",
                        lambda self, h: counted.append(h) or express(self, h))
    amb.twist_images
    generators = amb.action.generators
    assert len(counted) == len(generators) * amb.rank == calls
    assert sorted(amb.twists) == sorted(map(amb.action.inv, generators))


class _CountingMemo(dict):
    """A memo that counts how often an entry is stored."""

    def __init__(self):
        super().__init__()
        self.fills = 0

    def __setitem__(self, key, value):
        self.fills += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("argv,code", [
    (["obstruction", "bench/problems/klein_f2.prob", "--truncate", "2"], 2),
    (["tangent", "bench/problems/trans_f3.prob", "--truncate", "3"], 0)])
def test_each_monomial_image_is_computed_once(monkeypatch, capsys, argv, code):
    """Through the CLI, every (element, monomial) normal form is stored
    exactly once in the one memo of the operation's ambient."""
    memos = []

    def counting(self):
        memos.append(_CountingMemo())
        return memos[-1]

    memo = cached_property(counting)
    memo.__set_name__(EquivariantAmbient, "monomial_images")
    monkeypatch.setattr(EquivariantAmbient, "monomial_images", memo)
    monkeypatch.chdir(ROOT)
    assert main(argv) == code
    capsys.readouterr()
    (memo,) = memos
    assert len(memo) > 0
    assert memo.fills == len(memo)


def test_a_new_workspace_starts_with_an_empty_memo():
    """The memo lives on its ambient: a second workspace on the same file
    acts from scratch."""
    text = (ROOT / "bench" / "problems" / "klein_f2.prob").read_text(encoding="utf-8")
    first = Workspace(parse_problem(text)).ambient
    derivations(first, 2)
    assert first.monomial_images
    second = Workspace(parse_problem(text)).ambient
    assert second.monomial_images == {}
