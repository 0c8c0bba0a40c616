import copy
import random
from pathlib import Path

import pytest

from eqdeform import deform
from eqdeform.ambient import (
    AffinePresentation,
    NormalModule,
    choose_ambient,
    derivations,
    normal_image,
    regular_rep_embedding,
)
from eqdeform.cli import Workspace
from eqdeform.cohomology import GModuleSlice
from eqdeform.deform import (
    Deformation,
    DeformationError,
    DifferenceClass,
    EpsPoly,
    apply_flow,
    certify_equivariance,
    default_truncation,
    difference_class,
    equivariantize,
    ideal_equal,
    invariant_normal_slice,
    isomorphism_witness,
    lift_step,
    obstruction_cocycle,
    obstruction_space,
    shift_lift,
    tangent_spaces,
    verify_deformation,
)
from eqdeform.fields import GF, QQ
from eqdeform.gaction import GroupAction, close_group
from eqdeform.groebner import Representer
from eqdeform.poly import PolyRing, canonical_render
from eqdeform.problem import parse_problem

from conftest import verified
from oracles import (
    DenseEpsPoly,
    cocycle_identity_holds,
    eps_coeffs,
    eps_mul,
    flow_by_substitution,
    monomials_upto,
    slice_derivations,
    truncate,
)

ROOT = Path(__file__).resolve().parents[1]


def make_case(field, gens_text, group_images):
    names = ["x", "y"]
    ring = PolyRing(field, names)
    from eqdeform.poly import parse_polynomial

    gens = [parse_polynomial(ring, s) for s in gens_text]
    maps = [{v: parse_polynomial(ring, img) for v, img in m.items()}
            for m in group_images]
    p = AffinePresentation.build(ring, gens)
    g = close_group(maps, ring=ring)
    amb = choose_ambient(p, g)
    return p, g, amb


@pytest.fixture
def cusp_q():
    return make_case(QQ, ["y^2 - x^3"], [{"y": "-y"}])


@pytest.fixture
def node_q():
    return make_case(QQ, ["x*y"], [{"x": "y", "y": "x"}])


@pytest.fixture
def node_f2():
    return make_case(GF(2), ["x*y"], [{"x": "y", "y": "x"}])


def test_eps_poly_arithmetic():
    ring = PolyRing(QQ, ["x"])
    x = ring.var("x")
    a = EpsPoly(ring, 2, [x, ring.one])
    b = EpsPoly(ring, 2, [ring.one, x])
    prod = eps_mul(a, b)
    assert prod.coeff(0) == x
    assert prod.coeff(1) == x * x + 1
    assert prod.coeff(2) == x
    assert (a - a).is_zero()
    assert truncate(a, 0).coeff(0) == x
    assert a.lift(3).coeff(3).is_zero()


@pytest.mark.parametrize("seed", range(60))
def test_eps_poly_stores_no_zero_and_matches_the_dense_reference(seed):
    """Seeded eps-polynomials over F2, F3 and Q, with zero and cancelling
    coefficients: after +, -, shift, truncate and lift no stored
    coefficient is zero, and coeff, equality and repr agree with the
    dense reference."""
    rng = random.Random(seed)
    ring = PolyRing((GF(2), GF(3), QQ)[seed % 3], ["x", "y"])
    monos = monomials_upto(ring, 2)

    def draw(order):
        coeffs = [sum((ring.monomial(rng.choice(monos), rng.choice((1, -1, 2)))
                       for _ in range(rng.randint(0, 2))), ring.zero)
                  for _ in range(rng.randint(0, order + 2))]
        return EpsPoly(ring, order, coeffs), DenseEpsPoly(ring, order, coeffs)

    def agree(sparse, dense):
        assert all(sparse.terms.values()) and max(sparse.terms, default=0) <= sparse.order
        assert sparse.order == dense.order
        assert [sparse.coeff(t) for t in range(dense.order + 2)] == \
            [dense.coeff(t) for t in range(dense.order + 2)]
        assert repr(sparse) == repr(dense)

    order = rng.randint(0, 5)
    (a, da), (b, db) = draw(order), draw(order)
    agree(a, da)
    t, low, high = rng.randint(0, order + 1), rng.randint(0, order), order + rng.randint(0, 3)
    for sparse, dense in ((a + b, da + db), (a - b, da - db), (a - a, da - da),
                          (a + b - b, da + db - db), (a.shift(t), da.shift(t)),
                          (truncate(a, low), da.truncate(low)), (a.lift(high), da.lift(high))):
        agree(sparse, dense)
    assert (a == b) == (da == db)
    assert a + b - b == a and (a - a).is_zero() and not (a - a).terms
    assert (truncate(a, low) == truncate(b, low)) == (da.truncate(low) == db.truncate(low))


def test_tangent_cusp(cusp_q):
    p, g, amb = cusp_q
    rep = tangent_spaces(amb)
    assert rep.t1.dimension == 2
    assert [canonical_render(v[0]) for v in rep.t1_basis_vectors] == ["1", "x"]
    assert rep.t1_equivariant_dim == 2
    assert rep.certified == "exact"
    obs = obstruction_space(amb)
    assert obs.dimension == 0 and obs.certified == "exact"


def test_tangent_node(node_q):
    p, g, amb = node_q
    rep = tangent_spaces(amb)
    assert rep.t1.dimension == 1
    assert rep.t1_equivariant_dim == 1


def test_tangent_smooth_line_trivial_group():
    ring = PolyRing(QQ, ["t"])
    p = AffinePresentation.build(ring, [])
    g = close_group([], ring=ring)
    rep = tangent_spaces(choose_ambient(p, g))
    assert rep.t1.dimension == 0 and rep.t1_equivariant_dim == 0


def test_infinite_t1_reported():
    # non-isolated singularity: B = Q[x,y]/(x^2) has infinite T^1
    ring = PolyRing(QQ, ["x", "y"])
    x, y = ring.gens()
    p = AffinePresentation.build(ring, [x**2])
    g = close_group([], ring=ring)
    rep = tangent_spaces(choose_ambient(p, g), trunc=3)
    assert not rep.t1.finite
    assert rep.t1.dimension is None
    assert rep.certified == "slice:3"


def test_lift_node_to_order_two(node_q):
    p, g, amb = node_q
    d = Deformation.initial(amb)
    for _ in range(2):
        out = lift_step(d)
        assert out.success
        d = out.deformation
    assert d.order == 2
    assert verified(d)


def test_difference_class_axioms(cusp_q):
    p, g, amb = cusp_q
    ring = amb.ring
    x, y = ring.gens()
    d1 = lift_step(Deformation.initial(amb)).deformation
    nu_x = DifferenceClass(amb, (x,))
    nu_1 = DifferenceClass(amb, (ring.one,))
    d2 = shift_lift(d1, nu_x)
    d3 = shift_lift(d1, nu_1)
    # (i) zero iff equal ideals
    assert difference_class(d1, d1).is_zero()
    assert ideal_equal(d1, d1)
    assert not difference_class(d1, d2).is_zero()
    assert not ideal_equal(d1, d2)
    # (ii) additivity and (iii) antisymmetry
    assert difference_class(d1, d2) + difference_class(d2, d3) == \
        difference_class(d1, d3)
    assert difference_class(d2, d1) == -difference_class(d1, d2)
    # (iv) round trip
    assert difference_class(d1, d2) == nu_x


def test_shift_lift_examples(cusp_q):
    p, g, amb = cusp_q
    ring = amb.ring
    d1 = lift_step(Deformation.initial(amb)).deformation
    shifted = shift_lift(d1, DifferenceClass(amb, (ring.one,)))
    assert repr(shifted.gens[0]) == "-x^3 + y^2 + eps*(-1)"
    assert verified(shifted)
    zero = shift_lift(d1, DifferenceClass(amb, (ring.zero,)))
    assert zero.gens == d1.gens


def test_iso_witness_cusp(cusp_q):
    p, g, amb = cusp_q
    ring = amb.ring
    x, y = ring.gens()
    d1 = lift_step(Deformation.initial(amb)).deformation
    d2 = shift_lift(d1, DifferenceClass(amb, (x,)))
    # x is a nonzero T^1_G class: no witness at generous slices
    assert isomorphism_witness(d1, d2, trunc=6) is None
    # identity: zero witness
    w0 = isomorphism_witness(d1, d1)
    assert w0 is not None and w0.is_zero()
    # a substitution flow is always realized by a witness
    flowed = apply_flow(d1, (ring.one, ring.zero))
    w = isomorphism_witness(d1, flowed)
    assert w is not None
    assert DifferenceClass(amb, normal_image(amb, w.components)) == \
        difference_class(d1, flowed)


def test_mu_additivity_via_flows(node_q):
    p, g, amb = node_q
    ring = amb.ring
    x, y = ring.gens()
    d1 = lift_step(Deformation.initial(amb)).deformation
    flow1 = (x, y)   # invariant under swap
    flow2 = (y, x)   # invariant under swap (conjugate pair)
    d2 = apply_flow(d1, flow1)
    d3 = apply_flow(d2, flow2)
    nu12 = difference_class(d1, d2)
    nu23 = difference_class(d2, d3)
    nu13 = difference_class(d1, d3)
    assert nu12 + nu23 == nu13
    w12 = isomorphism_witness(d1, d2)
    w23 = isomorphism_witness(d2, d3)
    w13 = isomorphism_witness(d1, d3)
    assert w12 is not None and w23 is not None and w13 is not None
    img = lambda w: DifferenceClass(amb, normal_image(amb, w.components))
    assert img(w12) + img(w23) == img(w13)


def test_omega_cocycle_node_f2(node_f2):
    p, g, amb = node_f2
    ring = amb.ring
    x, y = ring.gens()
    d0 = Deformation.initial(amb)
    lift_gens = (EpsPoly(ring, 1, [x * y, x]),)
    c = obstruction_cocycle(d0, lift_gens)
    assert c.value(1) == (x + y,)
    assert cocycle_identity_holds(c)
    out = equivariantize(d0, lift_gens)
    assert out.success
    assert verified(out.deformation)
    # already equivariant lift comes back unchanged
    sym = (EpsPoly(ring, 1, [x * y, x + y]),)
    c2 = obstruction_cocycle(d0, sym)
    assert c2.is_zero()
    out2 = equivariantize(d0, sym)
    assert out2.success and out2.deformation.gens == sym


def test_omega_lift_independence(node_f2):
    p, g, amb = node_f2
    ring = amb.ring
    x, y = ring.gens()
    d0 = Deformation.initial(amb)
    from eqdeform.ambient import NormalModule

    N = NormalModule(amb)
    lift_a = (EpsPoly(ring, 1, [x * y, x]),)
    lift_b = (EpsPoly(ring, 1, [x * y, y**2]),)
    ca = obstruction_cocycle(d0, lift_a)
    cb = obstruction_cocycle(d0, lift_b)
    # F_b = F_a - eps*(x - y^2): the classes differ by the coboundary of nu
    nu = (amb.pres.nf(x - y**2),)
    for i in g.indices():
        if i == g.identity_index:
            continue
        delta = tuple(a - b for a, b in zip(cb.value(i), ca.value(i)))
        bound = tuple(a - b for a, b in zip(N.act(i, nu), nu))
        assert tuple(amb.pres.nf(a - b) for a, b in zip(delta, bound)) == \
            (ring.zero,)


def test_lift_obstructed_never_fires_on_tame(cusp_q, node_q):
    for (p, g, amb) in (cusp_q, node_q):
        d = Deformation.initial(amb)
        for _ in range(3):
            out = lift_step(d)
            assert out.success
            d = out.deformation
        assert verified(d)


def test_wild_node_search_for_obstructed_step(node_f2):
    """The obstruction space is nonzero, but does any small lift actually
    hit it?  Exhaust the order-1 equivariant lifts and try to lift each;
    the outcome is recorded, not asserted (none obstructs here)."""
    p, g, amb = node_f2
    outcomes = []
    for nu_vec in invariant_normal_slice(amb, 2):
        d1 = shift_lift(lift_step(Deformation.initial(amb)).deformation,
                        DifferenceClass(amb, nu_vec))
        out = lift_step(d1)
        outcomes.append(out.success)
    print(f"wild node order-1 -> order-2 lifts: {outcomes.count(True)} ok, "
          f"{outcomes.count(False)} obstructed")
    assert all(isinstance(b, bool) for b in outcomes)


def test_verify_deformation_failures(node_q):
    p, g, amb = node_q
    ring = amb.ring
    x, y = ring.gens()
    # hand-made non-equivariant lift fails the equivariance check
    bad = Deformation(amb, 1, (EpsPoly(ring, 1, [x * y, x]),))
    with pytest.raises(DeformationError,
                       match=r"^equivariance: eps\^1 coefficient is not in the base ideal$"):
        verify_deformation(bad)
    assert not verified(bad)
    # wrong generator list fails at construction
    with pytest.raises(DeformationError):
        Deformation(amb, 0, (EpsPoly.constant(ring, 0, x),))


def test_enumeration_matches_cusp_example(cusp_q):
    p, g, amb = cusp_q
    d1 = lift_step(Deformation.initial(amb)).deformation
    rep = tangent_spaces(amb)
    rendered = {repr(d1.gens[0])}
    from itertools import combinations

    basis = rep.t1_equivariant_basis
    for r in range(1, len(basis) + 1):
        for combo in combinations(range(len(basis)), r):
            vec = tuple(sum((basis[i][j] for i in combo), amb.ring.zero)
                        for j in range(1))
            rendered.add(repr(shift_lift(d1, DifferenceClass(amb, vec)).gens[0]))
    assert rendered == {
        "-x^3 + y^2",
        "-x^3 + y^2 + eps*(-1)",
        "-x^3 + y^2 + eps*(-x)",
        "-x^3 + y^2 + eps*(-x - 1)",
    }


RANDOM_CASES = [
    (QQ, ["x*y"], [{"x": "y", "y": "x"}]),
    (QQ, ["y^2 - x^3"], [{"y": "-y"}]),
    (QQ, ["x^2 - y^3"], [{"x": "-x"}]),
    (QQ, ["x^2", "y^2"], [{"x": "y", "y": "x"}]),
    (GF(3), ["x*y"], [{"x": "y", "y": "x"}]),
    (GF(3), ["y^2 - x^3"], [{"y": "-y"}]),
    (GF(3), ["x^2 - y^3"], [{"x": "-x"}]),
    (GF(3), ["x^2", "y^2"], [{"x": "y", "y": "x"}]),
]


def random_invariant_vector(amb, slice_vectors, rng):
    field = amb.ring.field
    vec = tuple(amb.ring.zero for _ in range(len(amb.pres.gens)))
    for v in slice_vectors:
        if rng.randrange(2):
            vec = tuple(a + b for a, b in zip(vec, v))
    return vec


def test_randomized_torsor_and_cocycle_suite():
    """Difference-class axioms, witness behaviour and the cocycle identity
    on randomized lifts over Q and F_3 (the acceptance criterion 5 core)."""
    rng = random.Random(99)
    instances = 0
    for field, gens_text, group_images in RANDOM_CASES:
        p, g, amb = make_case(field, gens_text, group_images)
        slice_vecs = invariant_normal_slice(amb, 2)
        base = Deformation.initial(amb)
        d_canonical = lift_step(base).deformation
        for _ in range(3):
            nu_a = DifferenceClass(amb, random_invariant_vector(amb, slice_vecs, rng))
            nu_b = DifferenceClass(amb, random_invariant_vector(amb, slice_vecs, rng))
            d1 = shift_lift(d_canonical, nu_a)
            d2 = shift_lift(d_canonical, nu_b)
            # torsor axioms
            assert difference_class(d1, d1).is_zero()
            n12 = difference_class(d1, d2)
            assert n12 == -difference_class(d2, d1)
            d3 = shift_lift(d1, n12)
            assert difference_class(d1, d3) == n12
            assert ideal_equal(d2, d3) == difference_class(d2, d3).is_zero()
            assert difference_class(d1, d2) + difference_class(d2, d3) == \
                difference_class(d1, d3)
            instances += 1
        # omega: random non-equivariant lifts carry exact cocycles
        monos = amb.pres.std_monomials_upto(2)
        for _ in range(2):
            ring = amb.ring
            order = d_canonical.order + 1
            lift_gens = []
            for ge in d_canonical.gens:
                noise = ring.monomial(monos[rng.randrange(len(monos))],
                                       ring.field.of(rng.randrange(1, 3)))
                lift_gens.append(ge.lift(order) +
                                 EpsPoly.constant(ring, order, noise).shift(order))
            c = obstruction_cocycle(d_canonical, tuple(lift_gens))
            assert cocycle_identity_holds(c)
            out = equivariantize(d_canonical, tuple(lift_gens))
            if amb.action.is_tame():
                assert out.success
                assert verified(out.deformation)
            instances += 1
    assert instances >= 40


def test_equivariantize_trivial_group():
    ring = PolyRing(QQ, ["x", "y"])
    x, y = ring.gens()
    p = AffinePresentation.build(ring, [y**2 - x**3])
    g = close_group([], ring=ring)
    amb = choose_ambient(p, g)
    d = Deformation.initial(amb)
    lift = (EpsPoly(amb.ring, 1, [y**2 - x**3, x * y]),)
    out = equivariantize(d, lift)
    assert out.success and out.deformation.gens == lift


def test_truncation_is_a_deformation(cusp_q):
    p, g, amb = cusp_q
    d = Deformation.initial(amb)
    for _ in range(3):
        d = lift_step(d).deformation
    d = shift_lift(d, DifferenceClass(amb, (amb.ring.var("x"),)))
    for t in range(d.order):
        lower = Deformation(amb, t, [truncate(g, t) for g in d.gens])
        assert verified(lower)


def test_automorphism_flows_fix_the_lift(cusp_q, node_q):
    """Flows along invariant derivations (the infinitesimal automorphisms)
    carry a lift to itself; the automorphism group is the T0_G slice."""
    for p, g, amb in (cusp_q, node_q):
        t0 = slice_derivations(amb, 3)
        assert derivations(amb, 3) == len(t0)
        d = lift_step(Deformation.initial(amb)).deformation
        assert t0, "expected invariant derivations"
        for tangent_vec in t0:
            moved = apply_flow(d, tangent_vec)
            assert ideal_equal(moved, d)
            # each flow substitution is invertible: the reverse flow undoes it
            back = apply_flow(moved, tuple(-p for p in tangent_vec))
            assert ideal_equal(back, d)


def test_cocycle_identity_with_nonconstant_twist(cusp_q):
    """The standard-form defect cocycle satisfies its identity even when
    the twist matrices have polynomial entries (regular-representation
    ambient of the cusp)."""
    p, g, amb0 = cusp_q
    big = regular_rep_embedding(p, g)
    ring = big.ring
    rng = random.Random(77)
    d = lift_step(Deformation.initial(big)).deformation
    monos = big.pres.std_monomials_upto(2)
    for _ in range(2):
        order = d.order + 1
        lift_gens = []
        for ge in d.gens:
            noise = ring.monomial(monos[rng.randrange(len(monos))],
                                  ring.field.of(rng.randrange(1, 4)))
            lift_gens.append(ge.lift(order) +
                             EpsPoly.constant(ring, order, noise).shift(order))
        c = obstruction_cocycle(d, tuple(lift_gens))
        assert cocycle_identity_holds(c)
        out = equivariantize(d, tuple(lift_gens), trunc=2)
        assert out.success  # tame: correction always exists
        assert verified(out.deformation)


def test_regular_rep_lifting_matches_small(cusp_q):
    """Lifting through the regular-representation ambient stays unobstructed
    and reports the same T^1_G (tame ambient independence at work)."""
    p, g, amb = cusp_q
    big = regular_rep_embedding(p, g)
    d = Deformation.initial(big)
    out = lift_step(d)
    assert out.success
    assert verified(out.deformation)
    small_rep = tangent_spaces(amb)
    big_rep = tangent_spaces(big)
    assert small_rep.t1_equivariant_dim == big_rep.t1_equivariant_dim


def workspace(path):
    return Workspace(parse_problem((ROOT / path).read_text()))


def file_deformation(path):
    ws = workspace(path)
    return ws.deformation(ws.problem, ws.problem.eps_order)


def test_lift_steps_express_only_to_build_the_twists(monkeypatch):
    """Each equivariance division starts from s^-1(F_j) - sum_l T[j][l] F_l
    with T the twist cofactors, whose eps^0 coefficient is zero, and
    every coefficientwise lift of trans_f3 is equivariant, so ten lift
    steps call Representer.express only for the twist build: once per
    generator inverse and generator polynomial."""
    amb = workspace("bench/problems/trans_f3.prob").ambient
    calls = []
    express = Representer.express
    monkeypatch.setattr(Representer, "express",
                        lambda self, h: calls.append(h) or express(self, h))
    d = Deformation.initial(amb)
    for _ in range(10):
        out = lift_step(d)
        assert out.success
        d = out.deformation
    assert 0 < len(calls) <= len(amb.action.generators) * len(amb.pres.gens)


def test_lift_steps_divide_only_their_new_stage(monkeypatch):
    """A lift step divides its new order only: the stages below are
    carried in the deformation's certificate.  klein_twist_f2's lift has
    nonzero residuals at every order, yet each step from order 2 to 40
    calls Representer.express at most 2 |S| c times outside the
    coboundary solve (one new stage per generator inverse and generator,
    and one more after a correction), not once per stage below."""
    d = file_deformation("bench/problems/klein_twist_f2.prob")
    amb = d.amb
    d = lift_step(d, trunc=2).deformation
    calls, paused = [], []
    express = Representer.express
    monkeypatch.setattr(Representer, "express", lambda self, h: paused
                        or calls.append(h) or express(self, h))

    def paused_during(fn):
        def wrapper(*args, **kwargs):
            paused.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                paused.pop()
        return wrapper

    for name in ("slice_of_normal_module", "solve_coboundary"):
        monkeypatch.setattr(deform, name, paused_during(getattr(deform, name)))
    bound = 2 * len(amb.action.generators) * len(amb.pres.gens)
    per_step = []
    while d.order < 40:
        before = len(calls)
        out = lift_step(d, trunc=2)
        assert out.success
        d = out.deformation
        per_step.append(len(calls) - before)
    assert max(per_step) <= bound
    assert sum(per_step) <= bound * 38 < 1646


@pytest.mark.parametrize("path,defect", [("bench/problems/klein_twist_f2.prob", True),
                                         ("problems/cusp_lift_x.prob", False)])
def test_lifting_leaves_its_base_deformation_unchanged(path, defect):
    """Lifts, shifts and flows build a new deformation and assign
    nothing to the certified one they start from: its attributes are
    the same objects afterwards, and its stage rows the same values.
    klein_twist_f2's coefficientwise lift from order 1 is not
    equivariant, so there equivariantize corrects it."""
    d = file_deformation(path)
    amb = d.amb
    lift_gens = tuple(g.lift(d.order + 1) for g in d.gens)
    assert obstruction_cocycle(d, lift_gens).is_zero() != defect
    (flow, *_) = slice_derivations(amb, 2)
    (nu, *_) = invariant_normal_slice(amb, 2)
    steps = [
        lambda: lift_step(d, trunc=2),
        lambda: equivariantize(d, lift_gens, trunc=2),
        lambda: obstruction_cocycle(d, lift_gens),
        lambda: shift_lift(d, DifferenceClass(amb, nu)),
        lambda: apply_flow(d, flow),
    ]
    # the copied rows stay over the ambient ring
    attributes, quotients = dict(vars(d)), copy.deepcopy(d.quotients, {id(amb.ring): amb.ring})
    for step in steps:
        step()
        assert vars(d).keys() == attributes.keys()
        assert all(vars(d)[name] is value for name, value in attributes.items())
        assert d.quotients == quotients


@pytest.mark.parametrize("kind,message", [
    ("count", "wrong number of lifted generators"),
    ("order", "generator order does not match the base"),
    ("below", r"generators differ from the deformation below eps\^2"),
])
@pytest.mark.parametrize("divide", [equivariantize, obstruction_cocycle])
def test_lifts_refuse_generators_that_do_not_lift_the_deformation(divide, kind, message):
    """Generators passed as a lift of an order-1 deformation must be as
    many as its generators, over eps order 2, and equal to its
    generators below eps^2."""
    d = file_deformation("problems/cusp_lift_x.prob")
    ring = d.amb.ring
    lift = [g.lift(2) for g in d.gens]
    bad = {
        "count": lift * 2,
        "order": [g.lift(3) for g in d.gens],
        "below": [g - EpsPoly.constant(ring, 2, ring.var("x")).shift(1) for g in lift],
    }[kind]
    with pytest.raises(DeformationError, match=message):
        divide(d, bad)


@pytest.mark.parametrize("path", ["bench/problems/trans_f3.prob",
                                  "problems/cusp_q.prob",
                                  "bench/problems/klein_twist_f2.prob"])
def test_group_never_acts_on_zero_coefficients(monkeypatch, path):
    """certify_equivariance and obstruction_cocycle act on the nonzero eps
    coefficients of order >= 1 only: never on eps^0 (the twist cofactors
    cancel it), never on a zero coefficient (here the one appended by a
    coefficientwise lift), never by the identity.  A noise term at
    eps^(m+1) gives the group something to act on."""
    d = file_deformation(path)
    amb = d.amb
    if d.order == 0:
        d = lift_step(d).deformation
    top = d.order + 1
    noise = EpsPoly.constant(amb.ring, top + 1, amb.ring.gens()[0]).shift(top)
    lift_gens = tuple(g.lift(top + 1) + noise for g in d.gens)
    handed, acted = [], []
    apply = GroupAction.apply
    monkeypatch.setattr(GroupAction, "apply", lambda self, i, f: acted.append(i)
                        or handed.append(f) or apply(self, i, f))
    try:
        certify_equivariance(amb, lift_gens)
    except DeformationError:
        pass  # the noise leaves the ideal at eps^(m+1)
    obstruction_cocycle(d, tuple(truncate(g, top) for g in lift_gens))
    higher = [c for g in lift_gens for c in eps_coeffs(g)[1:] if c]
    assert handed
    assert amb.action.identity_index not in acted
    assert not any(f.is_zero() for f in handed)
    assert not any(f == base for f in handed for base in amb.pres.gens)
    assert all(any(f == c for c in higher) for f in handed)


@pytest.mark.parametrize("path,steps,trunc", [
    ("bench/problems/trans_f3.prob", 8, None),
    ("bench/problems/klein_f2.prob", 8, None),
    ("problems/cusp_q.prob", 8, None),
    ("bench/problems/klein_twist_f2.prob", 1, 2),
])
def test_every_lift_step_passes_the_independent_check(path, steps, trunc):
    """verify_deformation re-runs the whole certificate, so a step that
    skipped a failing check would show here."""
    d = file_deformation(path)
    for _ in range(steps):
        out = lift_step(d, trunc=trunc)
        assert out.success
        assert verified(out.deformation)
        d = out.deformation


def test_certify_divides_once_per_generator_inverse(monkeypatch):
    """klein_f2 has one generator polynomial and two group generators, so
    a certificate is two divisions (calls of the one division routine,
    ``_divide``).  On the equivariant lift
    f + eps*(a + b + c + d) the group acts once per division, on the
    eps^1 coefficient: never on f, never by the identity."""
    amb = workspace("bench/problems/klein_f2.prob").ambient
    (f,) = amb.pres.gens
    invariant = sum(amb.ring.gens(), amb.ring.zero)
    gens = (EpsPoly(amb.ring, 1, [f, invariant]),)
    amb.twists  # divided at the generators' inverses once, before counting
    divided, acted, handed = [], [], []
    divide = deform._divide
    monkeypatch.setattr(deform, "_divide",
                        lambda *a: divided.append(a) or divide(*a))
    apply = GroupAction.apply
    monkeypatch.setattr(GroupAction, "apply", lambda self, i, p: acted.append(i)
                        or handed.append(p) or apply(self, i, p))
    certify_equivariance(amb, gens)
    assert len(amb.action.generators) == 2
    assert len(divided) == 2
    assert sorted(acted) == sorted(map(amb.action.inv, amb.action.generators))
    assert amb.action.identity_index not in acted
    assert handed == [invariant, invariant]


def test_tame_tangent_acts_by_the_generators_to_build_its_matrix(monkeypatch):
    """The tame route of tangent_spaces builds one action matrix per
    generator: until its GModuleSlice is built the normal module acts
    once per (generator, T^1 basis vector); only the averaging of the
    fixed vectors acts by every element."""
    amb = workspace("bench/problems/cubic_q.prob").ambient
    acted, built = [], []
    act, init = NormalModule.act, GModuleSlice.__init__
    monkeypatch.setattr(NormalModule, "act",
                        lambda self, i, vec: acted.append(i) or act(self, i, vec))
    monkeypatch.setattr(GModuleSlice, "__init__",
                        lambda self, *a: built.append(len(acted)) or init(self, *a))
    rep = tangent_spaces(amb)
    group = amb.action
    assert group.is_tame() and rep.certified == "exact"
    assert len(group) == 3 and group.generators == [1]
    (matrix_loop,) = built
    assert acted[:matrix_loop] == [1] * rep.t1_dim
    assert rep.t1_equivariant_dim
    assert acted[matrix_loop:] == list(group.indices()) * rep.t1_equivariant_dim


def _twisted_lift(amb, order, rng):
    """A lift U*F of the presentation with U = I + sum_t eps^t A_t and
    one nonzero entry per order in the A_t: equivariant, with nonzero
    eps coefficients."""
    ring, fs = amb.ring, amb.pres.gens
    coeffs = [[f] + [ring.zero] * order for f in fs]
    for t in range(1, order + 1):
        j = rng.randrange(len(fs))
        mono = rng.choice(monomials_upto(ring, 1))
        coeffs[j][t] = coeffs[j][t] + ring.monomial(mono) * rng.choice(fs)
    return Deformation(amb, order, [EpsPoly(ring, order, c) for c in coeffs])


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("path", ["problems/cusp_q.prob", "problems/node_f2.prob",
                                  "bench/problems/trans_f3.prob",
                                  "bench/problems/klein_f2.prob"])
def test_apply_flow_matches_the_substitution_on_t0_slices(path, order):
    """Every vector of the degree <= 2 slice of T^0_G, as a flow on a lift
    with nonzero eps coefficients: the Jacobian update equals the flow
    multiplied out in full."""
    amb = workspace(path).ambient
    d = _twisted_lift(amb, order, random.Random(order))
    flows = slice_derivations(amb, 2)
    assert derivations(amb, 2) == len(flows) > 0
    for D in flows:
        assert apply_flow(d, D).gens == flow_by_substitution(d, D)


@pytest.mark.parametrize("path", ["problems/cusp_q.prob", "problems/node_f2.prob",
                                  "bench/problems/trans_f3.prob",
                                  "bench/problems/klein_f2.prob"])
def test_shifts_and_flows_carry_a_division_from_stage_1(path):
    """apply_flow and shift_lift divide only the top stage of a lift with
    nonzero eps coefficients: the certificate they carry equals one from
    stage 1, for every flow of the degree <= 2 slice of T^0_G and the
    first invariant normal vectors of degree <= 2."""
    amb = workspace(path).ambient
    d = _twisted_lift(amb, 3, random.Random(3))
    verify_deformation(d)
    assert any(rows for row in d.quotients.values() for rows in row)
    for D in slice_derivations(amb, 2):
        moved = apply_flow(d, D)
        assert moved.quotients == certify_equivariance(amb, moved.gens)
    for nu in invariant_normal_slice(amb, 2)[:4]:
        shifted = shift_lift(d, DifferenceClass(amb, nu))
        assert shifted.quotients == certify_equivariance(amb, shifted.gens)


@pytest.mark.parametrize("seed", range(30))
def test_apply_flow_matches_the_substitution_on_seeded_flows(seed):
    """Seeded hypersurfaces over F2, F3 and Q under the trivial group,
    where every flow is equivariant: random lifts of orders 1-3 and
    random flow components of degree <= 2."""
    rng = random.Random(seed)
    ring = PolyRing((GF(2), GF(3), QQ)[seed % 3], ["x", "y", "z"][:rng.randint(1, 3)])

    def sparse(degree, terms):
        monos = monomials_upto(ring, degree)
        return sum((ring.monomial(rng.choice(monos), rng.choice((1, -1, 2)))
                    for _ in range(terms)), ring.zero)

    f = ring.zero
    while f.degree() < 1:
        f = sparse(3, 3)
    amb = choose_ambient(AffinePresentation.build(ring, [f]), close_group([], ring=ring))
    order = 1 + seed % 3
    d = Deformation(amb, order, [EpsPoly(ring, order, [amb.pres.gens[0]] + [
        sparse(2, 2) for _ in range(order)])])
    D = tuple(sparse(2, 2) for _ in ring.variables)
    assert apply_flow(d, D).gens == flow_by_substitution(d, D)


def test_flow_oracle_multiplies_out_the_square():
    """x -> x + eps^m on x^2 (+ eps*x) over Q[x]: the oracle's full
    product and apply_flow agree with the flow worked by hand."""
    ring = PolyRing(QQ, ["x"])
    x = ring.var("x")
    amb = choose_ambient(AffinePresentation.build(ring, [x**2]), close_group([], ring=ring))
    for coeffs, expected in (([x**2, ring.zero], [x**2, 2 * x]),
                             ([x**2, x, ring.zero], [x**2, x, 2 * x])):
        d = Deformation(amb, len(coeffs) - 1, [EpsPoly(ring, len(coeffs) - 1, coeffs)])
        (moved,) = flow_by_substitution(d, (ring.one,))
        assert eps_coeffs(moved) == expected
        assert apply_flow(d, (ring.one,)).gens == (moved,)


def test_apply_flow_needs_an_infinitesimal_order(cusp_q):
    p, g, amb = cusp_q
    with pytest.raises(DeformationError):
        apply_flow(Deformation.initial(amb), (amb.ring.one, amb.ring.zero))
