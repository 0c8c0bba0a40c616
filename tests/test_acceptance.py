"""Acceptance criteria, one test per criterion.

Every [DERIVED] golden value is recomputed by its independent oracle
inside the test before the pipeline answer is compared against it; all
equalities are exact.  Each criterion records a pass/fail line printed
in the terminal summary, with its runtime against the stated budget.
"""

import math
import random
import time
from itertools import combinations

from eqdeform.ambient import (
    AffinePresentation,
    choose_ambient,
    normal_image,
    regular_rep_embedding,
)
from eqdeform.deform import (
    Deformation,
    DifferenceClass,
    EpsPoly,
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
    apply_flow,
)
from eqdeform.fields import GF, QQ
from eqdeform.gaction import close_group
from eqdeform.groebner import buchberger, module_kernel, vec_from_polys
from eqdeform.linalg import solve
from eqdeform.poly import PolyRing, canonical_render, parse_polynomial, substitute
from eqdeform.ramify import TruncatedSeriesModule, local_ext1_invariants, tame_different

from conftest import record_criterion
from oracles import (
    F2SliceOracle,
    bounded_kernel_elements,
    bounded_membership,
    module_quotient_slice_dim,
    sparse,
)


class Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start


def make_case(field, gens_text, group_images, names=("x", "y")):
    ring = PolyRing(field, names)
    gens = [parse_polynomial(ring, s) for s in gens_text]
    maps = [{v: parse_polynomial(ring, img) for v, img in m.items()}
            for m in group_images]
    p = AffinePresentation.build(ring, gens)
    g = close_group(maps, ring=ring)
    return p, g, choose_ambient(p, g)


def test_criterion_1_cusp_tangent():
    """Cusp over Q with Z/2: T1 = 2 with basis {1, x}, T1_G = 2, obstruction 0."""
    with Timer() as t:
        ring = PolyRing(QQ, ["x", "y"])
        x, y = ring.gens()
        # independent oracle first: degree <= 4 coefficient solve
        oracle_t1 = module_quotient_slice_dim(
            ring, 1, [(3 * x**2,), (2 * y,)], [y**2 - x**3], 4
        )
        assert oracle_t1 == 2
        p, g, amb = make_case(QQ, ["y^2 - x^3"], [{"y": "-y"}])
        rep = tangent_spaces(amb)
        ok = (
            rep.t1.dimension == oracle_t1 == 2
            and [canonical_render(v[0]) for v in rep.t1_basis_vectors] == ["1", "x"]
            and rep.t1_equivariant_dim == 2
            and rep.certified == "exact"
        )
        # both basis classes are invariant under the twist action
        from eqdeform.ambient import NormalModule

        N = NormalModule(amb)
        for v in rep.t1_basis_vectors:
            ok = ok and N.act(1, v) == v
        obs = obstruction_space(amb)
        ok = ok and obs.dimension == 0 and obs.certified == "exact"
    record_criterion(1, "cusp tangent/obstruction golden values", ok, t.elapsed)
    assert ok
    assert t.elapsed < 1.0


def test_criterion_2_node_lift():
    """Node over Q with swap: T1_G = 1 and lift --order 2 succeeds stepwise."""
    with Timer() as t:
        ring = PolyRing(QQ, ["x", "y"])
        x, y = ring.gens()
        oracle_t1 = module_quotient_slice_dim(ring, 1, [(y,), (x,)], [x * y], 4)
        assert oracle_t1 == 1
        p, g, amb = make_case(QQ, ["x*y"], [{"x": "y", "y": "x"}])
        rep = tangent_spaces(amb)
        ok = rep.t1.dimension == oracle_t1 and rep.t1_equivariant_dim == 1
        d = Deformation.initial(amb)
        for _ in range(2):
            out = lift_step(d)
            ok = ok and out.success
            d = out.deformation
        ok = ok and verify_deformation(d).ok
    record_criterion(2, "node T1_G and two-step tame lifting", ok, t.elapsed)
    assert ok
    assert t.elapsed < 1.0


def test_criterion_3_wild_node_obstruction():
    """Wild node over F_2: obstruction dim 1 at D = 2..6, matching the
    brute-force cocycle enumeration exactly."""
    with Timer() as t:
        p, g, amb = make_case(GF(2), ["x*y"], [{"x": "y", "y": "x"}])
        ring = amb.ring
        x, y = ring.gens()
        # the oracle's permutation model must agree with the real action
        for i in range(1, 7):
            assert amb.pres.nf(substitute(x**i, {"x": y, "y": x})) == y**i
        ok = True
        for D in (2, 3, 4, 5, 6):
            oracle = F2SliceOracle(D).h1_dimension(D + 2)
            pipeline = obstruction_space(amb, trunc=D).dimension
            ok = ok and oracle == pipeline == 1
        # the representative is the constant class sigma -> 1 F^*
        obs = obstruction_space(amb, trunc=4)
        ok = ok and [canonical_render(c.value(1)[0]) for c in obs.representatives] \
            == ["1"]
    record_criterion(3, "wild node obstruction = 1 at D=2..6 (oracle match)",
                     ok, t.elapsed)
    assert ok
    assert t.elapsed < 5.0


def test_criterion_4_free_translation():
    """Free translation on F_2[x]: H^1 slices vanish for D <= 6 and lifting
    to order 3 is unique up to isomorphism at every step."""
    with Timer() as t:
        p, g, amb = make_case(GF(2), [], [{"x": "x + 1"}], names=("x",))
        ok = amb.kind == "regular"
        for D in (2, 3, 4, 5, 6):
            ok = ok and obstruction_space(amb, trunc=D).dimension == 0
        slice_vecs = invariant_normal_slice(amb, 3)
        d = Deformation.initial(amb)
        for step in range(3):
            out = lift_step(d)
            ok = ok and out.success
            d = out.deformation
            # every invariant shift of the new lift is isomorphic to it
            for r in range(1, len(slice_vecs) + 1):
                for combo in combinations(range(len(slice_vecs)), r):
                    vec = tuple(
                        sum((slice_vecs[i][j] for i in combo), amb.ring.zero)
                        for j in range(len(d.gens))
                    )
                    alt = shift_lift(d, DifferenceClass(amb, vec))
                    witness = isomorphism_witness(d, alt, trunc=4)
                    ok = ok and witness is not None
        ok = ok and verify_deformation(d).ok
    record_criterion(4, "free translation: H1 = 0 and unique lifts to order 3",
                     ok, t.elapsed)
    assert ok
    assert t.elapsed < 5.0


CRITERION5_CASES = [
    (QQ, ["x*y"], [{"x": "y", "y": "x"}]),
    (QQ, ["y^2 - x^3"], [{"y": "-y"}]),
    (QQ, ["x^2 - y^3"], [{"x": "-x"}]),
    (GF(3), ["x*y"], [{"x": "y", "y": "x"}]),
    (GF(3), ["y^2 - x^3"], [{"y": "-y"}]),
    (GF(3), ["x^2 - y^3"], [{"x": "-x"}]),
]


def test_criterion_5_randomized_property_suite():
    """Torsor axioms, witness additivity and the cocycle identity on >= 100
    randomized instances over Q and F_3; everything exact."""
    rng = random.Random(2024)
    instances = 0
    failures = []
    with Timer() as t:
        for field, gens_text, group_images in CRITERION5_CASES:
            p, g, amb = make_case(field, gens_text, group_images)
            ring = amb.ring
            slice_vecs = invariant_normal_slice(amb, 2)
            d_can = lift_step(Deformation.initial(amb)).deformation

            def random_nu():
                vec = tuple(ring.zero for _ in amb.pres.gens)
                for v in slice_vecs:
                    c = rng.randrange(3 if field is GF(3) else 3)
                    if c:
                        vec = tuple(a + b.scale(ring.field.of(c))
                                    for a, b in zip(vec, v))
                return DifferenceClass(amb, vec)

            # nu torsor axioms (i)-(iv)
            for _ in range(8):
                nu1, nu2 = random_nu(), random_nu()
                d1 = shift_lift(d_can, nu1)
                d2 = shift_lift(d_can, nu2)
                n11 = difference_class(d1, d1)
                n12 = difference_class(d1, d2)
                n21 = difference_class(d2, d1)
                checks = [
                    n11.is_zero(),
                    n12 == -n21,
                    ideal_equal(d1, d2) == n12.is_zero(),
                    difference_class(d_can, shift_lift(d_can, nu1)) == nu1,
                ]
                d3 = shift_lift(d_can, random_nu())
                checks.append(
                    difference_class(d1, d2) + difference_class(d2, d3)
                    == difference_class(d1, d3)
                )
                if not all(checks):
                    failures.append((field, gens_text, "nu axioms"))
                instances += 1

            # mu: identity witness, flow witnesses, additivity of images
            from eqdeform.ambient import ambient_vector_slice

            inv_derivs = list(ambient_vector_slice(amb, 1, invariant=True))
            for _ in range(4):
                w0 = isomorphism_witness(d_can, d_can)
                checks = [w0 is not None and w0.is_zero()]
                if inv_derivs:
                    f1 = inv_derivs[rng.randrange(len(inv_derivs))]
                    f2 = inv_derivs[rng.randrange(len(inv_derivs))]
                    da = apply_flow(d_can, f1)
                    db = apply_flow(da, f2)
                    wa = isomorphism_witness(d_can, da)
                    wb = isomorphism_witness(da, db)
                    wc = isomorphism_witness(d_can, db)
                    checks.append(all(w is not None for w in (wa, wb, wc)))
                    if checks[-1]:
                        img = lambda w: DifferenceClass(
                            amb, normal_image(amb, w.components))
                        checks.append(img(wa) + img(wb) == img(wc))
                if not all(checks):
                    failures.append((field, gens_text, "mu witnesses"))
                instances += 1

            # omega: cocycle identity, lift-independence, tame correction
            monos = amb.pres.std_monomials_upto(2)
            from eqdeform.ambient import NormalModule

            N = NormalModule(amb)
            for _ in range(5):
                order = d_can.order + 1
                noise = []
                lift_gens = []
                for ge in d_can.gens:
                    rho = ring.monomial(monos[rng.randrange(len(monos))],
                                        ring.field.of(rng.randrange(1, 3)))
                    noise.append(rho)
                    lift_gens.append(
                        ge.lift(order) + EpsPoly.constant(ring, order, rho).shift(order)
                    )
                c = obstruction_cocycle(d_can, tuple(lift_gens))
                checks = [c.check_identity()]
                # second lift of the same deformation: difference is a coboundary
                lift2 = tuple(ge.lift(order) for ge in d_can.gens)
                c2 = obstruction_cocycle(d_can, lift2)
                nu = tuple(amb.pres.nf(r) for r in noise)  # lift2 = lift - eps^M nu
                for i in g.indices():
                    if i == g.identity_index:
                        continue
                    delta = tuple(a - b for a, b in zip(c2.value(i), c.value(i)))
                    bound = tuple(a - b for a, b in zip(N.act(i, nu), nu))
                    if tuple(amb.pres.nf(a - b) for a, b in zip(delta, bound)) != \
                            tuple(ring.zero for _ in nu):
                        checks.append(False)
                if amb.action.is_tame():
                    out = equivariantize(d_can, tuple(lift_gens))
                    checks.append(out.success and verify_deformation(out.deformation).ok)
                if not all(checks):
                    failures.append((field, gens_text, "omega"))
                instances += 1
        ok = not failures and instances >= 100
    record_criterion(5, f"torsor/cocycle suite on {instances} randomized instances",
                     ok, t.elapsed)
    assert not failures, failures
    assert instances >= 100
    assert t.elapsed < 60.0


def test_criterion_6_ambient_independence():
    """T1_G through the original tame ambient equals T1_G through the
    regular-representation ambient on every tame example."""
    cases = [
        (QQ, ["y^2 - x^3"], [{"y": "-y"}]),
        (QQ, ["x*y"], [{"x": "y", "y": "x"}]),
        (QQ, ["x^2 - y^3"], [{"x": "-x"}]),
        (QQ, ["x^2", "y^2"], [{"x": "y", "y": "x"}]),
        (GF(5), ["x*y"], [{"x": "y", "y": "x"}]),
        (GF(3), ["y^2 - x^3"], [{"y": "-y"}]),
    ]
    with Timer() as t:
        ok = True
        for field, gens_text, group_images in cases:
            p, g, amb = make_case(field, gens_text, group_images)
            small = tangent_spaces(amb)
            big = tangent_spaces(regular_rep_embedding(p, g))
            ok = ok and small.t1_dim == big.t1_dim
            ok = ok and small.t1_equivariant_dim == big.t1_equivariant_dim
    record_criterion(6, "T1_G equal through original and regular ambients",
                     ok, t.elapsed)
    assert ok
    assert t.elapsed < 10.0


def _brute_force_equivariant_lifts_f2(ring):
    """All g of degree <= 2 with (xy + eps g) swap-stable over F_2[eps],
    by bounded linear algebra; returned up to equality of ideals."""
    x, y = ring.gens()
    field = ring.field
    base = x * y
    monos2 = ring.monomials_upto(2)
    monos3 = ring.monomials_upto(3)
    monos5 = ring.monomials_upto(5)
    index5 = {m: i for i, m in enumerate(monos5)}

    def coeffs(p):
        out = [field.zero] * len(monos5)
        for m, c in p.terms.items():
            out[index5[m]] = c
        return out

    swap = {"x": y, "y": x}
    survivors = []
    for bits in range(1 << len(monos2)):
        terms = {}
        for k, m in enumerate(monos2):
            if bits >> k & 1:
                terms[m] = field.one
        gpoly = ring.from_terms(terms)
        moved = substitute(gpoly, swap)
        # solve sigma(F) = (C0 + eps C1) F coefficientwise, C of degree <= 3
        unknowns = []
        cols = []
        for m in monos3:  # C0 columns: order-0 block base*m, order-1 block g*m
            unknowns.append(("c0", m))
            cols.append(coeffs(base.mul_monomial(m)) + coeffs(gpoly.mul_monomial(m)))
        for m in monos3:  # C1 columns: order-1 block base*m
            unknowns.append(("c1", m))
            cols.append([field.zero] * len(monos5) + coeffs(base.mul_monomial(m)))
        rhs = coeffs(base) + coeffs(moved)
        (sol,) = solve(field, [sparse(field, col) for col in cols], [sparse(field, rhs)],
                       len(rhs))
        if sol is not None:
            survivors.append(gpoly)
    # dedupe by equality of ideals: g ~ g + xy within degree <= 2
    classes = []
    for gpoly in survivors:
        matched = False
        for rep in classes:
            if gpoly - rep == base or rep - gpoly == base or gpoly == rep:
                matched = True
                break
        if not matched:
            classes.append(gpoly)
    return classes


def test_criterion_7_exhaustive_equivalence():
    """Over F_2, brute-forced equivariant order-1 lifts of the node equal
    the torsor enumeration, with isomorphism classes grouped by witness."""
    with Timer() as t:
        p, g, amb = make_case(GF(2), ["x*y"], [{"x": "y", "y": "x"}])
        ring = amb.ring
        x, y = ring.gens()
        brute = _brute_force_equivariant_lifts_f2(ring)
        slice_vecs = invariant_normal_slice(amb, 2)
        d_base = lift_step(Deformation.initial(amb)).deformation
        pipeline = []
        for bits in range(1 << len(slice_vecs)):
            vec = tuple(ring.zero for _ in amb.pres.gens)
            for k, v in enumerate(slice_vecs):
                if bits >> k & 1:
                    vec = tuple(a + b for a, b in zip(vec, v))
            pipeline.append(shift_lift(d_base, DifferenceClass(amb, vec)))
        ok = len(brute) == len(pipeline) == 8

        # bijection between brute-forced ideals and enumerated lifts
        def as_deformation(gpoly):
            d = Deformation(amb, 1, (EpsPoly(ring, 1, [x * y, gpoly]),))
            assert verify_deformation(d).ok
            return d

        matches = []
        for gpoly in brute:
            db = as_deformation(gpoly)
            found = [k for k, dp in enumerate(pipeline) if ideal_equal(db, dp)]
            matches.append(found)
        ok = ok and all(len(f) == 1 for f in matches)
        ok = ok and sorted(f[0] for f in matches) == list(range(8))

        # isomorphism-class grouping by witness
        classes = []
        for d in pipeline:
            placed = False
            for cls in classes:
                if isomorphism_witness(cls[0], d, trunc=4) is not None:
                    cls.append(d)
                    placed = True
                    break
            if not placed:
                classes.append([d])
        rep_t = tangent_spaces(amb, trunc=4)
        ok = ok and len(classes) == 2 ** rep_t.t1_equivariant_dim == 2
        ok = ok and sorted(len(c) for c in classes) == [4, 4]
    record_criterion(7, "exhaustive F_2 node lifts match the torsor enumeration",
                     ok, t.elapsed)
    assert ok
    assert t.elapsed < 60.0


def test_criterion_8_ramification():
    """Per-point tame value 1 for m in {2,3,5,7}; weight count equals the
    matrix fixed space for all d <= 12, m <= 6."""
    fields = {2: GF(5), 3: GF(7), 4: GF(5), 5: GF(11), 6: GF(7), 7: GF(29)}
    with Timer() as t:
        ok = True
        for m in (2, 3, 5, 7):
            value = local_ext1_invariants(tame_different(m), m, fields[m])
            ok = ok and value == 1 == math.ceil(tame_different(m) / m)
        for m in (2, 3, 4, 5, 6):
            for d in range(0, 13):
                module = TruncatedSeriesModule(d, (-(d + 1)) % m, m, fields[m])
                ok = ok and module.invariant_count() == \
                    module.invariant_count_by_matrix()
    record_criterion(8, "ramification counts (tame value and matrix oracle)",
                     ok, t.elapsed)
    assert ok
    assert t.elapsed < 1.0


def _random_small_poly(ring, rng, deg=4):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        total = rng.randrange(deg + 1)
        exps = [0] * ring.nvars
        for _ in range(total):
            exps[rng.randrange(ring.nvars)] += 1
        c = ring.field.of(rng.randrange(-3, 4))
        if c != ring.field.zero:
            terms[tuple(exps)] = c
    return ring.from_terms(terms)


def test_criterion_9_groebner_soundness():
    """Membership equivalence on 50 random small ideals against the
    degree-6 linear-algebra oracle; module_kernel recovers all brute-force
    kernel elements of degree <= 3."""
    rng = random.Random(4096)
    rings = [PolyRing(QQ, ["x", "y"]), PolyRing(QQ, ["x", "y", "z"])]
    with Timer() as t:
        ok = True
        checked_ideals = 0
        while checked_ideals < 50:
            ring = rings[checked_ideals % 2]
            gens = [_random_small_poly(ring, rng) for _ in range(rng.randrange(1, 4))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger(gens, ring=ring)
            rep = None
            # members built inside the degree window: both sides must agree
            combo = ring.zero
            for g in gens:
                combo = combo + _random_small_poly(ring, rng, deg=2) * g
            if combo.degree() <= 6:
                ok = ok and gb.normal_form(combo).is_zero()
                ok = ok and bounded_membership(combo, gens, 6) is not None
            # random probes: a found bounded representation implies membership,
            # and GB-membership with a bounded representation implies the
            # oracle finds one
            probe = _random_small_poly(ring, rng)
            found = bounded_membership(probe, gens, 6)
            if found is not None:
                rebuilt = ring.zero
                for c, g in zip(found, gens):
                    rebuilt = rebuilt + c * g
                ok = ok and rebuilt == probe and gb.normal_form(probe).is_zero()
            elif gb.normal_form(probe).is_zero():
                from eqdeform.groebner import Representer

                rep = Representer(gens)
                _, cofs = rep.divide(probe)
                window = max(
                    (c * g).degree() for c, g in zip(cofs, gens)
                    if not c.is_zero()
                )
                ok = ok and window > 6  # outside the oracle window, else mismatch
            checked_ideals += 1

        # kernels: brute force recovers nothing beyond the computed module
        ring = rings[0]
        x, y = ring.gens()
        kernel_cases = [
            ([y**2 - x**3], [[-3 * x**2, 2 * y]]),
            ([x * y], [[y, x]]),
            ([x * y], [[x + y, x - y]]),
            ([x**2 - y**2], [[x, y]]),
        ]
        from eqdeform.groebner import ModuleGB, module_groebner

        for ideal_gens, matrix in kernel_cases:
            gb = buchberger(ideal_gens)
            ker = module_kernel(matrix, gb)
            rank = len(matrix[0])
            vectors = [vec_from_polys(v) for v in ker]
            for f in gb.generators:
                for j in range(rank):
                    vectors.append({(j, m): c for m, c in f.terms.items()})
            mgb = ModuleGB(ring, rank, module_groebner(ring, vectors, rank))
            brute = bounded_kernel_elements(matrix, ideal_gens, ring, 3)
            ok = ok and bool(brute)
            for v in brute:
                ok = ok and mgb.contains(v)
    record_criterion(9, "Groebner membership and kernel soundness vs oracles",
                     ok, t.elapsed)
    assert ok
    assert t.elapsed < 60.0
