import random

import pytest

from eqdeform.fields import GF, QQ
from eqdeform.groebner import (
    GroebnerBasis,
    ModuleGB,
    Representer,
    buchberger,
    is_regular_sequence,
    krull_dimension,
    module_kernel,
    quotient_basis,
    staircase,
    syzygies,
    vec_from_polys,
)
from eqdeform.poly import MonomialOrder, PolyRing, canonical_render, monomial_divides

from oracles import (
    bounded_kernel_elements,
    bounded_membership,
    krull_dimension_by_subsets,
    module_quotient_slice_dim,
    monomials_upto,
)


@pytest.fixture
def ring():
    return PolyRing(QQ, ["x", "y"])


def randpoly(ring, rng, terms=3, deg=4, span=4):
    out = {}
    for _ in range(terms):
        total = rng.randrange(deg + 1)
        cuts = sorted(rng.randrange(total + 1) for _ in range(ring.nvars - 1))
        exps = []
        prev = 0
        for c in cuts:
            exps.append(c - prev)
            prev = c
        exps.append(total - prev)
        c = ring.field.of(rng.randrange(-span, span + 1))
        if c != ring.field.zero:
            out[tuple(exps)] = c
    return ring.from_terms(out)


def test_buchberger_examples(ring):
    x, y = ring.gens()
    f = y**2 - x**3
    assert buchberger([f]).generators == (x**3 - y**2,)
    assert [canonical_render(g) for g in buchberger([x * y - 1, x**2]).generators] == ["1"]
    assert {canonical_render(g) for g in buchberger([x + y, x - y]).generators} == {"x", "y"}


def test_normal_form_examples():
    # the one-step reduction example needs an order in which y^2 leads
    ring = PolyRing(QQ, ["x", "y"], MonomialOrder("lex"))
    x, y = ring.gens()
    gb = buchberger([y**2 - x**3])
    assert gb.normal_form(y**2) == x**3
    assert gb.normal_form(y**2 - x**3).is_zero()
    assert buchberger([y]).normal_form(x) == x


def test_normal_form_properties(ring):
    rng = random.Random(21)
    x, y = ring.gens()
    gb = buchberger([x * y - x, y**2 - 1])
    for _ in range(20):
        f = randpoly(ring, rng)
        r = gb.normal_form(f)
        assert gb.normal_form(r) == r  # idempotent
        assert gb.normal_form(f - r).is_zero()
    for g in gb.generators:
        assert gb.normal_form(g).is_zero()


def test_membership_matches_bounded_linear_algebra(ring):
    rng = random.Random(22)
    vars3 = PolyRing(QQ, ["x", "y", "z"])
    for trial in range(12):
        R = ring if trial % 2 == 0 else vars3
        gens = [randpoly(R, rng) for _ in range(rng.randrange(1, 4))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens, ring=R)
        # elements built as bounded combinations must be members both ways
        combo = R.zero
        for g in gens:
            combo = combo + randpoly(R, rng, terms=2, deg=2) * g
        assert gb.normal_form(combo).is_zero()
        assert bounded_membership(combo, gens, 6) is not None
        # random polynomials: oracle and normal form must agree
        probe = randpoly(R, rng)
        found = bounded_membership(probe, gens, 6)
        if found is not None:
            check = R.zero
            for c, g in zip(found, gens):
                check = check + c * g
            assert check == probe
            assert gb.normal_form(probe).is_zero()


def test_representer_round_trip(ring):
    rng = random.Random(23)
    x, y = ring.gens()
    gens = [x * y - 1, x**2]
    rep = Representer(gens)
    for _ in range(10):
        f = randpoly(ring, rng)
        remainder, cofs = rep.divide(f)
        rebuilt = remainder
        for c, g in zip(cofs, gens):
            rebuilt = rebuilt + c * g
        assert rebuilt == f


def test_syzygies_are_syzygies(ring):
    x, y = ring.gens()
    gens = [x * y, x**2 - y, y**3]
    vectors = [vec_from_polys([g]) for g in gens]
    for s in syzygies(ring, vectors, 1):
        total = ring.zero
        for c, g in zip(s, gens):
            total = total + c * g
        assert total.is_zero()


def test_module_kernel_examples(ring):
    x, y = ring.gens()
    zero_ideal = buchberger([], ring=ring)
    ker = module_kernel([[x, y]], zero_ideal)
    assert any(v in (((y, -x)), ((-y, x))) for v in ker)
    assert module_kernel([[ring.one]], zero_ideal) == []
    gb = buchberger([y**2 - x**3])
    ker2 = module_kernel([[-3 * x**2, 2 * y]], gb)
    # the two stated vectors satisfy the congruence and lie in the span
    from eqdeform.groebner import ModuleGB, module_groebner

    vectors = [vec_from_polys(v) for v in ker2]
    for f in gb.generators:
        for j in range(2):
            vec = {(j, m): c for m, c in f.terms.items()}
            vectors.append(vec)
    mgb = ModuleGB(ring, 2, module_groebner(ring, vectors, 2))
    for v in [(2 * x, 3 * y), (2 * y, 3 * x**2)]:
        assert gb.normal_form(-3 * x**2 * v[0] + 2 * y * v[1]).is_zero()
        assert not mgb.reduce(vec_from_polys(v))


def test_module_kernel_congruence_random(ring):
    rng = random.Random(24)
    x, y = ring.gens()
    gb = buchberger([x * y])
    for _ in range(6):
        matrix = [[randpoly(ring, rng, terms=2, deg=2) for _ in range(2)]]
        ker = module_kernel(matrix, gb)
        for v in ker:
            image = matrix[0][0] * v[0] + matrix[0][1] * v[1]
            assert gb.normal_form(image).is_zero()


def test_module_kernel_contains_bruteforce_elements(ring):
    rng = random.Random(25)
    x, y = ring.gens()
    from eqdeform.groebner import ModuleGB, module_groebner

    for ideal_gens, matrix in [
        ([y**2 - x**3], [[-3 * x**2, 2 * y]]),
        ([x * y], [[y, x]]),
        ([x * y], [[x + y, x - y]]),
    ]:
        gb = buchberger(ideal_gens)
        ker = module_kernel(matrix, gb)
        rank = len(matrix[0])
        vectors = [vec_from_polys(v) for v in ker]
        for f in gb.generators:
            for j in range(rank):
                vectors.append({(j, m): c for m, c in f.terms.items()})
        mgb = ModuleGB(ring, rank, module_groebner(ring, vectors, rank))
        brute = bounded_kernel_elements(matrix, ideal_gens, ring, 3)
        assert brute, "oracle should find kernel elements"
        for v in brute:
            assert not mgb.reduce(vec_from_polys(v))


def test_quotient_basis_examples(ring):
    x, y = ring.gens()
    gb_cusp = buchberger([y**2 - x**3])
    qb = quotient_basis(ModuleGB.of_cokernel(ring, 1, ((3 * x**2,), (2 * y,)), gb_cusp))
    assert qb.finite and qb.dimension == 2
    assert qb.monomials == ((0, (0, 0)), (0, (1, 0)))

    qb2 = quotient_basis(ModuleGB.of_cokernel(ring, 1, ((y,), (x,)), buchberger([x * y])))
    assert qb2.finite and qb2.dimension == 1

    r1 = PolyRing(QQ, ["x"])
    free = ModuleGB.of_cokernel(r1, 1, (), buchberger([], ring=r1))
    qb3 = quotient_basis(free, trunc=7)
    assert not qb3.finite
    assert len(qb3.monomials) == 8
    assert quotient_basis(free, trunc=3).finite is False


def test_quotient_basis_matches_slice_oracle(ring):
    x, y = ring.gens()
    cases = [
        ([y**2 - x**3], ((3 * x**2,), (2 * y,)), 1),
        ([x * y], ((y,), (x,)), 1),
        ([x**2, y**2], ((2 * x, ring.zero), (ring.zero, 2 * y)), 2),
    ]
    for ideal_gens, relations, rank in cases:
        gb = buchberger(ideal_gens)
        qb = quotient_basis(ModuleGB.of_cokernel(ring, rank, relations, gb))
        assert qb.finite
        oracle = module_quotient_slice_dim(ring, rank, relations, ideal_gens, 4)
        assert qb.dimension == oracle


def test_quotient_basis_permutation_invariant(ring):
    x, y = ring.gens()
    gb = buchberger([y**2 - x**3])
    rels = [(3 * x**2,), (2 * y,), (x * y,)]
    dims = set()
    for perm in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        mgb = ModuleGB.of_cokernel(ring, 1, tuple(rels[i] for i in perm), gb)
        dims.add(quotient_basis(mgb).dimension)
    assert len(dims) == 1


def _filtered_monomials(ring, rank, leading_terms, degree):
    """Brute-force staircase: every term of degree <= degree that no
    leading term divides, by (degree, position, order key)."""
    out = [(pos, m) for m in monomials_upto(ring, degree) for pos in range(rank)
           if not any(p == pos and monomial_divides(lm, m) for p, lm in leading_terms)]
    out.sort(key=lambda t: (sum(t[1]), t[0], ring.order.key(t[1])))
    return out


def test_staircase_examples():
    ring = PolyRing(QQ, ["x", "y"])
    box = [(0, (2, 0)), (0, (0, 2))]
    assert staircase(ring, 1, box, None) == [
        (0, (0, 0)), (0, (1, 0)), (0, (0, 1)), (0, (1, 1))]
    assert staircase(ring, 1, box, 0) == [(0, (0, 0))]
    # a unit leading term kills its position; a variable never occurs
    assert staircase(ring, 2, [(0, (0, 0)), (1, (1, 0))], 2) == [
        (1, (0, 0)), (1, (0, 1)), (1, (0, 2))]


def test_staircase_matches_the_brute_force_filter():
    """Seeded random monomial submodules of P^rank: the staircase equals
    the filter of all monomials, and quotient_basis reads it, with the
    finite stop and the truncation of infinite quotients."""
    rng = random.Random(31)
    seen = {"unit": 0, "finite": 0, "infinite": 0}
    for _ in range(300):
        nvars = rng.randrange(5)
        rank = rng.randrange(1, 4)
        kind = rng.choice(["grevlex", "lex"])
        ring = PolyRing(GF(3), [f"x{i}" for i in range(nvars)], MonomialOrder(kind))
        lts = []
        for pos in range(rank):
            for _ in range(rng.randrange(4)):
                lts.append((pos, tuple(rng.randrange(3) for _ in range(nvars))))
            shape = rng.randrange(4)
            if shape == 0:
                lts.append((pos, (0,) * nvars))
                seen["unit"] += 1
            elif shape == 1:
                for i in range(nvars):
                    lts.append((pos, tuple(rng.randrange(1, 4) if j == i else 0
                                           for j in range(nvars))))
        # finite: at each position a unit, or a pure power of every variable
        finite = all(
            (pos, (0,) * nvars) in lts
            or all(any(p == pos and m[i] and sum(m) == m[i] for p, m in lts)
                   for i in range(nvars))
            for pos in range(rank))
        for degree in range(5):
            assert staircase(ring, rank, lts, degree) == \
                _filtered_monomials(ring, rank, lts, degree)
        gb = ModuleGB(ring, rank, [{t: ring.field.one} for t in lts])
        assert quotient_basis(gb).finite == finite
        if finite:
            seen["finite"] += 1
            # every standard monomial has degree below 3 per variable
            full = _filtered_monomials(ring, rank, lts, 3 * nvars)
            assert staircase(ring, rank, lts, None) == full
            # a finite quotient ignores the truncation
            qb = quotient_basis(gb, trunc=1)
            assert qb.finite and qb.dimension == len(full) and qb.monomials == tuple(full)
        else:
            seen["infinite"] += 1
            qb = quotient_basis(gb, trunc=3)
            assert not qb.finite and qb.dimension is None
            assert qb.monomials == tuple(_filtered_monomials(ring, rank, lts, 3))
            # an infinite order ideal has standard monomials of every degree
            assert max(sum(m) for _, m in qb.monomials) == 3
            assert quotient_basis(gb).monomials == ()
    assert min(seen.values()) > 20, seen


def test_regular_sequences(ring):
    x, y = ring.gens()
    assert is_regular_sequence([y**2 - x**3]).regular
    cert = is_regular_sequence([x, x])
    assert not cert.regular and cert.quotient_dimension == 1
    assert is_regular_sequence([x * y]).regular
    assert is_regular_sequence([], ring=ring).regular
    vars4 = PolyRing(QQ, ["a", "b", "c", "d"])
    a, b, c, d = vars4.gens()
    assert is_regular_sequence([a * c - b * d, a * a - b * c]).regular
    assert krull_dimension(buchberger([x * y - 1, x**2])) == -1


def test_krull_dimension_matches_the_subset_loop_on_seeded_leading_terms():
    """The pruned search and the loop over all 2^n variable subsets agree
    on random leading-monomial sets of up to 14 variables: a few to many
    monomials, supports of one to four variables, sometimes a constant."""
    rng = random.Random(2003)
    for trial in range(300):
        n = rng.randrange(15)
        ring = PolyRing(GF(2), [f"x{i}" for i in range(n)])
        lms = []
        for _ in range(rng.randrange(1, 2 + 2 * n)):
            m = [0] * n
            for i in rng.sample(range(n), min(n, rng.randrange(1, 5))):
                m[i] = rng.randrange(1, 3)
            lms.append(tuple(m))
        if trial % 50 == 0:
            lms.append((0,) * n)
        gb = GroebnerBasis(ring, tuple(ring.monomial(m) for m in lms))
        assert krull_dimension(gb) == krull_dimension_by_subsets(lms, n), (n, lms)


def _pairs_problem(n: int) -> str:
    """x0*x1 + x2*x3 + ... over F2 with one involution swapping each pair."""
    pairs = [(f"x{2 * k}", f"x{2 * k + 1}") for k in range(n // 2)]
    return ("field F 2\nvars " + " ".join(f"x{i}" for i in range(n))
            + "\nideal: " + " + ".join(f"{a}*{b}" for a, b in pairs)
            + "\ngen s: " + ", ".join(f"{a} -> {b}, {b} -> {a}" for a, b in pairs) + "\n")


@pytest.mark.parametrize("n", [24, 40])
def test_check_of_a_wide_pairs_problem_finishes(tmp_path, capsys, n):
    """Every command certifies the presentation through the Krull
    dimension: at 24 variables the subset loop made 2^24 passes, at 40
    it would not finish."""
    from eqdeform.cli import main
    path = tmp_path / "pairs.prob"
    path.write_text(_pairs_problem(n), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert f"regular sequence: ok (dim {n - 1} = {n} - 1)" in capsys.readouterr().out


def test_buchberger_deterministic(ring):
    rng = random.Random(26)
    for _ in range(5):
        gens = [randpoly(ring, rng) for _ in range(3)]
        g1 = buchberger(gens, ring=ring).generators
        g2 = buchberger(list(reversed(gens)), ring=ring).generators
        assert g1 == g2


def test_input_generators_reduce_to_zero(ring):
    rng = random.Random(27)
    for _ in range(10):
        gens = [g for g in (randpoly(ring, rng) for _ in range(3)) if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens, ring=ring)
        for g in gens:
            assert gb.normal_form(g).is_zero()
