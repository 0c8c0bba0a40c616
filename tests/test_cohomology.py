import random
from pathlib import Path

import pytest

import oracles
from eqdeform import cohomology, linalg
from eqdeform.ambient import AffinePresentation, NormalModule, choose_ambient
from eqdeform.cli import Workspace
from eqdeform.cohomology import (
    CocycleError,
    GModuleSlice,
    _unit_coboundaries,
    coboundary_of,
    cochain_values,
    flat_cochain,
    h1,
    h1_bounded,
    invariants,
    slice_of_normal_module,
    solve_coboundary,
    zcocycles,
)
from eqdeform.fields import GF, QQ
from eqdeform.gaction import close_group
from eqdeform.poly import PolyRing
from eqdeform.problem import parse_problem

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def swap_q():
    ring = PolyRing(QQ, ["x", "y"])
    return ring, close_group([{"x": ring.var("y"), "y": ring.var("x")}], ring=ring)


def identity_matrix(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def gmodule(group, field, matrices):
    """GModuleSlice from dense action matrices."""
    return GModuleSlice(group, field, [[oracles.sparse(field, row) for row in mat]
                                       for mat in matrices])


def test_invariants_examples(swap_q):
    ring, swap = swap_q
    f = QQ
    ident = identity_matrix(f, 2)
    m_triv = gmodule(swap, f, [ident, ident])
    assert len(invariants(m_triv)) == 2
    m_swap = gmodule(swap, f, [ident, [[f.zero, f.one], [f.one, f.zero]]])
    assert invariants(m_swap) == [{0: f.one, 1: f.one}]
    m_sign = gmodule(swap, f, [[[f.one]], [[f.neg(f.one)]]])
    assert invariants(m_sign) == []


def test_representation_property_enforced(swap_q):
    ring, swap = swap_q
    f = QQ
    bad = [identity_matrix(f, 1), [[f.of(2)]]]  # 2 is not an involution
    with pytest.raises(CocycleError):
        gmodule(swap, f, bad)


def test_representation_checked_through_the_generators():
    """Only M_st is wrong, and st is no generator; the products M_s M_j
    over the generators s still expose it."""
    ring = PolyRing(QQ, ["x", "y"])
    x, y = ring.gens()
    klein = close_group([{"x": -x}, {"y": -y}], ring=ring)
    s, t = klein.generators
    st = klein.mul(s, t)
    assert len(klein) == 4 and st not in klein.generators
    sign = {klein.identity_index: 1, s: -1, t: -1, st: 1}
    good = [[[QQ.of(sign[i])]] for i in klein.indices()]
    gmodule(klein, QQ, good)
    bad = list(good)
    bad[st] = [[QQ.of(-1)]]
    with pytest.raises(CocycleError):
        gmodule(klein, QQ, bad)


def test_regular_ambient_action_keeps_the_generators():
    r2 = PolyRing(GF(2), ["x", "y"])
    node = AffinePresentation.build(r2, [r2.var("x") * r2.var("y")])
    swap = close_group([{"x": r2.var("y"), "y": r2.var("x")}], ring=r2)
    amb = choose_ambient(node, swap, "regular")
    assert amb.action is not swap
    assert amb.action.generators == swap.generators == [1]


@pytest.mark.parametrize("path,degree", [
    ("bench/problems/klein_f2.prob", 2),
    ("bench/problems/d4_f2.prob", 3),
    ("problems/node_q.prob", 3),
])
def test_unit_coboundaries_are_the_columns_of_the_action(path, degree):
    """The coboundary of e_k read off M_s - I equals s.e_k - e_k, and
    coboundary_of combines those columns."""
    workspace = Workspace(parse_problem((ROOT / path).read_text(encoding="utf-8")))
    m = slice_of_normal_module(NormalModule(workspace.ambient), degree)
    units = [[m.field.one if j == k else m.field.zero for j in range(m.dim)]
             for k in range(m.dim)]
    assert m.dim > 1
    assert list(_unit_coboundaries(m)) == [oracles.sparse(m.field, oracles.coboundary(m, e))
                                           for e in units]
    phi = [m.field.of(k % 3) for k in range(m.dim)]
    assert coboundary_of(m, oracles.sparse(m.field, phi)) == \
        oracles.sparse(m.field, oracles.coboundary(m, phi))


def test_slice_factors_the_action_matrices_once(monkeypatch):
    """One elimination of the orbit matrix gives every action matrix: the
    module acts once per (nonidentity element, seed) and once per
    (generator, payload)."""
    text = (ROOT / "bench" / "problems" / "klein_f2.prob").read_text(encoding="utf-8")
    workspace = Workspace(parse_problem(text))
    module = NormalModule(workspace.ambient)
    seeds = len(module.amb.pres.std_monomials_upto(2)) * module.rank
    rref_calls, act_calls = [], []
    rref, act = cohomology.rref, NormalModule.act

    def counted_rref(field, rows):
        rref_calls.append(len(rows))
        return rref(field, rows)

    def counted_act(self, i, vec):
        act_calls.append(i)
        return act(self, i, vec)

    monkeypatch.setattr(cohomology, "rref", counted_rref)
    monkeypatch.setattr(NormalModule, "act", counted_act)
    m = slice_of_normal_module(module, 2)
    group = workspace.group
    assert len(group) == 4 and len(group.generators) == 2 and m.dim > 1
    assert len(rref_calls) == 1
    assert len(act_calls) == (len(group) - 1) * seeds + len(group.generators) * m.dim


def _random_involution(field, n, rng):
    """S diag(+-1) S^-1 for a random invertible S (exact arithmetic)."""
    from eqdeform.linalg import rref

    while True:
        S = [[field.of(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
        _, pivots = rref(field, [oracles.sparse(field, row) for row in S])
        if len(pivots) == n:
            break
    D = [[field.of(1 if i <= n // 2 else -1) if i == j else field.zero
          for j in range(n)] for i in range(n)]
    # invert S by solving
    from eqdeform.linalg import solve

    columns = [oracles.sparse(field, [row[c] for row in S]) for c in range(n)]
    cols = [oracles.dense(field, x, n)
            for x in solve(field, columns, [{k: field.one} for k in range(n)], n)]
    S_inv = [[cols[c][r] for c in range(n)] for r in range(n)]

    def matmul(a, b):
        return [[sum_field(field, (field.mul(a[i][k], b[k][j]) for k in range(n)))
                 for j in range(n)] for i in range(n)]

    return matmul(matmul(S, D), S_inv)


def sum_field(field, values):
    out = field.zero
    for v in values:
        out = field.add(out, v)
    return out


def test_tame_h1_vanishes_on_random_involutions(swap_q):
    ring, swap = swap_q
    rng = random.Random(51)
    for field in (QQ, GF(5)):
        for n in (1, 2, 3):
            for _ in range(3):
                A = _random_involution(field, n, rng)
                m = gmodule(swap, field, [identity_matrix(field, n), A])
                res = h1(m)
                assert res.dimension == 0
                # Reynolds splitting oracle: every cocycle is
                # -(1/|G|) sum c(tau) away from a coboundary
                for z in zcocycles(m):
                    # single nontrivial element, so c(s) is all of z
                    half = field.fraction(1, 2)
                    phi = {k: field.neg(field.mul(half, v)) for k, v in z.items()}
                    assert coboundary_of(m, phi) == z


def test_tame_h1_vanishes_order3():
    ring = PolyRing(GF(5), ["x", "y", "z"])
    x, y, z = ring.gens()
    rot = close_group([{"x": y, "y": z, "z": x}], ring=ring)
    assert len(rot) == 3
    f = GF(5)
    # regular representation of Z/3 by permutation matrices
    perm = {0: identity_matrix(f, 3)}
    P = [[f.zero] * 3 for _ in range(3)]
    for i in range(3):
        P[(i + 1) % 3][i] = f.one
    P2 = [[f.zero] * 3 for _ in range(3)]
    for i in range(3):
        P2[(i + 2) % 3][i] = f.one
    mats = {0: identity_matrix(f, 3)}
    g1 = rot.mul(rot.identity_index, 1)
    mats[1] = P
    mats[rot.mul(1, 1)] = P2
    m = gmodule(rot, f, [mats[i] for i in rot.indices()])
    assert h1(m).dimension == 0


def test_wild_node_slice_h1():
    r2 = PolyRing(GF(2), ["x", "y"])
    node = AffinePresentation.build(r2, [r2.var("x") * r2.var("y")])
    swap = close_group([{"x": r2.var("y"), "y": r2.var("x")}], ring=r2)
    amb = choose_ambient(node, swap)
    N = NormalModule(amb)
    for D in (2, 3, 4, 5, 6):
        small = slice_of_normal_module(N, D)
        big = slice_of_normal_module(N, D + 2)
        assert h1_bounded(small, big).dimension == 1
    # the constant class is not a coboundary; (x+y)F^* is
    small = slice_of_normal_module(N, 6)
    # one nontrivial element, so a coordinate vector is a flat cochain
    one, xy = small.express([(r2.one,), (r2.var("x") + r2.var("y"),)])
    assert solve_coboundary(small, one) is None
    phi = solve_coboundary(small, xy)
    assert phi is not None
    assert oracles.sparse(GF(2), oracles.coboundary(
        small, oracles.dense(GF(2), phi, small.dim))) == xy


def test_express_marks_vectors_outside_the_slice():
    """One call: None for a vector with a monomial no payload has,
    coordinates for a vector inside the slice."""
    r2 = PolyRing(GF(2), ["x", "y"])
    x, y = r2.gens()
    node = AffinePresentation.build(r2, [x * y])
    swap = close_group([{"x": y, "y": x}], ring=r2)
    small = slice_of_normal_module(NormalModule(choose_ambient(node, swap)), 2)
    outside, inside = small.express([(x**5,), (x + y,)])
    assert outside is None
    assert small.materialize(inside) == (x + y,)


def test_slice_with_a_stray_generator_image_is_rejected(monkeypatch):
    """A generator's image gains a monomial, so its image of a payload
    is not the orbit vector that the group table predicts."""
    text = (ROOT / "problems" / "node_f2.prob").read_text(encoding="utf-8")
    module = NormalModule(Workspace(parse_problem(text)).ambient)
    ring = module.ring
    (g,) = module.amb.action.generators
    stray = module.amb.pres.nf(ring.var(ring.variables[0]) ** 40)
    act = NormalModule.act

    def stray_act(self, i, vec):
        out = act(self, i, vec)
        if i == g:
            out = (out[0] + stray,) + out[1:]
        return out

    monkeypatch.setattr(NormalModule, "act", stray_act)
    with pytest.raises(CocycleError, match="slice is not closed under the action"):
        slice_of_normal_module(module, 2)


def test_trivial_action_in_characteristic_two_has_h1():
    """Every cochain of Z/2 acting trivially on F_2 is a cocycle and only
    zero is a coboundary, so H^1 = Hom(Z/2, F_2) has dimension 1; over Q
    the cocycle condition 2 c(s) = 0 leaves nothing."""
    ring = PolyRing(QQ, ["x", "y"])
    swap = close_group([{"x": ring.var("y"), "y": ring.var("x")}], ring=ring)
    f2 = GF(2)
    m = gmodule(swap, f2, [[[f2.one]], [[f2.one]]])
    assert zcocycles(m) == [{0: f2.one}]
    assert h1(m).dimension == 1
    assert h1(gmodule(swap, QQ, [[[QQ.one]], [[QQ.one]]])).dimension == 0


def test_translation_line_free_module():
    r1 = PolyRing(GF(2), ["x"])
    line = AffinePresentation.build(r1, [])
    g = close_group([{"x": r1.var("x") + 1}], ring=r1)
    amb = choose_ambient(line, g)
    N = NormalModule(amb)
    for D in (2, 3, 4, 5, 6):
        small = slice_of_normal_module(N, D)
        big = slice_of_normal_module(N, D + 2)
        assert h1_bounded(small, big).dimension == 0
    # the plain slice value alternates with parity: the filtered-module
    # subtlety the search slack exists to absorb
    assert h1(slice_of_normal_module(N, 2)).dimension == 1
    assert h1(slice_of_normal_module(N, 3)).dimension == 0


def test_solve_coboundary_round_trip(swap_q):
    ring, swap = swap_q
    f = QQ
    rng = random.Random(52)
    A = [[f.zero, f.one], [f.one, f.zero]]
    m = gmodule(swap, f, [identity_matrix(f, 2), A])
    for _ in range(10):
        phi = oracles.sparse(f, [f.of(rng.randrange(-3, 4)) for _ in range(2)])
        flat = coboundary_of(m, phi)
        found = solve_coboundary(m, flat)
        assert found is not None
        assert coboundary_of(m, found) == flat
    # zero cocycle -> canonical zero witness
    assert solve_coboundary(m, {}) == {}
    # invalid cocycle input is rejected: c(e) must vanish via c(ss)=s c(s)+c(s)
    bad = {0: f.one}
    with pytest.raises(CocycleError):
        solve_coboundary(m, bad)


def test_invariants_have_zero_coboundary(swap_q):
    ring, swap = swap_q
    f = QQ
    A = [[f.zero, f.one], [f.one, f.zero]]
    m = gmodule(swap, f, [identity_matrix(f, 2), A])
    for v in invariants(m):
        assert coboundary_of(m, v) == {}


def test_h1_representatives_are_cocycles():
    r2 = PolyRing(GF(2), ["x", "y"])
    node = AffinePresentation.build(r2, [r2.var("x") * r2.var("y")])
    swap = close_group([{"x": r2.var("y"), "y": r2.var("x")}], ring=r2)
    amb = choose_ambient(node, swap)
    N = NormalModule(amb)
    small = slice_of_normal_module(N, 4)
    res = h1(small)
    field = GF(2)
    for flat in res.representatives:
        # single nontrivial group element: the identity reduces to (1+s)c = 0
        c = oracles.dense(field, flat, small.dim)
        assert oracles._act(small, 1, c) == c


# --- the generator-based conditions against the all-pairs oracle -------------

def _agrees_with_the_oracle(m, rng):
    """Asserts that zcocycles, invariants and solve_coboundary equal the
    all-pairs copies in oracles on m, and that cochain_values splits a
    flat cochain into the oracle's blocks, for a random cocycle, a random
    coboundary, a random cochain and a random cochain that satisfies the
    identity for the first generator; returns how many of the cochains
    were not cocycles and how many had no coboundary solution."""
    field = m.field
    others = [s for s in m.group.indices() if s != m.group.identity_index]
    ncols = m.dim * len(others)
    z_basis = [oracles.dense(field, z, ncols) for z in zcocycles(m)]
    assert z_basis == oracles.zcocycles(m)
    assert [oracles.dense(field, v, m.dim) for v in invariants(m)] == oracles.invariants(m)

    def scalar():
        return field.of(rng.randrange(-2, 3))

    def combination(basis):
        out = [field.zero] * ncols
        for v in basis:
            c = scalar()
            out = [field.add(a, field.mul(c, b)) for a, b in zip(out, v)]
        return out

    first = oracles.cocycle_rows(m, m.group.generators[:1])
    cochains = [combination(z_basis), oracles.coboundary(m, [scalar() for _ in range(m.dim)]),
                [scalar() for _ in range(ncols)],
                combination(oracles.kernel_basis(field, first, ncols))]
    non_cocycles = unsolved = 0
    for flat in cochains:
        cochain = {s: flat[k * m.dim:(k + 1) * m.dim] for k, s in enumerate(others)}
        sparse = oracles.sparse(field, flat)
        values = cochain_values(m, sparse)
        assert {s: oracles.dense(field, v, m.dim) for s, v in values.items()} == cochain
        assert flat_cochain(m, values) == sparse
        try:
            expected = oracles.solve_coboundary(m, cochain)
        except CocycleError:
            non_cocycles += 1
            with pytest.raises(CocycleError):
                solve_coboundary(m, sparse)
            continue
        assert solve_coboundary(m, sparse) == (
            None if expected is None else oracles.sparse(field, expected))
        unsolved += expected is None
    return non_cocycles, unsolved


def _sign(perm):
    """Parity of a permutation as +1 or -1, from its cycle lengths."""
    seen, sign = set(), 1
    for start in range(len(perm)):
        k, length = start, 0
        while k not in seen:
            seen.add(k)
            k, length = perm[k], length + 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def _permutation_module(rng):
    """A random group of permutations of n <= 4 points acting on k^n by
    permuting the basis over F2, F3 or Q, sometimes plus a second copy
    twisted by the sign character; n = 1 gives the trivial group."""
    field = rng.choice((GF(2), GF(3), QQ))
    n = rng.randint(1, 4)
    ring = PolyRing(field, [f"x{i}" for i in range(n)])
    gens = []
    for _ in range(1 if n == 4 else rng.randint(1, 2)):
        perm = list(range(n))
        rng.shuffle(perm)
        gens.append({f"x{i}": ring.var(f"x{perm[i]}") for i in range(n)})
    group = close_group(gens, ring=ring)
    twisted = rng.random() < 0.5
    matrices = []
    for sub in group.elements:
        perm = sub.is_variable_permutation()
        columns = [{perm[c]: field.one} for c in range(n)]
        if twisted:
            columns += [{n + perm[c]: field.of(_sign(perm))} for c in range(n)]
        matrices.append(linalg.transpose(columns, len(columns)))
    return GModuleSlice(group, field, matrices)


def test_permutation_modules_match_the_all_pairs_oracle():
    rng = random.Random(71)
    non_cocycles = unsolved = trivial = 0
    for _ in range(60):
        m = _permutation_module(rng)
        trivial += len(m.group) == 1
        counts = _agrees_with_the_oracle(m, rng)
        non_cocycles += counts[0]
        unsolved += counts[1]
    assert non_cocycles and unsolved and trivial


@pytest.mark.parametrize("path,degree", [
    *((f"problems/{name}.prob", d)
      for name in ("cusp_lift_x", "cusp_lift_zero", "cusp_q", "line_f2", "node_f2", "node_q")
      for d in (1, 2, 3)),
    ("bench/problems/klein_f2.prob", 2),
    ("bench/problems/klein_twist_f2.prob", 1),
    ("bench/problems/d4_f2.prob", 3),
    ("bench/problems/cyc3_f3.prob", 2),
    ("bench/problems/trans_f3.prob", 1),
    ("bench/problems/cubic_q.prob", 2),
])
def test_normal_module_slices_match_the_all_pairs_oracle(path, degree):
    workspace = Workspace(parse_problem((ROOT / path).read_text(encoding="utf-8")))
    m = slice_of_normal_module(NormalModule(workspace.ambient), degree)
    _agrees_with_the_oracle(m, random.Random(f"{path}:{degree}"))
