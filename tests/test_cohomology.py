import random
from pathlib import Path

import pytest

import oracles
from eqdeform import cohomology, linalg
from eqdeform.ambient import AffinePresentation, NormalModule, choose_ambient
from eqdeform.cli import Workspace
from eqdeform.cohomology import (
    Cocycle,
    CocycleError,
    GModuleSlice,
    _unit_coboundaries,
    h1_bounded,
    invariants,
    slice_of_normal_module,
    solve_coboundary,
    zcocycles,
)
from eqdeform.deform import SLACK, obstruction_cocycle
from eqdeform.fields import GF, QQ
from eqdeform.gaction import close_group
from eqdeform.poly import PolyRing
from eqdeform.problem import parse_problem

from test_scale import SCALE_PROBLEMS

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def swap_q():
    ring = PolyRing(QQ, ["x", "y"])
    return ring, close_group([{"x": ring.var("y"), "y": ring.var("x")}], ring=ring)


def identity_matrix(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def gmodule(group, field, matrices):
    """GModuleSlice from dense action matrices, one per generator in the
    order of ``group.generators``."""
    return GModuleSlice(group, field, len(matrices[0]),
                        {s: [oracles.sparse(field, row) for row in mat]
                         for s, mat in zip(group.generators, matrices)})


def sparse_values(m, flat):
    """The oracle's flat cochain in the format of ``cohomology``: values
    {s: coordinate vector}, an s with c(s) = 0 left out."""
    values = {s: oracles.sparse(m.field, v) for s, v in oracles.values(m, flat).items()}
    return {s: v for s, v in values.items() if v}


def coboundary_values(m, phi):
    """The coboundary of the coordinate vector phi, from the oracle, as
    values {s: coordinate vector}."""
    return sparse_values(m, oracles.coboundary(m, oracles.dense(m.field, phi, m.dim)))


def abstract_h1_dimension(m):
    """dim Z^1 - dim B^1 of a module without payloads, after checking
    zcocycles against the all-pairs oracle; B^1 is spanned by the
    oracle's coboundaries of the unit vectors."""
    z_basis = oracles.zcocycles(m)
    assert zcocycles(m) == [sparse_values(m, z) for z in z_basis]
    units = [oracles.coboundary(m, [m.field.one if j == k else m.field.zero
                                    for j in range(m.dim)]) for k in range(m.dim)]
    _, pivots = oracles.rref(m.field, units)
    return len(z_basis) - len(pivots)


def test_invariants_examples(swap_q):
    ring, swap = swap_q
    f = QQ
    ident = identity_matrix(f, 2)
    m_triv = gmodule(swap, f, [ident])
    assert len(invariants(m_triv)) == 2
    m_swap = gmodule(swap, f, [[[f.zero, f.one], [f.one, f.zero]]])
    assert invariants(m_swap) == [{0: f.one, 1: f.one}]
    m_sign = gmodule(swap, f, [[[f.neg(f.one)]]])
    assert invariants(m_sign) == []


def test_representation_property_enforced(swap_q):
    ring, swap = swap_q
    f = QQ
    with pytest.raises(CocycleError):
        gmodule(swap, f, [[[f.of(2)]]])  # 2 is not an involution


def test_generator_matrices_that_break_a_relation_are_rejected():
    """Involutions that do not commute break st = ts in the Klein group,
    and a swap matrix breaks r^3 = e of a 3-cycle; matrices that keep
    the relations pass."""
    f = QQ
    ring = PolyRing(f, ["x", "y", "z"])
    x, y, z = ring.gens()
    klein = close_group([{"x": -x}, {"y": -y}], ring=ring)
    assert len(klein) == 4
    diag = [[f.one, f.zero], [f.zero, f.neg(f.one)]]
    swap = [[f.zero, f.one], [f.one, f.zero]]
    gmodule(klein, f, [diag, [[f.neg(f.one), f.zero], [f.zero, f.one]]])
    with pytest.raises(CocycleError, match="representation property"):
        gmodule(klein, f, [diag, swap])
    rot = close_group([{"x": y, "y": z, "z": x}], ring=ring)
    assert len(rot) == 3
    cycle = [[f.zero, f.zero, f.one], [f.one, f.zero, f.zero], [f.zero, f.one, f.zero]]
    gmodule(rot, f, [cycle])
    with pytest.raises(CocycleError, match="representation property"):
        gmodule(rot, f, [swap])


PROBLEMS = sorted(str(p.relative_to(ROOT)) for pattern in ("problems/*.prob",
                                                          "bench/problems/*.prob")
                  for p in ROOT.glob(pattern))


def assert_breadth_first_tree(group):
    """group.tree has one edge (a, g, ag) per nonidentity element, in
    index order, with g a generator, ag = a g and a reached before ag;
    it is the tree a breadth-first search of the table finds."""
    assert [ag for _, _, ag in group.tree] == [i for i in group.indices()
                                               if i != group.identity_index]
    for a, g, ag in group.tree:
        assert g in group.generators and ag == group.mul(a, g) and a < ag
    assert group.tree == oracles.cayley_tree(group)


@pytest.mark.parametrize("path", PROBLEMS)
def test_group_tree_spans_the_cayley_graph(path):
    """On the shipped and bench groups and on their ambients' actions
    (trans_f3's is the regular ambient's)."""
    workspace = Workspace(parse_problem((ROOT / path).read_text(encoding="utf-8")))
    assert_breadth_first_tree(workspace.group)
    assert_breadth_first_tree(workspace.ambient.action)


@pytest.mark.parametrize("name", sorted(SCALE_PROBLEMS))
def test_group_tree_of_the_scale_groups(name):
    problem = parse_problem(SCALE_PROBLEMS[name])
    assert_breadth_first_tree(close_group([m for _, m in problem.group_maps], ring=problem.ring))


def test_group_tree_of_random_permutation_groups():
    rng = random.Random(72)
    for _ in range(40):
        assert_breadth_first_tree(_permutation_group(rng))


@pytest.mark.parametrize("path", PROBLEMS)
def test_action_matrices_are_the_module_action(path):
    """Column j of M_i, which the oracle multiplies out of the generator
    matrices, holds the coordinates of i acting on payload j, for every
    element i of the group."""
    workspace = Workspace(parse_problem((ROOT / path).read_text(encoding="utf-8")))
    module = NormalModule(workspace.ambient)
    m = slice_of_normal_module(module, 1 if "trans_f3" in path else 2)
    for i in m.group.indices():
        columns = m.express([module.act(i, p) for p in m.payloads])
        assert [oracles.dense(m.field, col, m.dim) for col in columns] == \
            [list(col) for col in zip(*oracles._action_matrix(m, i))]


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
    """The coboundary of e_k read off M_s - I over the generators equals
    (s.e_k - e_k) for the generators s, blocks in generator order."""
    workspace = Workspace(parse_problem((ROOT / path).read_text(encoding="utf-8")))
    m = slice_of_normal_module(NormalModule(workspace.ambient), degree)
    units = [[m.field.one if j == k else m.field.zero for j in range(m.dim)]
             for k in range(m.dim)]
    assert m.dim > 1
    on_generators = [[x for s in m.group.generators
                      for x in oracles.values(m, oracles.coboundary(m, e))[s]]
                     for e in units]
    assert list(_unit_coboundaries(m)) == [oracles.sparse(m.field, v)
                                           for v in on_generators]


def test_slice_factors_the_action_matrices_once(monkeypatch):
    """On klein_f2 at D = 2 the seeds already span a G-stable space: the
    module is acted on only by the generators, once per (generator,
    payload), and the one elimination is that solve's, of the payloads
    beside their images: no orbit matrix of |G| * #seeds columns is
    eliminated."""
    text = (ROOT / "bench" / "problems" / "klein_f2.prob").read_text(encoding="utf-8")
    workspace = Workspace(parse_problem(text))
    module = NormalModule(workspace.ambient)
    rref_calls, solve_calls, act_calls = [], [], []
    rref, solve, act = linalg.rref, cohomology.solve, NormalModule.act

    def counted_rref(field, rows):
        rref_calls.append(1 + max(c for row in rows for c in row))
        return rref(field, rows)

    def counted_solve(field, columns, rhs_list, nrows):
        solve_calls.append(len(rhs_list))
        return solve(field, columns, rhs_list, nrows)

    def counted_act(self, i, vec):
        act_calls.append(i)
        return act(self, i, vec)

    monkeypatch.setattr(linalg, "rref", counted_rref)
    monkeypatch.setattr(cohomology, "solve", counted_solve)
    monkeypatch.setattr(NormalModule, "act", counted_act)
    m = slice_of_normal_module(module, 2)
    group = workspace.group
    seeds = len(module.amb.pres.std_monomials_upto(2)) * module.rank
    assert len(group) == 4 and len(group.generators) == 2 and m.dim > 1
    assert sorted(act_calls) == sorted(group.generators * m.dim)
    assert solve_calls == [len(group.generators) * m.dim]
    assert rref_calls == [(1 + len(group.generators)) * m.dim]
    assert rref_calls[0] < len(group) * seeds


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
                m = gmodule(swap, field, [A])
                assert abstract_h1_dimension(m) == 0
                # Reynolds splitting oracle: every cocycle is the
                # coboundary of -(1/|G|) sum c(tau)
                (s,) = swap.generators
                half = field.fraction(1, 2)
                for z in zcocycles(m):
                    phi = {k: field.neg(field.mul(half, v)) for k, v in z[s].items()}
                    assert coboundary_values(m, phi) == z
                    assert coboundary_values(m, solve_coboundary(m, z)) == z


def test_tame_h1_vanishes_order3():
    ring = PolyRing(GF(5), ["x", "y", "z"])
    x, y, z = ring.gens()
    rot = close_group([{"x": y, "y": z, "z": x}], ring=ring)
    assert len(rot) == 3
    f = GF(5)
    # regular representation of Z/3 by permutation matrices
    P = [[f.zero] * 3 for _ in range(3)]
    for i in range(3):
        P[(i + 1) % 3][i] = f.one
    m = gmodule(rot, f, [P])
    assert abstract_h1_dimension(m) == 0


def test_wild_node_slice_h1():
    r2 = PolyRing(GF(2), ["x", "y"])
    node = AffinePresentation.build(r2, [r2.var("x") * r2.var("y")])
    swap = close_group([{"x": r2.var("y"), "y": r2.var("x")}], ring=r2)
    amb = choose_ambient(node, swap)
    N = NormalModule(amb)
    for D in (2, 3, 4, 5, 6):
        small = slice_of_normal_module(N, D)
        big = slice_of_normal_module(N, D + 2)
        assert len(h1_bounded(small, big)) == 1
    # the constant class is not a coboundary; (x+y)F^* is
    small = slice_of_normal_module(N, 6)
    (s,) = swap.generators
    one, xy = small.express([(r2.one,), (r2.var("x") + r2.var("y"),)])
    assert solve_coboundary(small, {s: one}) is None
    phi = solve_coboundary(small, {s: xy})
    assert phi is not None
    assert coboundary_values(small, phi) == {s: xy}


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


def assert_matches_the_orbit_slice(module, degree, extra_vectors=()):
    """The slice closed under the generators has the payloads and the
    generator matrices of the full-orbit reference in oracles."""
    m = slice_of_normal_module(module, degree, extra_vectors)
    payloads, matrices = oracles.orbit_slice(module, degree, extra_vectors)
    assert m.payloads == payloads
    assert {g: [oracles.dense(m.field, row, m.dim) for row in rows]
            for g, rows in m.matrices.items()} == matrices


@pytest.mark.parametrize("degree", [2, 4])
@pytest.mark.parametrize("path", PROBLEMS)
def test_slice_matches_the_full_orbit_oracle(path, degree):
    workspace = Workspace(parse_problem((ROOT / path).read_text(encoding="utf-8")))
    assert_matches_the_orbit_slice(NormalModule(workspace.ambient), degree)


def test_slice_with_a_lift_defect_matches_the_full_orbit_oracle():
    """The extra seeds of equivariantize: the nonzero defect cocycle of
    klein_twist_f2's coefficientwise lift, at its search bound 2 + SLACK."""
    text = (ROOT / "bench" / "problems" / "klein_twist_f2.prob").read_text(encoding="utf-8")
    workspace = Workspace(parse_problem(text))
    d = workspace.deformation(workspace.problem, workspace.problem.eps_order)
    c = obstruction_cocycle(d, tuple(g.lift(d.order + 1) for g in d.gens))
    group = workspace.ambient.action
    extra = [c.value(i) for i in group.indices() if i != group.identity_index]
    assert not c.is_zero()
    assert_matches_the_orbit_slice(NormalModule(workspace.ambient), 2 + SLACK, extra)


UNCLOSED_IDENTITY_BLOCK = {
    # Z/3 through a regular ambient with non-constant twists: later blocks
    # add payloads, and the span closes only with the last block
    "nonconstant_twist": "field F 3\nvars x y z\nideal: x; y + x*z^2\ngen s: z -> z + 1\n",
    # S3 through its regular ambient: block 1 adds payloads, and the span
    # closes before the other four blocks act
    "s3_sym_f2": "field F 2\nvars x y z\nideal: x*y + y*z + z*x\n"
                 "gen r: x -> y, y -> z, z -> x\ngen s: x -> y, y -> x\n",
}


@pytest.mark.parametrize("name,blocks", [("nonconstant_twist", 3), ("s3_sym_f2", 2)])
def test_slice_beyond_the_identity_block_matches_the_full_orbit_oracle(
        monkeypatch, name, blocks):
    """The seeds do not span a G-stable space: later orbit blocks add
    payloads, in the order of the full orbit, until the span closes."""
    module = NormalModule(Workspace(parse_problem(UNCLOSED_IDENTITY_BLOCK[name])).ambient)
    group = module.amb.action
    seeds = len(module.amb.pres.std_monomials_upto(1)) * module.rank
    acted = []
    act = NormalModule.act
    monkeypatch.setattr(NormalModule, "act",
                        lambda self, i, vec: acted.append(i) or act(self, i, vec))
    m = slice_of_normal_module(module, 1)
    assert m.dim > seeds
    # the first `blocks` elements act on every seed, the generators on
    # every payload, and no later block is taken
    assert len(acted) == (blocks - 1) * seeds + len(group.generators) * m.dim
    assert all(i < blocks or i in group.generators for i in acted)
    monkeypatch.setattr(NormalModule, "act", act)
    assert_matches_the_orbit_slice(module, 1)


def test_trivial_action_in_characteristic_two_has_h1():
    """Every cochain of Z/2 acting trivially on F_2 is a cocycle and only
    zero is a coboundary, so H^1 = Hom(Z/2, F_2) has dimension 1; over Q
    the cocycle condition 2 c(s) = 0 leaves nothing."""
    ring = PolyRing(QQ, ["x", "y"])
    swap = close_group([{"x": ring.var("y"), "y": ring.var("x")}], ring=ring)
    f2 = GF(2)
    (s,) = swap.generators
    m = gmodule(swap, f2, [[[f2.one]]])
    assert zcocycles(m) == [{s: {0: f2.one}}]
    assert abstract_h1_dimension(m) == 1
    assert abstract_h1_dimension(gmodule(swap, QQ, [[[QQ.one]]])) == 0


def test_translation_line_free_module():
    r1 = PolyRing(GF(2), ["x"])
    line = AffinePresentation.build(r1, [])
    g = close_group([{"x": r1.var("x") + 1}], ring=r1)
    amb = choose_ambient(line, g)
    N = NormalModule(amb)
    for D in (2, 3, 4, 5, 6):
        small = slice_of_normal_module(N, D)
        big = slice_of_normal_module(N, D + 2)
        assert h1_bounded(small, big) == []
    # the plain slice value alternates with parity: the filtered-module
    # subtlety the search slack exists to absorb
    for D, dimension in ((2, 1), (3, 0)):
        m = slice_of_normal_module(N, D)
        assert len(h1_bounded(m, m)) == dimension


def test_solve_coboundary_round_trip(swap_q):
    ring, swap = swap_q
    f = QQ
    rng = random.Random(52)
    A = [[f.zero, f.one], [f.one, f.zero]]
    m = gmodule(swap, f, [A])
    (s,) = swap.generators
    for _ in range(10):
        phi = oracles.sparse(f, [f.of(rng.randrange(-3, 4)) for _ in range(2)])
        values = coboundary_values(m, phi)
        found = solve_coboundary(m, values)
        assert found is not None
        assert coboundary_values(m, found) == values
    # zero cocycle -> canonical zero witness
    assert solve_coboundary(m, {}) == {}
    assert solve_coboundary(m, {s: {}}) == {}
    # values that are no cocycle are rejected: c(ss) = s.c(s) + c(s)
    # forces s.c(s) = -c(s), and c(e) must vanish
    for bad in ({s: {0: f.one}}, {swap.identity_index: {0: f.one}}):
        with pytest.raises(CocycleError):
            solve_coboundary(m, bad)


def test_invariants_have_zero_coboundary(swap_q):
    ring, swap = swap_q
    f = QQ
    A = [[f.zero, f.one], [f.one, f.zero]]
    m = gmodule(swap, f, [A])
    for v in invariants(m):
        assert coboundary_values(m, v) == {}


def test_h1_representatives_are_cocycles():
    r2 = PolyRing(GF(2), ["x", "y"])
    node = AffinePresentation.build(r2, [r2.var("x") * r2.var("y")])
    swap = close_group([{"x": r2.var("y"), "y": r2.var("x")}], ring=r2)
    amb = choose_ambient(node, swap)
    N = NormalModule(amb)
    small = slice_of_normal_module(N, 4)
    classes = h1_bounded(small, small)
    (s,) = swap.generators
    assert classes
    for z in classes:
        # single nontrivial group element: the identity reduces to (1+s)c = 0
        c = oracles.dense(GF(2), z[s], small.dim)
        assert oracles._act(small, s, c) == c


@pytest.mark.parametrize("path", ["bench/problems/d4_f2.prob",
                                  "bench/problems/klein_f2.prob",
                                  "bench/problems/cyc3_f3.prob",
                                  "bench/problems/trans_f3.prob"])
def test_cocycle_from_generators_extends_coboundaries(path):
    """The coboundary s -> s.phi - phi of a random normal vector phi,
    given on the generators, is rebuilt at every element (D4 is not
    abelian, so the side of the multiplication matters)."""
    amb = Workspace(parse_problem((ROOT / path).read_text())).ambient
    N = NormalModule(amb)
    group = amb.action
    rng = random.Random(path)
    monos = amb.pres.std_monomials_upto(2)
    nonzero = 0
    for _ in range(3):
        phi = tuple(amb.ring.monomial(rng.choice(monos), rng.randint(1, 2))
                    for _ in range(N.rank))
        full = {s: tuple(a - b for a, b in zip(N.act(s, phi), phi))
                for s in group.indices() if s != group.identity_index}
        c = Cocycle.from_generators(N, {s: full[s] for s in group.generators})
        assert {s: c.value(s) for s in full} == full
        assert oracles.cocycle_identity_holds(c)
        nonzero += not c.is_zero()
    assert nonzero
    zero = Cocycle.from_generators(N, {s: N.zero() for s in group.generators})
    assert zero.values == {} and zero.is_zero()


# --- the generator-based conditions against the all-pairs oracle -------------

def _agrees_with_the_oracle(m, rng):
    """Asserts that zcocycles, invariants and solve_coboundary equal the
    all-pairs copies in oracles on m, for a random cocycle, a random
    coboundary, a random cochain and a random cochain that satisfies the
    identity for the first generator, each given as its values; returns
    how many of the cochains were not cocycles and how many had no
    coboundary solution."""
    field = m.field
    ncols = m.dim * (len(m.group) - 1)
    z_basis = oracles.zcocycles(m)
    assert zcocycles(m) == [sparse_values(m, z) for z in z_basis]
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
        cochain = oracles.values(m, flat)
        values = {s: oracles.sparse(field, v) for s, v in cochain.items()}
        try:
            expected = oracles.solve_coboundary(m, cochain)
        except CocycleError:
            non_cocycles += 1
            with pytest.raises(CocycleError):
                solve_coboundary(m, values)
            continue
        assert solve_coboundary(m, values) == (
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


def _permutation_group(rng):
    """A random group of permutations of the n <= 4 variables of a ring
    over F2, F3 or Q; n = 1 gives the trivial group."""
    field = rng.choice((GF(2), GF(3), QQ))
    n = rng.randint(1, 4)
    ring = PolyRing(field, [f"x{i}" for i in range(n)])
    gens = []
    for _ in range(1 if n == 4 else rng.randint(1, 2)):
        perm = list(range(n))
        rng.shuffle(perm)
        gens.append({f"x{i}": ring.var(f"x{perm[i]}") for i in range(n)})
    return close_group(gens, ring=ring)


def _permutation_module(rng):
    """A random permutation group acting on k^n by permuting the basis,
    sometimes plus a second copy twisted by the sign character."""
    group = _permutation_group(rng)
    field, n = group.ring.field, group.ring.nvars
    twisted = rng.random() < 0.5
    matrices = {}
    for s in group.generators:
        perm = group.elements[s].is_variable_permutation()
        columns = [{perm[c]: field.one} for c in range(n)]
        if twisted:
            columns += [{n + perm[c]: field.of(_sign(perm))} for c in range(n)]
        matrices[s] = linalg.transpose(columns, len(columns))
    return GModuleSlice(group, field, 2 * n if twisted else n, matrices)


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


@pytest.mark.parametrize("path,small,big", [
    ("bench/problems/klein_f2.prob", 1, 3),
    ("bench/problems/d4_f2.prob", 3, 5),
    ("bench/problems/cyc3_f3.prob", 2, 4),
    ("problems/node_f2.prob", 4, 6),
    ("problems/line_f2.prob", 2, 4),
])
def test_h1_bounded_matches_the_all_pairs_oracle(path, small, big):
    """h1_bounded compares the generator values only; the oracle embeds
    every value of Z^1 of the small slice and B^1 of the big one."""
    workspace = Workspace(parse_problem((ROOT / path).read_text(encoding="utf-8")))
    module = NormalModule(workspace.ambient)
    m_small = slice_of_normal_module(module, small)
    m_big = slice_of_normal_module(module, big)
    kept = oracles.h1_bounded(m_small, m_big)
    z_basis = oracles.zcocycles(m_small)
    assert h1_bounded(m_small, m_big) == [sparse_values(m_small, z_basis[k]) for k in kept]
