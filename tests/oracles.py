"""Independent brute-force oracles.

Everything here works on raw coefficient vectors with its own plain
dense linear algebra (or honest enumeration over F_2) and never calls
the Groebner machinery or ``eqdeform.linalg``, so it can vouch for the
main implementation.  The exceptions below lean on the package for polynomial
work only.  The invariant vector slice takes its normal images from
``eqdeform.ambient`` and its group action from ``derivation_act`` below
(normal forms included): it checks which conditions
``ambient_vector_slice`` imposes and how it eliminates them.  The
full-orbit slice acts through ``NormalModule.act``: it checks how
``slice_of_normal_module`` picks its payloads and matrices.  The
eps-peeling copy at the end is handed a Groebner representer: it checks
the stage bookkeeping of ``eqdeform.deform.eps_divide``, not the
membership test.  The slack-path references at the end run the
package's own slices and eliminators with the search two degrees up on
every input: they check the graded gate of ``obstruction_space`` and
``tangent_spaces``, not the machinery under it.  So does
``joint_derivations``, the T^0_G slice by one joint elimination of the
invariance and Jacobian rows: it checks that ``derivations`` may count
the kernel of the normal images on the invariant slice instead.  So does
``slice_derivations``, a basis of that kernel: it checks that the count
is the dimension of the space the kernel vectors span.
``FractionRationals`` is Q with every element a ``Fraction``: the
all-Fraction arithmetic the canonical ``int``/``Fraction`` form of
``eqdeform.fields`` must agree with.  ``compose_by_substitution`` runs
``poly.substitute`` on every image: it checks the linear combinations of
``Substitution.compose``.  ``composed_table`` closes a group and
composes every pair of its elements that way: it checks the table
``close_group`` reads off its closure walk, and ``cayley_tree`` walks
that table breadth-first: it checks the tree the walk records.
``flow_by_substitution`` multiplies a flow out in full with ``EpsPoly``
arithmetic: it checks the Jacobian shortcut of ``apply_flow``.
``twist_matrices`` divides sigma(f_j) over the generators at every
element with a Groebner representer: it checks the twists the ambient
divides at the generators' inverses and reads off the Cayley tree.
``monomials_upto`` lists every monomial of a ring up to a degree, the
coefficient index of the dense oracles.  ``krull_dimension_by_subsets``
tries every variable subset against the leading monomials: it checks
the pruned search of ``groebner.krull_dimension``.
``reduce_vec_by_scan`` is the normal form by a scan for the largest term
and a copy per step: it checks the heap of ``groebner.reduce_vec``.
``DenseEpsPoly`` keeps every eps coefficient, zeros included, in one
tuple: it checks the sparse coefficients of ``deform.EpsPoly``, and
``truncate`` lowers the order of an ``EpsPoly``, which only tests do.
``poly_add``, ``poly_sub``, ``combination``, ``vec_sub_scaled`` with
``spair``, and ``substitute_summed`` are the term sums as each was
written before ``fields.add_scaled``, entry by entry through
``field.add``: they check the values and the key order of the sums that
now go through it.
"""

from __future__ import annotations

import weakref

from fractions import Fraction

from eqdeform import cohomology, linalg
from eqdeform.ambient import (
    NormalModule,
    _SliceCoordinates,
    _combination,
    ambient_vector_slice,
    normal_image,
)
from eqdeform.cohomology import Cocycle, CocycleError, slice_of_normal_module
from eqdeform.deform import (
    SLACK,
    DeformationError,
    EpsPoly,
    ObstructionReport,
    invariant_normal_slice,
)
from eqdeform.fields import Field
from eqdeform.gaction import ClosureBoundExceededError, Substitution
from eqdeform.groebner import _vec_lt
from eqdeform.linalg import span_modulo
from eqdeform.poly import (
    PolyRing,
    Polynomial,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


def monomials_upto(ring: PolyRing, degree: int):
    """All exponent tuples of total degree <= degree, by degree then
    order.  A brute-force listing: the standard monomials of a quotient
    come from ``groebner.staircase``."""
    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for e in range(remaining + 1):
            yield from rec(prefix + (e,), remaining - e, slots - 1)

    if ring.nvars == 0:
        return [()] if degree >= 0 else []
    out = []
    for d in range(degree + 1):
        out.extend(sorted(rec((), d, ring.nvars), key=ring.order.key))
    return out


def krull_dimension_by_subsets(leading_monomials, nvars: int) -> int:
    """The largest number of variables whose subset contains the support
    of no leading monomial, over all 2^nvars subsets; -1 when a leading
    monomial is constant (the unit ideal)."""
    if any(not any(m) for m in leading_monomials):
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in leading_monomials]
    best = 0
    for mask in range(1 << nvars):
        size = bin(mask).count("1")
        if size <= best:
            continue
        chosen = {i for i in range(nvars) if mask >> i & 1}
        if all(not s <= chosen for s in supports):
            best = size
    return best


# --- dense Gaussian elimination -------------------------------------------
# A plain dense copy of the linear algebra, kept apart from
# eqdeform.linalg so that the oracles below (and tests/test_linalg.py)
# do not check the package's eliminator against itself.

def rref(field: Field, rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != field.zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != field.zero:
                factor = rows[i][c]
                rows[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def kernel_basis(field: Field, rows: list[list], ncols: int) -> list[list]:
    """Basis of {v : A v = 0} for the matrix with the given rows."""
    red, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][fc])
        basis.append(v)
    return basis


def solve(field: Field, rows: list[list], rhs: list) -> list | None:
    """One solution of A x = b, or None.  Returns the canonical solution
    with free variables set to zero (so b = 0 yields x = 0)."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(field, aug)
    for r in range(len(red)):
        if all(x == field.zero for x in red[r][:ncols]) and red[r][ncols] != field.zero:
            return None
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[r][ncols]
    return x


def sparse(field: Field, row: list) -> dict:
    """The dense row as the ``{column: value}`` dict, without zero values,
    that ``eqdeform.linalg`` takes and returns."""
    return {c: x for c, x in enumerate(row) if x != field.zero}


def dense(field: Field, vec: dict, n: int) -> list:
    """The ``{column: value}`` dict as the dense row of length n: the
    inverse of ``sparse``."""
    return [vec.get(c, field.zero) for c in range(n)]


def add_scaled(field: Field, v: dict, factor, row: dict) -> dict:
    """v + factor * row as a new sparse dict, entry by entry through
    ``field.add`` and ``field.mul``: the reference for the per-field
    loops of ``eqdeform.fields.add_scaled``."""
    out = dict(v)
    for k, y in row.items():
        x = field.add(out.get(k, field.zero), field.mul(factor, y))
        if x == field.zero:
            out.pop(k, None)
        else:
            out[k] = x
    return out


class SpanBuilder:
    """Incrementally maintained row space in reduced echelon form."""

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def _reduce(self, v: list) -> list:
        field = self.field
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            if v[p] != field.zero:
                factor = v[p]
                v = [field.sub(x, field.mul(factor, y)) for x, y in zip(v, row)]
        return v

    def add(self, v: list) -> bool:
        """Add v to the span; True if it enlarged the space."""
        field = self.field
        red = self._reduce(v)
        for c in range(self.ncols):
            if red[c] != field.zero:
                inv = field.inv(red[c])
                red = [field.mul(inv, x) for x in red]
                # back-substitute into the existing rows
                for i, row in enumerate(self.rows):
                    if row[c] != field.zero:
                        factor = row[c]
                        self.rows[i] = [
                            field.sub(x, field.mul(factor, y)) for x, y in zip(row, red)
                        ]
                self.rows.append(red)
                self.pivots.append(c)
                order = sorted(range(len(self.pivots)), key=lambda i: self.pivots[i])
                self.rows = [self.rows[i] for i in order]
                self.pivots = [self.pivots[i] for i in order]
                return True
        return False

    @property
    def dim(self) -> int:
        return len(self.rows)


# --- oracles ----------------------------------------------------------------

def _coeff_vector(f: Polynomial, monomials, index):
    out = [f.ring.field.zero] * len(monomials)
    for m, c in f.terms.items():
        out[index[m]] = c
    return out


def bounded_membership(f: Polynomial, gens, total_bound: int):
    """Cofactors with sum c_i g_i = f and every product of degree <=
    total_bound, or None.

    A found representation certifies membership; failure only certifies
    absence of a representation inside the degree window."""
    ring = f.ring
    if f.degree() > total_bound:
        return None
    target_monos = monomials_upto(ring, total_bound)
    index = {m: i for i, m in enumerate(target_monos)}
    unknowns = []
    columns = []
    for gi, g in enumerate(gens):
        if g.is_zero():
            continue
        for m in monomials_upto(ring, max(total_bound - g.degree(), 0)):
            unknowns.append((gi, m))
            columns.append(_coeff_vector(g * ring.monomial(m), target_monos, index))
    if not unknowns:
        return None
    rows = [[columns[u][r] for u in range(len(unknowns))]
            for r in range(len(target_monos))]
    rhs = _coeff_vector(f, target_monos, index)
    sol = solve(ring.field, rows, rhs)
    if sol is None:
        return None
    cofs = [ring.zero] * len(gens)
    for value, (gi, m) in zip(sol, unknowns):
        if value != ring.field.zero:
            cofs[gi] = cofs[gi] + value * ring.monomial(m)
    return cofs


def module_quotient_slice_dim(ring: PolyRing, rank: int, relations, ideal_gens,
                              degree: int) -> int:
    """dim_k of (degree <= degree slice of B^rank) / (bounded relation span),
    with B = P/(ideal_gens), entirely by coefficient linear algebra."""
    monos = monomials_upto(ring, degree)
    index = {}
    keys = []
    for pos in range(rank):
        for m in monos:
            index[(pos, m)] = len(keys)
            keys.append((pos, m))
    span = SpanBuilder(ring.field, len(keys))

    def add_vector(vec):
        row = [ring.field.zero] * len(keys)
        ok = True
        for pos, p in enumerate(vec):
            for m, c in p.terms.items():
                if monomial_degree(m) > degree:
                    ok = False
                    break
                row[index[(pos, m)]] = c
            if not ok:
                break
        if ok:
            span.add(row)

    for rel in relations:
        rel_deg = max([p.degree() for p in rel if not p.is_zero()] + [0])
        for m in monomials_upto(ring, max(degree - rel_deg, 0)):
            add_vector(tuple(p * ring.monomial(m) for p in rel))
    for f in ideal_gens:
        fdeg = f.degree()
        for pos in range(rank):
            for m in monomials_upto(ring, max(degree - fdeg, 0)):
                vec = [ring.zero] * rank
                vec[pos] = f * ring.monomial(m)
                add_vector(tuple(vec))
    return len(keys) - span.dim


def bounded_kernel_elements(map_matrix, ideal_gens, ring: PolyRing,
                            degree: int, slack: int = 2):
    """Basis of {v in P^r, deg <= degree : M v in (ideal_gens) P^c}, the
    ideal membership handled by bounded cofactors (degree + slack)."""
    c = len(map_matrix)
    r = len(map_matrix[0])
    entry_deg = max(
        [e.degree() for row in map_matrix for e in row if not e.is_zero()] + [0]
    )
    ideal_deg = max([g.degree() for g in ideal_gens if not g.is_zero()] + [0])
    cof_bound = degree + entry_deg + slack
    target_deg = max(degree + entry_deg, cof_bound + ideal_deg)
    target = monomials_upto(ring, target_deg)
    index = {m: i for i, m in enumerate(target)}

    v_unknowns = [(k, m) for k in range(r) for m in monomials_upto(ring, degree)]
    w_unknowns = [
        (j, gi, m)
        for j in range(c)
        for gi in range(len(ideal_gens))
        for m in monomials_upto(ring, cof_bound)
    ]
    columns = []
    for (k, m) in v_unknowns:
        col = []
        for j in range(c):
            col.extend(_coeff_vector(map_matrix[j][k] * ring.monomial(m), target, index))
        columns.append(col)
    for (j, gi, m) in w_unknowns:
        col = []
        for jj in range(c):
            if jj == j:
                col.extend(_coeff_vector(ideal_gens[gi] * ring.monomial(m), target, index))
            else:
                col.extend([ring.field.zero] * len(target))
        columns.append(col)
    total = len(v_unknowns) + len(w_unknowns)
    rows = [[columns[u][rr] for u in range(total)] for rr in range(c * len(target))]
    kernel = kernel_basis(ring.field, rows, total)
    seen = SpanBuilder(ring.field, len(v_unknowns))
    out = []
    for sol in kernel:
        head = sol[: len(v_unknowns)]
        if all(x == ring.field.zero for x in head):
            continue
        if not seen.add(head):
            continue
        vec = [ring.zero] * r
        for value, (k, m) in zip(head, v_unknowns):
            if value != ring.field.zero:
                vec[k] = vec[k] + value * ring.monomial(m)
        out.append(tuple(vec))
    return out


class F2SliceOracle:
    """Bitmask model of the wild node normal-module slice over F_2.

    The swap action permutes the standard monomials {1, x^i, y^i}, so
    vectors are ints and everything is honest enumeration."""

    def __init__(self, degree: int):
        self.degree = degree
        self.basis = [("1", 0)]
        for i in range(1, degree + 1):
            self.basis.append(("x", i))
        for i in range(1, degree + 1):
            self.basis.append(("y", i))
        self.dim = len(self.basis)
        self.perm = []
        for name, i in self.basis:
            if name == "1":
                self.perm.append(0)
            elif name == "x":
                self.perm.append(self.basis.index(("y", i)))
            else:
                self.perm.append(self.basis.index(("x", i)))

    def swap(self, mask: int) -> int:
        out = 0
        for k in range(self.dim):
            if mask >> k & 1:
                out |= 1 << self.perm[k]
        return out

    def zcocycles(self):
        """All Z^1 masks: (1 + swap) w = 0 over F_2."""
        return [w for w in range(1 << self.dim) if self.swap(w) ^ w == 0]

    def coboundary_masks(self):
        return {self.swap(phi) ^ phi for phi in range(1 << self.dim)}

    def h1_dimension(self, search_degree: int) -> int:
        """dim Z^1 at this degree minus those killed by coboundaries from
        the larger slice (mirrors the reported slice policy)."""
        big = F2SliceOracle(search_degree)
        small_in_big = [big.basis.index(b) for b in self.basis]

        def embed(mask: int) -> int:
            out = 0
            for k in range(self.dim):
                if mask >> k & 1:
                    out |= 1 << small_in_big[k]
            return out

        z_small = self.zcocycles()
        kill = big.coboundary_masks()
        killed = {z for z in z_small if embed(z) in kill}
        import math

        return int(math.log2(len(z_small))) - int(math.log2(len(killed)))


def invariant_vector_slice(amb, degree: int, tangent: bool) -> list:
    """``ambient_vector_slice(amb, degree)`` (tangent=False) or the
    ``derivations(amb, degree)`` slice (tangent=True, adding the rows
    J.D = 0 mod I) with the invariance imposed by every s != e, not the
    generators only, on dense rows: one per (condition slot, monomial),
    a column per unknown (ambient variable, standard monomial)."""
    ring = amb.ring
    field = ring.field
    action = amb.action
    unknowns = [(i, m) for i in range(ring.nvars)
                for m in amb.pres.std_monomials_upto(degree)]
    images = []
    for i, m in unknowns:
        v = [ring.zero] * ring.nvars
        v[i] = ring.monomial(m)
        v = tuple(v)
        image = list(normal_image(amb, v)) if tangent else []
        for s in action.indices():
            if s != action.identity_index:
                image += [a - b for a, b in zip(derivation_act(amb, s, v), v)]
        images.append(image)
    keys = sorted({(slot, m) for image in images
                   for slot, p in enumerate(image) for m in p.terms})
    rows = [[image[slot].terms.get(m, field.zero) for image in images]
            for slot, m in keys]
    basis = []
    for sol in kernel_basis(field, rows, len(unknowns)):
        vec = [ring.zero] * ring.nvars
        for value, (i, m) in zip(sol, unknowns):
            if value != field.zero:
                vec[i] = vec[i] + value * ring.monomial(m)
        basis.append(tuple(vec))
    return basis


# --- the group actions as written --------------------------------------------
# Substitute, multiply and reduce the whole sum, as the formulas read.
# eqdeform.ambient computes both actions by linearity from one normal
# form per (element, monomial); these are its reference.

def twist_matrices(gens, action, gb, representer) -> list:
    """Per group element, the c x c matrix T mod I with sigma(f_j) =
    sum_l T[j][l] f_l, divided over the generator list itself through
    its representer at every element: the reference for the ambient's
    twists, which divide at the generators' inverses only."""
    reduced = []
    for i in action.indices():
        rows = []
        for f in gens:
            cofactors = representer.express(action.apply(i, f))
            assert cofactors is not None, "group image of a generator is not in the ideal"
            rows.append(tuple(gb.normal_form(c) for c in cofactors))
        reduced.append(rows)
    return reduced


_TWISTS = weakref.WeakKeyDictionary()  # EquivariantAmbient -> twist_matrices


def ambient_twists(amb) -> list:
    """``twist_matrices`` of the ambient presentation, built once per ambient."""
    if amb not in _TWISTS:
        _TWISTS[amb] = twist_matrices(list(amb.pres.gens), amb.action, amb.pres.gb,
                                      amb.pres.representer)
    return _TWISTS[amb]


def twist_image_rows(amb, i) -> list:
    """The rows of sigma_i(T_{sigma_i^-1}) mod I at element i, substituted
    and reduced entry by entry, in the (l, entry) pair form of
    ``EquivariantAmbient.twist_images`` (a constant as its field value)."""
    action, zero = amb.action, (0,) * amb.ring.nvars
    rows = []
    for row in ambient_twists(amb)[action.inv(i)]:
        images = (amb.pres.nf(action.apply(i, t)) for t in row)
        rows.append([(l, t.terms[zero] if t.degree() == 0 else t)
                     for l, t in enumerate(images) if t])
    return rows


def normal_module_act(amb, i, vec) -> tuple:
    """(sigma.psi)_j = NF(sum_l sigma(T_{sigma^-1}[j][l]) sigma(psi_l)),
    T from the all-elements ``twist_matrices``."""
    action = amb.action
    out = []
    for row in ambient_twists(amb)[action.inv(i)]:
        total = amb.ring.zero
        for entry, p in zip(row, vec):
            total = total + action.apply(i, entry) * action.apply(i, p)
        out.append(amb.pres.nf(total))
    return tuple(out)


def derivation_act(amb, i, vec) -> tuple:
    """(sigma.D)_i = NF(sum_k L[i][k] sigma(D_k)), L the linear part of
    sigma^-1."""
    action = amb.action
    out = []
    for row in action.elements[action.inv(i)].linear_part():
        total = amb.ring.zero
        for k, coeff in row.items():
            total = total + action.apply(i, vec[k]) * coeff
        out.append(amb.pres.nf(total))
    return tuple(out)


def orbit_slice(module, degree: int, extra_vectors=()) -> tuple[list, dict]:
    """(payloads, {generator: dense matrix}) of the G-stable slice read
    from the whole orbit, the reference for ``slice_of_normal_module``:
    every element acts on every seed, one dense elimination of the
    element-major orbit picks the independent orbit vectors as
    payloads, and M_g sends the payload (j, seed) to the coordinates of
    the orbit vector (gj, seed), once act(g, payload) is checked to be
    that vector."""
    pres, ring = module.amb.pres, module.ring
    group, field = module.amb.action, ring.field
    seeds = []
    for j in range(module.rank):
        for m in pres.std_monomials_upto(degree):
            vec = [ring.zero] * module.rank
            vec[j] = ring.monomial(m)
            seeds.append(tuple(vec))
    seeds += [tuple(pres.nf(p) for p in v) for v in extra_vectors]
    orbit = [s if i == group.identity_index else module.act(i, s)
             for i in group.indices() for s in seeds]
    keys = sorted({(pos, m) for v in orbit for pos, p in enumerate(v) for m in p.terms})
    red, kept = rref(field, [[v[pos].terms.get(m, field.zero) for v in orbit]
                             for pos, m in keys])

    def image(g, k):
        j, seed = divmod(k, len(seeds))
        return group.mul(g, j) * len(seeds) + seed

    for g in group.generators:
        for k in kept:
            if module.act(g, orbit[k]) != orbit[image(g, k)]:
                raise CocycleError("slice is not closed under the action")
    matrices = {g: [[red[r][image(g, k)] for k in kept] for r in range(len(kept))]
                for g in group.generators}
    return [orbit[k] for k in kept], matrices


# --- group cohomology over all pairs of elements ----------------------------
# The cocycle, fixed-vector and coboundary conditions written out over
# every pair of group elements, with dense matrices and the dense
# eliminator above.  eqdeform.cohomology imposes them on the generators
# only; these copies are its reference.

def _words(group) -> dict:
    """A word (s_1, ..., s_k) in the generators for every element, the
    product s_1 * ... * s_k, found from the group table by multiplying
    on the left outward from e."""
    words = {group.identity_index: ()}
    frontier = [group.identity_index]
    while frontier:
        grown = []
        for a in frontier:
            for s in group.generators:
                sa = group.table[s][a]
                if sa not in words:
                    words[sa] = (s,) + words[a]
                    grown.append(sa)
        frontier = grown
    return words


def _dense_matmul(field: Field, a: list[list], b: list[list]) -> list[list]:
    """a b for square dense matrices."""
    out = []
    for row in a:
        acc = [field.zero] * len(row)
        for x, brow in zip(row, b):
            if x != field.zero:
                acc = [field.add(u, field.mul(x, v)) for u, v in zip(acc, brow)]
        out.append(acc)
    return out


_MATRICES = weakref.WeakKeyDictionary()  # GModuleSlice -> {element: dense M_i}


def _action_matrix(m, i) -> list[list]:
    """M_i of the GModuleSlice m as dense rows: the product of its
    generator matrices along a word for i."""
    field = m.field
    cache = _MATRICES.setdefault(m, {})
    if i not in cache:
        mat = [[field.one if r == c else field.zero for c in range(m.dim)]
               for r in range(m.dim)]
        for s in _words(m.group)[i]:
            mat = _dense_matmul(field, mat, [dense(field, row, m.dim)
                                             for row in m.matrices[s]])
        cache[i] = mat
    return cache[i]


def _act(m, i, v) -> list:
    field = m.field
    out = []
    for row in _action_matrix(m, i):
        total = field.zero
        for a, b in zip(row, v):
            total = field.add(total, field.mul(a, b))
        out.append(total)
    return out


def coboundary(m, phi) -> list:
    """The flat cochain (s.phi - phi)_{s != e} of the dense vector phi."""
    field = m.field
    return [field.sub(a, b) for s in _nonidentity(m)
            for a, b in zip(_act(m, s, phi), phi)]


def _nonidentity(m) -> list[int]:
    return [s for s in m.group.indices() if s != m.group.identity_index]


def values(m, flat) -> dict:
    """The flat cochain as its values {s: dense c(s)} over every s != e,
    the input of ``solve_coboundary`` below."""
    return {s: flat[k * m.dim:(k + 1) * m.dim] for k, s in enumerate(_nonidentity(m))}


def _minus_identity_rows(m) -> list[list]:
    """The rows of M_s - I, stacked over all s != e in index order."""
    field = m.field
    rows = []
    for s in _nonidentity(m):
        for r, row in enumerate(_action_matrix(m, s)):
            rows.append([field.sub(x, field.one) if c == r else x for c, x in enumerate(row)])
    return rows


def invariants(m) -> list[list]:
    """Basis of the vectors fixed by every element s != e."""
    return kernel_basis(m.field, _minus_identity_rows(m), m.dim)


def cocycle_rows(m, elements) -> list[list]:
    """Dense rows of c(st) = s.c(t) + c(s) for the given s and every t,
    over the flat cochains (c(s))_{s != e}, one dim-block per s != e,
    with c(e) = 0."""
    field = m.field
    group = m.group
    offset = {s: k * m.dim for k, s in enumerate(_nonidentity(m))}
    ncols = m.dim * len(offset)
    rows = []
    for i in elements:
        mat = _action_matrix(m, i)
        for j in group.indices():
            for r in range(m.dim):
                row = [field.zero] * ncols
                terms = [(group.mul(i, j), r, field.one), (i, r, field.neg(field.one))]
                terms += [(j, c, field.neg(x)) for c, x in enumerate(mat[r])]
                for s, c, x in terms:
                    if s in offset:
                        row[offset[s] + c] = field.add(row[offset[s] + c], x)
                rows.append(row)
    return rows


def zcocycles(m) -> list[list]:
    """Basis of Z^1 as flat cochains, from the identity on all pairs."""
    return kernel_basis(m.field, cocycle_rows(m, m.group.indices()),
                        m.dim * len(_nonidentity(m)))


def solve_coboundary(m, cochain) -> list | None:
    """phi with s.phi - phi = c(s) for every s != e, or None; the cocycle
    identity of the cochain (a dense vector per s != e) is checked on all
    |G|^2 pairs first, raising CocycleError."""
    field = m.field
    group = m.group

    def val(i):
        return [field.zero] * m.dim if i == group.identity_index else cochain[i]

    for i in group.indices():
        for j in group.indices():
            rhs = [field.add(a, b) for a, b in zip(_act(m, i, val(j)), val(i))]
            if val(group.mul(i, j)) != rhs:
                raise CocycleError("input does not satisfy the cocycle identity")
    if m.dim == 0:
        return []
    return solve(field, _minus_identity_rows(m), [x for s in _nonidentity(m) for x in val(s)])


def cocycle_identity_holds(c) -> bool:
    """Whether the ``Cocycle`` c satisfies c(ij) = i.c(j) + c(i) on every
    pair (i, j) of group elements, in normal form."""
    module = c.module
    group = module.amb.action
    nf = module.amb.pres.nf
    for i in group.indices():
        for j in group.indices():
            rhs = tuple(nf(a + b) for a, b in zip(module.act(i, c.value(j)), c.value(i)))
            if rhs != c.value(group.mul(i, j)):
                return False
    return True


def h1_bounded(m_small, m_big) -> list[int]:
    """Indices into ``zcocycles(m_small)`` of the cocycles that stay
    independent modulo B^1(m_big), greedily in order: Z^1(m_small) is
    embedded through the payload coefficients, and the coboundaries of
    the unit vectors of m_big are compared with it on every s != e."""
    field = m_small.field
    keys = sorted({(j, mono) for vec in m_small.payloads + m_big.payloads
                   for j, poly in enumerate(vec) for mono in poly.terms})

    def coefficients(vec):
        return [vec[j].terms.get(mono, field.zero) for j, mono in keys]

    big = list(zip(*(coefficients(v) for v in m_big.payloads)))
    emb = [solve(field, big, coefficients(v)) for v in m_small.payloads]
    assert all(x is not None for x in emb), "small slice does not embed"

    def embed(flat):
        out = []
        for block in values(m_small, flat).values():
            image = [field.zero] * m_big.dim
            for c, x in zip(block, emb):
                image = [field.add(a, field.mul(c, b)) for a, b in zip(image, x)]
            out += image
        return out

    units = [[field.one if j == k else field.zero for j in range(m_big.dim)]
             for k in range(m_big.dim)]
    columns = [coboundary(m_big, e) for e in units]
    columns += [embed(z) for z in zcocycles(m_small)]
    _, pivots = rref(field, [list(row) for row in zip(*columns)])
    return [c - m_big.dim for c in pivots if c >= m_big.dim]


# --- dense eps-polynomials ----------------------------------------------------
# The first EpsPoly, kept apart from eqdeform.deform: one ambient
# polynomial per eps power 0..order, zeros included.

class DenseEpsPoly:
    """Polynomial over k[eps]/(eps^(order+1)) as a tuple of order + 1
    coefficients."""

    def __init__(self, ring: PolyRing, order: int, coeffs):
        coeffs = list(coeffs)[: order + 1]
        coeffs += [ring.zero] * (order + 1 - len(coeffs))
        self.ring = ring
        self.order = order
        self.coeffs = tuple(coeffs)

    def coeff(self, t: int) -> Polynomial:
        return self.coeffs[t] if t <= self.order else self.ring.zero

    def __eq__(self, other):
        return (isinstance(other, DenseEpsPoly) and other.ring is self.ring
                and other.order == self.order and other.coeffs == self.coeffs)

    def __add__(self, other):
        return DenseEpsPoly(self.ring, self.order,
                            [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return DenseEpsPoly(self.ring, self.order,
                            [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def shift(self, t: int) -> "DenseEpsPoly":
        return DenseEpsPoly(self.ring, self.order, [self.ring.zero] * t + list(self.coeffs))

    def truncate(self, order: int) -> "DenseEpsPoly":
        return DenseEpsPoly(self.ring, order, self.coeffs[: order + 1])

    def lift(self, order: int) -> "DenseEpsPoly":
        return DenseEpsPoly(self.ring, order, self.coeffs)

    def __repr__(self):
        pieces = []
        for t, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if t == 0:
                pieces.append(repr(c))
            else:
                power = "eps" if t == 1 else f"eps^{t}"
                pieces.append(f"{power}*({c!r})")
        return " + ".join(pieces) if pieces else "0"


def truncate(a: EpsPoly, order: int) -> EpsPoly:
    """a over k[eps]/(eps^(order+1)): its coefficients at powers <= order."""
    return EpsPoly(a.ring, order, a.terms)


# --- eps-order peeling ------------------------------------------------------
# A copy of the first eps_divide, kept apart from eqdeform.deform: it
# divides every stage afresh, eps^0 included (the equivariance divisions
# subtract the twist cofactors first, which cancels eps^0), works on
# whole EpsPoly values instead of one coefficient list, and keeps the
# quotients.

def eps_coeffs(a: EpsPoly) -> list:
    """All order + 1 eps coefficients of a, zeros included."""
    return [a.coeff(t) for t in range(a.order + 1)]


def eps_mul(a: EpsPoly, b: EpsPoly) -> EpsPoly:
    """The product in k[x][eps]/(eps^(order+1))."""
    if a.ring is not b.ring or a.order != b.order:
        raise DeformationError("eps-polynomials over different bases")
    out = [a.ring.zero] * (a.order + 1)
    for s, p in enumerate(eps_coeffs(a)):
        for t, q in enumerate(eps_coeffs(b)[: a.order + 1 - s]):
            out[s + t] = out[s + t] + p * q
    return EpsPoly(a.ring, a.order, out)


def eps_divide(h: EpsPoly, gens, representer, allow_final_remainder=False):
    """(S, remainder) with h = sum S_l gens_l + eps^order * remainder
    exactly over the truncated base; remainder is None on full success.
    Raises DeformationError when an intermediate stage leaves the ideal."""
    ring = h.ring
    order = h.order
    S = [EpsPoly(ring, order, []) for _ in gens]
    r = h
    for t in range(order + 1):
        rt = r.coeff(t)
        if rt.is_zero():
            continue
        cof = representer.express(rt)
        if cof is None:
            if allow_final_remainder and t == order:
                return S, rt
            raise DeformationError(
                f"eps^{t} coefficient is not in the base ideal"
            )
        for l, c in enumerate(cof):
            if c.is_zero():
                continue
            piece = EpsPoly.constant(ring, order, c).shift(t)
            S[l] = S[l] + piece
            r = r - eps_mul(piece, gens[l])
    return S, None


def defect_cocycle(amb, gens):
    """(values, exact) for a lift ``gens`` of an equivariant deformation:
    sigma(F_j) is divided for every sigma != e, not the generators'
    inverses only, and c(sigma) = NF(sigma(w_{sigma^-1})) with w the
    final remainders; ``exact`` says whether every division was exact."""
    action = amb.action
    others = [i for i in action.indices() if i != action.identity_index]
    remainders = {}
    for i in others:
        remainders[i] = []
        for g in gens:
            moved = EpsPoly(g.ring, g.order, [action.apply(i, c) for c in eps_coeffs(g)])
            remainders[i].append(eps_divide(moved, list(gens), amb.pres.representer,
                                            allow_final_remainder=True)[1])
    values = {
        s: tuple(amb.ring.zero if w is None else amb.pres.nf(action.apply(s, w))
                 for w in remainders[action.inv(s)])
        for s in others
    }
    exact = all(w is None for row in remainders.values() for w in row)
    return values, exact


# --- group tables by composing every pair ------------------------------------
# close_group reads its table off the closure walk by associativity; this
# is the closure by frontiers and the table by |G|^2 compositions, each
# one a polynomial substitution.

def compose_by_substitution(s: Substitution, t: Substitution) -> Substitution:
    """s after t, each image of t with s's images substituted in."""
    return Substitution(s.ring, [s.apply(g) for g in t.images])


def composed_table(ring: PolyRing, subs, bound: int) -> tuple:
    """(elements, table, inverse) of the group the substitutions generate:
    elements in the order a breadth-first closure by right
    multiplication meets them, table[i][j] the index of
    compose_by_substitution(elements[i], elements[j]), inverse[i] the
    first j with table[i][j] = 0.  Raises ClosureBoundExceededError as soon as a new
    element would exceed bound."""
    identity = Substitution.identity(ring)
    elements, frontier = [identity], [identity]
    while frontier:
        new = []
        for s in frontier:
            for g in subs:
                t = compose_by_substitution(s, g)
                if t not in elements:
                    if len(elements) >= bound:
                        raise ClosureBoundExceededError(f"group closure exceeds bound {bound}")
                    elements.append(t)
                    new.append(t)
        frontier = new
    table = [[elements.index(compose_by_substitution(s, t)) for t in elements]
             for s in elements]
    inverse = [row.index(0) for row in table]
    return elements, table, inverse


def cayley_tree(group) -> list:
    """The spanning tree of the Cayley graph found breadth-first from e
    over the group's table by right multiplication with its generators:
    one edge (a, g, ag) per nonidentity element, a reached before ag."""
    edges, queue, seen = [], [group.identity_index], {group.identity_index}
    for a in queue:  # grows while it is walked
        for g in group.generators:
            ag = group.table[a][g]
            if ag not in seen:
                seen.add(ag)
                queue.append(ag)
                edges.append((a, g, ag))
    return edges


# --- flows multiplied out ------------------------------------------------------

def flow_by_substitution(d, components) -> tuple:
    """The generators of d after x_i -> x_i + eps^m D_i, every eps
    coefficient of every F_j substituted term by term with eps-polynomial
    images and multiplied out in full over the truncated base."""
    ring, m = d.amb.ring, d.order
    images = [EpsPoly.constant(ring, m, x) + EpsPoly.constant(ring, m, comp).shift(m)
              for x, comp in zip(ring.gens(), components)]
    out = []
    for g in d.gens:
        total = EpsPoly(ring, m, [])
        for t, coeff in enumerate(eps_coeffs(g)):
            for mono, c in coeff.terms.items():
                part = EpsPoly.constant(ring, m, ring.const(c))
                for image, e in zip(images, mono):
                    for _ in range(e):
                        part = eps_mul(part, image)
                total = total + part.shift(t)
        out.append(total)
    return tuple(out)


# --- the search two degrees up ----------------------------------------------
# obstruction_space and the slice route of tangent_spaces with the
# coboundary and image searches at D + SLACK on every input, through a
# second slice distinct from the value slice: the graded equal-degree
# path searches at D itself, and these are its reference.

def slack_obstruction_space(amb, D: int) -> ObstructionReport:
    """H^1(G, N) with Z^1 from the slice at D and B^1 from a second slice
    at D + SLACK, embedded through ``express``."""
    if amb.action.is_tame() or not amb.pres.gens:
        return ObstructionReport(0, [], "exact")
    N = NormalModule(amb)
    m_small = slice_of_normal_module(N, D)
    m_big = slice_of_normal_module(N, D + SLACK)
    classes = cohomology.h1_bounded(m_small, m_big)  # not the all-pairs copy above
    others = [i for i in amb.action.indices() if i != amb.action.identity_index]
    reps = [Cocycle(N, {s: m_small.materialize(z.get(s, {})) for s in others})
            for z in classes]
    return ObstructionReport(len(reps), reps, f"slice:{D}")


def slack_tangent_quotient(amb, D: int) -> list:
    """The T^1_G representatives of the slice route: invariant normal
    vectors of degree <= D modulo the normal images of the invariant
    derivations of degree <= D + SLACK."""
    V = invariant_normal_slice(amb, D)
    U = [normal_image(amb, v) for v in ambient_vector_slice(amb, D + SLACK)]
    coords = _SliceCoordinates()
    _, kept = span_modulo(amb.ring.field, (coords.row(u) for u in U),
                          (coords.row(v) for v in V))
    return [V[k] for k in kept]


def joint_derivations(amb, degree: int) -> list:
    """The degree <= degree slice of T^0_G by one joint elimination: the
    rows J.D = 0 mod I of each unknown D = x^m e_i next to its invariance
    rows under the generators, in one ``kernel_basis``."""
    ring = amb.ring
    field = ring.field
    zero = field.zero
    unknowns = [(i, m) for i in range(ring.nvars) for m in amb.pres.std_monomials_upto(degree)]
    rows: dict = {}
    for u, (i, m) in enumerate(unknowns):
        unit = tuple(ring.monomial(m) if k == i else ring.zero for k in range(ring.nvars))
        for j, p in enumerate(normal_image(amb, unit)):
            for mono, c in p.terms.items():
                rows.setdefault((None, j, mono), {})[u] = c
        for g, cols in amb.inverse_linear_columns.items():
            image = amb._monomial_image(g, m).terms
            for r, c in cols[i]:
                entries = {mono: field.mul(c, d) for mono, d in image.items()} \
                    if c != zero else {}
                if r == i:
                    x = field.sub(entries.get(m, zero), field.one)
                    if x == zero:
                        del entries[m]
                    else:
                        entries[m] = x
                for mono, x in entries.items():
                    rows.setdefault((g, r, mono), {})[u] = x
    basis = []
    for sol in linalg.kernel_basis(field, list(rows.values()), len(unknowns)):
        vec = [ring.zero] * ring.nvars
        for u, coeff in sol.items():
            i, m = unknowns[u]
            vec[i] = vec[i] + coeff * ring.monomial(m)
        basis.append(tuple(vec))
    return basis


def reduce_vec_by_scan(ring: PolyRing, v: dict, basis: list) -> dict:
    """The normal form of v as ``groebner.reduce_vec`` took it before its
    heap: each step finds the largest term by a scan of the whole work
    dict and subtracts the first basis entry whose leading term divides
    it into a copy of that dict.  Its remainder must be the heap's, term
    for term and in the same order."""
    field = ring.field
    work = dict(v)
    done = {}
    while work:
        t = _vec_lt(ring, work)
        pos, m = t
        for g, (gpos, gm) in basis:
            if gpos == pos and monomial_divides(gm, m):
                work = vec_sub_scaled(field, work, g, work[t], monomial_div(m, gm))
                break
        else:
            done[t] = work.pop(t)
    return done


def slice_derivations(amb, degree: int) -> list:
    """A k-basis of the degree <= degree slice of T^0_G as ambient
    derivation vectors: the kernel of the normal-image map on the
    invariant slice, one ``kernel_basis`` over the images (as columns),
    each kernel vector the combination of the slice basis it names.  It
    checks that ``derivations``, which counts that kernel by one rank and
    forms no vector, counts the space the vectors span."""
    basis, images = amb.vector_slice(degree)
    ring = amb.ring
    coords = _SliceCoordinates()
    columns = [coords.row(u) for u in images]
    kernel = linalg.kernel_basis(ring.field, linalg.transpose(columns, len(coords.index)),
                                 len(basis))
    return [tuple(_combination(ring, ((c, basis[k][i]) for k, c in sol.items()))
                  for i in range(ring.nvars))
            for sol in kernel]


def row_space(field: Field, vector_lists) -> list:
    """For each list of vectors of polynomials, the nonzero rows of the
    dense reduced echelon form of their coefficients, all on one set of
    (position, monomial) columns: two lists span the same space exactly
    when their results are equal."""
    coords = _SliceCoordinates()
    sparse_lists = [[coords.row(v) for v in vectors] for vectors in vector_lists]
    n = len(coords.index)
    out = []
    for rows in sparse_lists:
        red, pivots = rref(field, [dense(field, row, n) for row in rows])
        out.append(red[:len(pivots)])
    return out


# --- Q with every element a Fraction ------------------------------------------

class FractionRationals(Field):
    """Q as it was before the canonical form: every element, integers
    included, is a ``Fraction``."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, value):
        return Fraction(value)

    def add(self, a, b):
        return Fraction(a) + Fraction(b)

    def sub(self, a, b):
        return Fraction(a) - Fraction(b)

    def neg(self, a):
        return -Fraction(a)

    def mul(self, a, b):
        return Fraction(a) * Fraction(b)

    def inv(self, a):
        return 1 / Fraction(a)

    def fraction(self, num: int, den: int):
        return Fraction(num, den)

    def render(self, a) -> str:
        return str(a)


FRACTION_QQ = FractionRationals()


def is_canonical_rational(x) -> bool:
    """An ``int``, or a ``Fraction`` whose denominator exceeds one."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


# --- term sums entry by entry -------------------------------------------------

def _add_entry(field: Field, terms: dict, key, x) -> None:
    """terms[key] += x through ``field.add``, dropping a zero sum."""
    s = field.add(terms.get(key, field.zero), x)
    if s == field.zero:
        terms.pop(key, None)
    else:
        terms[key] = s


def poly_add(f: Polynomial, g: Polynomial) -> Polynomial:
    """f + g: a copy of f's terms with g's added in g's order."""
    terms = dict(f.terms)
    for m, c in g.terms.items():
        _add_entry(f.ring.field, terms, m, c)
    return Polynomial(f.ring, terms)


def poly_sub(f: Polynomial, g: Polynomial) -> Polynomial:
    """f - g as f + (-g)."""
    return poly_add(f, -g)


def combination(ring: PolyRing, pairs) -> Polynomial:
    """sum c * p over the (c, p) pairs; the polynomial itself when it is
    the only nonzero one and c = 1."""
    pairs = [(c, p) for c, p in pairs if p]
    if len(pairs) == 1 and pairs[0][0] == ring.field.one:
        return pairs[0][1]
    field, terms = ring.field, {}
    for c, p in pairs:
        for m, d in p.terms.items():
            _add_entry(field, terms, m, field.mul(c, d))
    return Polynomial(ring, terms)


def vec_sub_scaled(field: Field, v: dict, w: dict, coeff, shift) -> dict:
    """v - coeff * x^shift * w for module vectors {(pos, exps): coeff}."""
    out = dict(v)
    for (pos, m), c in w.items():
        _add_entry(field, out, (pos, monomial_mul(m, shift)), field.neg(field.mul(coeff, c)))
    return out


def spair(ring: PolyRing, f: dict, flt, g: dict, glt) -> dict:
    """The S-vector of f and g with leading terms flt and glt."""
    field = ring.field
    lcm = monomial_lcm(flt[1], glt[1])
    s1 = vec_sub_scaled(field, {}, f, field.neg(field.inv(f[flt])), monomial_div(lcm, flt[1]))
    return vec_sub_scaled(field, s1, g, field.inv(g[glt]), monomial_div(lcm, glt[1]))


def _vec(f: Polynomial) -> dict:
    return {(0, m): c for m, c in f.terms.items()}


def _poly(ring: PolyRing, v: dict) -> Polynomial:
    return Polynomial(ring, {m: c for (_, m), c in v.items()})


def reduced_groebner(ring: PolyRing, polys) -> list[Polynomial]:
    """The reduced, monic Groebner basis of the ideal the polynomials
    generate, in no particular order: Buchberger with no criteria on
    ``spair`` and ``reduce_vec_by_scan``, so every sum goes through
    ``field.add``.  The pending vector of least leading degree is reduced
    first, and each new element is reduced by the ones before it, so no
    two share a leading term."""
    field = ring.field
    basis, pending = [], [_vec(f) for f in polys]
    while pending:
        pending.sort(key=lambda v: -sum(_vec_lt(ring, v)[1]) if v else 0)
        v = reduce_vec_by_scan(ring, pending.pop(), basis)
        if v:
            lt = _vec_lt(ring, v)
            v = {t: field.mul(field.inv(v[lt]), c) for t, c in v.items()}
            pending += [spair(ring, v, lt, g, glt) for g, glt in basis]
            basis.append((v, lt))
    # keep the leading terms that no other one divides, each element
    # reduced by the others
    minimal = [(g, lt) for g, lt in basis if not any(
        other != lt and monomial_divides(other[1], lt[1]) for _, other in basis)]
    return [_poly(ring, reduce_vec_by_scan(ring, g, [e for e in minimal if e[1] != lt]))
            for g, lt in minimal]


def normal_form_by_scan(basis: list[Polynomial], f: Polynomial) -> Polynomial:
    """The normal form of f by a monic Groebner basis, through
    ``reduce_vec_by_scan``."""
    pairs = [(_vec(g), (0, g.leading_monomial())) for g in basis]
    return _poly(f.ring, reduce_vec_by_scan(f.ring, _vec(f), pairs))


def substitute_summed(f: Polynomial, images: list) -> Polynomial:
    """f with x_i -> images[i]: each term c*x^m is c times the image
    powers, left to right, and the terms are summed by ``poly_add`` in
    f's term order."""
    ring = images[0].ring
    result = ring.zero
    for m, c in f.terms.items():
        part = ring.const(c)
        for g, e in zip(images, m):
            if e:
                power = g
                for _ in range(e - 1):
                    power = power * g
                part = part * power
        result = poly_add(result, part)
    return result
