"""Independent brute-force oracles.

Everything here works on raw coefficient vectors with its own plain
dense linear algebra (or honest enumeration over F_2) and never calls
the Groebner machinery or ``eqdeform.linalg``, so it can vouch for the
main implementation.  Two exceptions lean on the package for polynomial
work only.  The invariant vector slice takes its condition vectors from
``eqdeform.ambient`` (normal forms included): it checks which conditions
``ambient_vector_slice`` imposes and how it eliminates them.  The
eps-peeling copy at the end is handed a Groebner representer: it checks
the stage bookkeeping of ``eqdeform.deform.eps_divide``, not the
membership test.
"""

from __future__ import annotations

from eqdeform.ambient import derivation_action, normal_image
from eqdeform.cohomology import CocycleError
from eqdeform.deform import DeformationError, EpsPoly
from eqdeform.fields import Field
from eqdeform.poly import PolyRing, Polynomial, monomial_degree


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
    target_monos = ring.monomials_upto(total_bound)
    index = {m: i for i, m in enumerate(target_monos)}
    unknowns = []
    columns = []
    for gi, g in enumerate(gens):
        if g.is_zero():
            continue
        for m in ring.monomials_upto(max(total_bound - g.degree(), 0)):
            unknowns.append((gi, m))
            columns.append(_coeff_vector(g.mul_monomial(m), target_monos, index))
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
            cofs[gi] = cofs[gi] + ring.monomial(m, value)
    return cofs


def module_quotient_slice_dim(ring: PolyRing, rank: int, relations, ideal_gens,
                              degree: int) -> int:
    """dim_k of (degree <= degree slice of B^rank) / (bounded relation span),
    with B = P/(ideal_gens), entirely by coefficient linear algebra."""
    monos = ring.monomials_upto(degree)
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
        for m in ring.monomials_upto(max(degree - rel_deg, 0)):
            add_vector(tuple(p.mul_monomial(m) for p in rel))
    for f in ideal_gens:
        fdeg = f.degree()
        for pos in range(rank):
            for m in ring.monomials_upto(max(degree - fdeg, 0)):
                vec = [ring.zero] * rank
                vec[pos] = f.mul_monomial(m)
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
    target = ring.monomials_upto(target_deg)
    index = {m: i for i, m in enumerate(target)}

    v_unknowns = [(k, m) for k in range(r) for m in ring.monomials_upto(degree)]
    w_unknowns = [
        (j, gi, m)
        for j in range(c)
        for gi in range(len(ideal_gens))
        for m in ring.monomials_upto(cof_bound)
    ]
    columns = []
    for (k, m) in v_unknowns:
        col = []
        for j in range(c):
            col.extend(_coeff_vector(map_matrix[j][k].mul_monomial(m), target, index))
        columns.append(col)
    for (j, gi, m) in w_unknowns:
        col = []
        for jj in range(c):
            if jj == j:
                col.extend(_coeff_vector(ideal_gens[gi].mul_monomial(m), target, index))
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
                vec[k] = vec[k] + ring.monomial(m, value)
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
    """``ambient_vector_slice(amb, degree, invariant=True, tangent=tangent)``
    with the invariance imposed by every s != e, not the generators only,
    on dense rows: one per (condition slot, monomial), a column per
    unknown (ambient variable, standard monomial)."""
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
                image += [a - b for a, b in zip(derivation_action(amb, s, v), v)]
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
                vec[i] = vec[i] + ring.monomial(m, value)
        basis.append(tuple(vec))
    return basis


# --- group cohomology over all pairs of elements ----------------------------
# The cocycle, fixed-vector and coboundary conditions written out over
# every pair of group elements, with dense matrices and the dense
# eliminator above.  eqdeform.cohomology imposes them on the generators
# only; these copies are its reference.

def _action_matrix(m, i) -> list[list]:
    """M_i of the GModuleSlice m as dense rows."""
    return [[row.get(c, m.field.zero) for c in range(m.dim)] for row in m.matrices[i]]


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


# --- eps-order peeling ------------------------------------------------------
# A copy of the first eps_divide, kept apart from eqdeform.deform: it
# divides every stage afresh (no stage-0 cofactors), works on whole
# EpsPoly values instead of one coefficient list, and keeps the quotients.

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
            r = r - piece * gens[l]
    return S, None
