"""Group cohomology H^0 and H^1 on finite slices.

A ``GModuleSlice`` is a finite-dimensional k[G]-module: a basis of
normal-form module vectors together with exact action matrices.  For
filtered infinite modules, slices are the span of the G-orbit of all
standard-monomial vectors up to a degree bound, so they are honestly
G-stable even when the twist matrices are non-constant.

The cocycle convention is c(s*t) = s.c(t) + c(s) and the coboundary of
phi is s -> s.phi - phi.  A cocycle, a fixed vector and a representation
are each determined by, and checked on, the group's generators: every
element is a word in them.  For a filtered module, a vanishing answer
from ``solve_coboundary`` is exact; non-vanishing is certified only up
to the slice bound unless the setup is graded (see deform).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ambient import NormalModule, _SliceCoordinates
from .gaction import GroupAction
from .linalg import add_scaled, kernel_basis, rref, solve, span_modulo, transpose


class CocycleError(ValueError):
    pass


class GModuleSlice:
    """Finite k[G]-module with exact action matrices (rows act on columns).

    Each matrix is a list of ``dim`` sparse rows ``{column: value}`` that
    hold no zero values.  The representation property is verified on the
    group's generators (see ``_check_representation``)."""

    def __init__(self, group: GroupAction, field, matrices, payloads=None):
        self.group = group
        self.field = field
        self.matrices = matrices          # per element: dim sparse rows
        self.payloads = payloads          # optional module vectors per basis element
        self.dim = len(matrices[0]) if matrices and matrices[0] else 0
        self._check_representation()

    def _check_representation(self):
        """M_e = I and M_s M_j = M_{sj} for each generator s and every j;
        every element is a word in the generators, so by induction on its
        length this gives M_i M_j = M_{ij} for all pairs."""
        group = self.group
        if self.matrices[group.identity_index] != [{r: self.field.one}
                                                   for r in range(self.dim)]:
            raise CocycleError("identity does not act as the identity matrix")
        for s in group.generators:
            for j in group.indices():
                prod = self._matmul(self.matrices[s], self.matrices[j])
                if prod != self.matrices[group.mul(s, j)]:
                    raise CocycleError("action matrices violate the representation property")

    def _matmul(self, a, b):
        """a b, each output row the sum of the rows of b that the entries
        of the row of a pick out."""
        out = []
        for row in a:
            acc = {}
            for k, x in row.items():
                add_scaled(self.field, acc, x, b[k])
            out.append(acc)
        return out

    def act(self, i: int, coords):
        """M_i times the dense coordinate vector coords, as a dense list."""
        field = self.field
        out = []
        for row in self.matrices[i]:
            s = field.zero
            for k, x in row.items():
                s = field.add(s, field.mul(x, coords[k]))
            out.append(s)
        return out

    def materialize(self, coords):
        """Module vector for a coordinate vector (payload slices only)."""
        if self.payloads is None:
            raise ValueError("abstract slice has no payload vectors")
        vec = None
        for c, payload in zip(coords, self.payloads):
            if c == self.field.zero:
                continue
            scaled = tuple(p.scale(c) for p in payload)
            vec = scaled if vec is None else tuple(a + b for a, b in zip(vec, scaled))
        if vec is None:
            rank = len(self.payloads[0]) if self.payloads else 0
            ring = self.payloads[0][0].ring if self.payloads else None
            vec = (ring.zero,) * rank if ring is not None else ()
        return vec

    def express(self, vecs) -> list:
        """For each module vector, its coordinates over the payload basis
        as a sparse ``{payload index: value}`` dict, or None; one
        elimination serves the whole list."""
        if self.payloads is None:
            raise ValueError("abstract slice has no payload vectors")
        coords = _SliceCoordinates()
        cols = [coords.row(p) for p in self.payloads]
        rhs = [coords.row(v) for v in vecs]
        return solve(self.field, cols, rhs, len(coords.index))


def slice_of_normal_module(module: NormalModule, degree: int,
                           extra_vectors=()) -> GModuleSlice:
    """G-stable slice of the normal module: span of the G-orbit of all
    standard-monomial vectors of degree <= degree (plus extra seeds).

    The payloads are the pivot columns of the one elimination of the
    orbit vectors, and M_i sends payload j.s to orbit vector (ij).s."""
    pres = module.amb.pres
    ring = module.ring
    group = module.amb.action
    field = ring.field
    seeds = []
    for j in range(module.rank):
        for m in pres.std_monomials_upto(degree):
            vec = [ring.zero] * module.rank
            vec[j] = ring.monomial(m)
            seeds.append(tuple(vec))
    for v in extra_vectors:
        seeds.append(tuple(pres.nf(p) for p in v))

    # orbit[i * len(seeds) + k] is element i applied to seed k
    orbit = []
    for i in group.indices():
        for s in seeds:
            orbit.append(module.act(i, s) if i != group.identity_index else s)
    coords = _SliceCoordinates()
    columns = [coords.row(v) for v in orbit]
    red, kept = rref(field, transpose(columns, len(coords.index)))
    orbit_coords = transpose(red, len(orbit))

    def image(i, k):
        """Orbit index of element i applied to orbit vector k."""
        j, seed = divmod(k, len(seeds))
        return group.mul(i, j) * len(seeds) + seed

    for g in group.generators:
        for k in kept:
            if module.act(g, orbit[k]) != orbit[image(g, k)]:
                raise CocycleError("slice is not closed under the action")
    matrices = [transpose([orbit_coords[image(i, k)] for k in kept], len(kept))
                for i in group.indices()]
    return GModuleSlice(group, field, matrices, payloads=[orbit[k] for k in kept])


def invariants(m: GModuleSlice):
    """Coordinate basis of the simultaneous fixed space H^0."""
    return kernel_basis(m.field, _action_minus_identity(m, m.group.generators), m.dim)


def _nontrivial(m: GModuleSlice):
    return [i for i in m.group.indices() if i != m.group.identity_index]


def _action_minus_identity(m: GModuleSlice, elements):
    """The sparse rows of M_s - I, stacked over the given elements in
    order."""
    field = m.field
    minus = field.neg(field.one)
    rows = []
    for s in elements:
        for r, row in enumerate(m.matrices[s]):
            row = dict(row)
            add_scaled(field, row, minus, {r: field.one})
            rows.append(row)
    return rows


def _cocycle_rows(m: GModuleSlice):
    """Linear conditions on (c(s))_{s != e} from c(st) = s.c(t) + c(s) for
    generators s, as sparse rows over the flat unknowns, one dim-block per
    s != e; with c(e) = 0 they give it for all s, by induction on words."""
    field = m.field
    minus = field.neg(field.one)
    offset = {s: k * m.dim for k, s in enumerate(_nontrivial(m))}
    rows = []

    def put(row, s, factor, entries):
        if s in offset:  # c(e) = 0
            add_scaled(field, row, factor,
                       {offset[s] + c: x for c, x in entries.items()})

    for i in m.group.generators:
        for j in m.group.indices():
            for r in range(m.dim):
                row = {}
                put(row, m.group.mul(i, j), field.one, {r: field.one})
                put(row, j, minus, m.matrices[i][r])
                put(row, i, minus, {r: field.one})
                if row:
                    rows.append(row)
    return rows


def zcocycles(m: GModuleSlice):
    """Basis of Z^1 as flat coordinate vectors, one dim-block per s != e."""
    return kernel_basis(m.field, _cocycle_rows(m), m.dim * len(_nontrivial(m)))


def coboundary_of(m: GModuleSlice, phi_coords):
    """The flat cochain (s.phi - phi)_{s != e}."""
    field = m.field
    out = []
    for s in _nontrivial(m):
        img = m.act(s, phi_coords)
        out.extend([field.sub(a, b) for a, b in zip(img, phi_coords)])
    return out


def _unit_coboundaries(m: GModuleSlice):
    """Coboundaries of the coordinate unit vectors, which span B^1: the
    coboundary of e_k is column k of the stacked M_s - I, a sparse row."""
    return transpose(_action_minus_identity(m, _nontrivial(m)), m.dim)


@dataclass
class H1Result:
    dimension: int
    representatives: list  # flat cochain coordinate vectors


def h1(m: GModuleSlice) -> H1Result:
    """Plain H^1(G, m) for the finite module m."""
    field = m.field
    z_basis = zcocycles(m)
    if not z_basis:
        return H1Result(0, [])
    b_dim, kept = span_modulo(field, _unit_coboundaries(m),
                              ({k: x for k, x in enumerate(z) if x != field.zero}
                               for z in z_basis))
    return H1Result(len(z_basis) - b_dim, [z_basis[k] for k in kept])


def h1_bounded(m_small: GModuleSlice, m_big: GModuleSlice) -> H1Result:
    """Classes of Z^1(m_small) not killed by coboundaries from m_big.

    m_small's payload vectors must lie inside m_big; this implements the
    slice policy for filtered modules (value slice at D, coboundary
    search at a higher bound)."""
    field = m_small.field
    z_small = zcocycles(m_small)
    if not z_small:
        return H1Result(0, [])
    emb = m_big.express(m_small.payloads)
    if any(coords is None for coords in emb):
        raise CocycleError("small slice does not embed in the search slice")
    dim_s, dim_b = m_small.dim, m_big.dim

    def embed_cochain(flat):
        """A flat cochain of m_small as a sparse cochain row of m_big."""
        out = {}
        for k in range(len(_nontrivial(m_small))):
            for c, e in zip(flat[k * dim_s:(k + 1) * dim_s], emb):
                if c != field.zero:
                    add_scaled(field, out, c, {k * dim_b + idx: x for idx, x in e.items()})
        return out

    _, kept = span_modulo(field, _unit_coboundaries(m_big),
                          (embed_cochain(z) for z in z_small))
    return H1Result(len(kept), [z_small[k] for k in kept])


def solve_coboundary(m: GModuleSlice, cochain) -> list | None:
    """phi with s.phi - phi = c(s) for all s, or None at this slice.

    cochain maps nonidentity element indices to coordinate vectors; the
    cocycle identity is validated first."""
    field = m.field
    group = m.group
    zero = [field.zero] * m.dim

    def val(i):
        if i == group.identity_index:
            return zero
        return cochain[i]

    for i in group.generators:
        for j in group.indices():
            lhs = val(group.mul(i, j))
            rhs = [field.add(a, b) for a, b in zip(m.act(i, val(j)), val(i))]
            if lhs != rhs:
                raise CocycleError("input does not satisfy the cocycle identity")
    if m.dim == 0:
        return []
    gens = group.generators
    flat = [x for s in gens for x in val(s)]
    (phi,) = solve(field, transpose(_action_minus_identity(m, gens), m.dim),
                   [{r: x for r, x in enumerate(flat) if x != field.zero}], len(flat))
    return None if phi is None else [phi.get(k, field.zero) for k in range(m.dim)]


class Cocycle:
    """A 1-cocycle valued in a normal module, stored in standard form
    (c(st) = s.c(t) + c(s) for the conjugation twist)."""

    def __init__(self, module: NormalModule, values: dict):
        self.module = module
        self.values = {
            i: tuple(module.amb.pres.nf(p) for p in vec)
            for i, vec in values.items()
            if i != module.amb.action.identity_index
        }

    def value(self, i: int):
        if i == self.module.amb.action.identity_index:
            return self.module.zero()
        return self.values.get(i, self.module.zero())

    def is_zero(self) -> bool:
        return all(all(p.is_zero() for p in v) for v in self.values.values())

    def check_identity(self) -> bool:
        group = self.module.amb.action
        for i in group.generators:
            for j in group.indices():
                lhs = self.value(group.mul(i, j))
                acted = self.module.act(i, self.value(j))
                rhs = tuple(a + b for a, b in zip(acted, self.value(i)))
                if tuple(self.module.amb.pres.nf(p) for p in rhs) != lhs:
                    return False
        return True

    def __repr__(self):
        parts = [f"s{i} -> ({', '.join(repr(p) for p in v)})"
                 for i, v in sorted(self.values.items())]
        return "Cocycle(" + "; ".join(parts) + ")"
