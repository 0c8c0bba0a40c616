"""Group cohomology H^0 and H^1 on finite slices.

A ``GModuleSlice`` is a finite-dimensional k[G]-module: a basis of
normal-form module vectors together with exact action matrices.  For
filtered infinite modules, slices are the span of the G-orbit of all
standard-monomial vectors up to a degree bound, so they are honestly
G-stable even when the twist matrices are non-constant.

The cocycle convention is c(s*t) = s.c(t) + c(s) and the coboundary of
phi is s -> s.phi - phi.  A cocycle, a fixed vector and a representation
are each determined by, and checked on, the group's generators: every
element is a word in them.  A coordinate vector is a sparse
``{basis index: value}`` dict with no zero values, the one vector format
of ``linalg``; a flat cochain is one such dict over (c(s))_{s != e},
one dim-block per s != e in index order.  For a filtered module, a
vanishing answer from ``solve_coboundary`` is exact; non-vanishing is
certified only up to the slice bound unless the setup is graded (see
deform).
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

    def materialize(self, coords):
        """Module vector for a coordinate vector (payload slices only)."""
        if self.payloads is None:
            raise ValueError("abstract slice has no payload vectors")
        if not self.payloads:
            return ()
        vec = tuple(p.ring.zero for p in self.payloads[0])
        for k, c in coords.items():
            vec = tuple(a + p.scale(c) for a, p in zip(vec, self.payloads[k]))
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


def cochain_values(m: GModuleSlice, flat) -> dict:
    """The flat cochain as {s: coordinate vector c(s)} over every s != e."""
    nontrivial = _nontrivial(m)
    values = {s: {} for s in nontrivial}
    for col, x in flat.items():
        k, r = divmod(col, m.dim)
        values[nontrivial[k]][r] = x
    return values


def flat_cochain(m: GModuleSlice, values) -> dict:
    """The flat cochain with c(s) = values[s], the inverse of
    cochain_values."""
    return {k * m.dim + r: x for k, s in enumerate(_nontrivial(m))
            for r, x in values[s].items()}


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
    s != e; with c(e) = 0 they give it for all s, by induction on words.
    The rows are yielded one at a time."""
    field = m.field
    minus = field.neg(field.one)
    offset = {s: k * m.dim for k, s in enumerate(_nontrivial(m))}

    for i in m.group.generators:  # nonidentity, so i*j != j
        for j in m.group.indices():
            ij = m.group.mul(i, j)
            for r in range(m.dim):
                # c(ij) - i.c(j) - c(i) at coordinate r, with c(e) = 0
                row = ({offset[j] + c: field.neg(x) for c, x in m.matrices[i][r].items()}
                       if j in offset else {})
                if ij in offset:
                    row[offset[ij] + r] = field.one
                add_scaled(field, row, minus, {offset[i] + r: field.one})
                if row:
                    yield row


def zcocycles(m: GModuleSlice):
    """Basis of Z^1 as flat cochains."""
    return kernel_basis(m.field, list(_cocycle_rows(m)), m.dim * len(_nontrivial(m)))


def coboundary_of(m: GModuleSlice, phi):
    """The flat cochain (s.phi - phi)_{s != e} of the coordinate vector
    phi: the combination of the unit coboundaries with its values."""
    units = _unit_coboundaries(m)
    out = {}
    for k, x in phi.items():
        add_scaled(m.field, out, x, units[k])
    return out


def _unit_coboundaries(m: GModuleSlice):
    """Coboundaries of the coordinate unit vectors, which span B^1: the
    coboundary of e_k is column k of the stacked M_s - I, a sparse row."""
    return transpose(_action_minus_identity(m, _nontrivial(m)), m.dim)


@dataclass
class H1Result:
    dimension: int
    representatives: list  # flat cochains, sparse dicts


def h1(m: GModuleSlice) -> H1Result:
    """Plain H^1(G, m) for the finite module m."""
    z_basis = zcocycles(m)
    if not z_basis:
        return H1Result(0, [])
    b_dim, kept = span_modulo(m.field, _unit_coboundaries(m), z_basis)
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

    def embed_cochain(flat):
        """A flat cochain of m_small as a flat cochain of m_big."""
        values = {}
        for s, coords in cochain_values(m_small, flat).items():
            values[s] = {}
            for r, c in coords.items():
                add_scaled(field, values[s], c, emb[r])
        return flat_cochain(m_big, values)

    _, kept = span_modulo(field, _unit_coboundaries(m_big),
                          (embed_cochain(z) for z in z_small))
    return H1Result(len(kept), [z_small[k] for k in kept])


def solve_coboundary(m: GModuleSlice, cochain) -> dict | None:
    """The coordinate vector phi with s.phi - phi = c(s) for all s, or
    None at this slice.

    cochain is a flat cochain; it must satisfy the ``_cocycle_rows``
    conditions, so it is a cocycle and phi is solved for on the
    generators' blocks."""
    field = m.field
    for row in _cocycle_rows(m):
        total = field.zero
        for k, x in row.items():
            if k in cochain:
                total = field.add(total, field.mul(x, cochain[k]))
        if total != field.zero:
            raise CocycleError("input does not satisfy the cocycle identity")
    if m.dim == 0:
        return {}
    gens = m.group.generators
    values = cochain_values(m, cochain)
    rhs = {g * m.dim + r: x for g, s in enumerate(gens) for r, x in values[s].items()}
    (phi,) = solve(field, transpose(_action_minus_identity(m, gens), m.dim),
                   [rhs], len(gens) * m.dim)
    return phi


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
