"""Group cohomology H^0 and H^1 on finite slices.

A ``GModuleSlice`` is a finite-dimensional k[G]-module: a basis of
normal-form module vectors together with one exact action matrix per
generator of G.  For filtered infinite modules, slices are the span of
the G-orbit of all standard-monomial vectors up to a degree bound, so
they are honestly G-stable even when the twist matrices are
non-constant.  The span is grown one orbit block at a time until it is
closed under the generators, which makes it G-stable; the generators'
images of its basis, expressed in one ``solve``, are the matrices.

The cocycle convention is c(s*t) = s.c(t) + c(s) and the coboundary of
phi is s -> s.phi - phi.  A representation, a cocycle and a fixed vector
are each determined by, and checked on, the group's generators: every
element is a word in them, read off the group's Cayley tree
(``GroupAction.tree``).  The matrices of the other elements exist only
inside the representation check.  A coordinate vector is a sparse
``{basis index: value}`` dict with no zero values, the one vector format
of ``linalg``; a cochain is its values ``{s: coordinate vector}`` over
s != e, a missing s meaning zero.  Z^1 is the kernel of the cocycle
conditions on the generators; B^1 and the coboundary solve use the
generators' values only, which fix a cocycle.  Only ``_Blocks`` stacks
values into one vector for the linear systems.  For a filtered module, a
vanishing answer from ``solve_coboundary`` is exact; non-vanishing is
certified only up to the slice bound unless the setup is graded (see
deform).
"""

from __future__ import annotations

from .ambient import NormalModule, _combination, _SliceCoordinates
from .fields import add_scaled
from .gaction import GroupAction
from .linalg import SpanBuilder, kernel_basis, solve, span_modulo, transpose


class CocycleError(ValueError):
    pass


class GModuleSlice:
    """Finite k[G]-module with exact action matrices (rows act on columns).

    ``matrices`` holds one matrix M_s per generator s, each a list of
    ``dim`` sparse rows ``{column: value}`` that hold no zero values; the
    trivial group has none, so ``dim`` is given.  They must satisfy the
    group's relations (see ``_check_representation``)."""

    def __init__(self, group: GroupAction, field, dim: int, matrices, payloads):
        self.group = group
        self.field = field
        self.dim = dim
        self.matrices = matrices          # per generator: dim sparse rows
        self.payloads = payloads          # module vectors per basis element, or None
        self._check_representation()

    def _check_representation(self):
        """M_e = I and M_{ag} = M_a M_g along the edges (a, g, ag) of the
        group's Cayley tree; M_a M_g = M_{ag} is then checked on every
        other pair (a, g) of an element and a generator.  By induction on
        word length, s -> M_s extends to a representation of G exactly
        then."""
        group = self.group
        full = {group.identity_index: [{r: self.field.one} for r in range(self.dim)]}
        for a, g, ag in group.tree:
            full[ag] = self._matmul(full[a], self.matrices[g])
        edges = {(a, g) for a, g, _ in group.tree}
        for a in group.indices():
            for g in group.generators:
                if (a, g) not in edges and \
                        self._matmul(full[a], self.matrices[g]) != full[group.mul(a, g)]:
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
        return tuple(_combination(p.ring, ((c, self.payloads[k][j]) for k, c in coords.items()))
                     for j, p in enumerate(self.payloads[0]))

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
    standard-monomial vectors of degree <= degree (plus extra seeds),
    closed under the generators.

    The orbit is taken one block at a time in element-index order, block
    e being the seeds; the orbit vectors that enlarge the span in turn
    are the payloads.  After each block every generator acts on the
    payloads, and one ``solve`` expresses the images over them; once all
    of them land, their coordinates are the generator matrices.  A span
    closed under the generators is G-stable, so no later orbit vector
    would be a payload: the payloads are the greedy independent vectors
    of the whole element-major orbit, and the matrices are their unique
    coordinates.  When the last block leaves the span unclosed, the
    action is not a representation on it and CocycleError is raised.

    Check strength: the image of a payload in block e under a generator
    g is act(g, seed), which is also the orbit vector the group table
    predicts for it; so where block e closes, "every image lies in the
    span and the matrices satisfy the relations" (``GModuleSlice``)
    checks as much as comparing each image with its predicted orbit
    vector does."""
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

    coords = _SliceCoordinates()
    span = SpanBuilder(field)
    payloads, columns = [], []
    images = {g: [] for g in group.generators}  # g -> g.payload, payload order
    for i in group.indices():
        for s in seeds:
            v = s if i == group.identity_index else module.act(i, s)
            row = coords.row(v)
            if span.add(row):
                payloads.append(v)
                columns.append(row)
        for g, acted in images.items():
            acted += [module.act(g, p) for p in payloads[len(acted):]]
        rhs = [coords.row(v) for acted in images.values() for v in acted]
        solved = solve(field, columns, rhs, len(coords.index))
        if None not in solved:
            dim = len(payloads)
            matrices = {g: transpose(solved[k * dim:(k + 1) * dim], dim)
                        for k, g in enumerate(images)}
            return GModuleSlice(group, field, dim, matrices, payloads)
    raise CocycleError("slice is not closed under the action")


def invariants(m: GModuleSlice):
    """Coordinate basis of the simultaneous fixed space H^0."""
    return kernel_basis(m.field, _action_minus_identity(m, m.group.generators), m.dim)


def _nontrivial(m: GModuleSlice):
    return [i for i in m.group.indices() if i != m.group.identity_index]


class _Blocks:
    """The layout of a cochain restricted to the given elements in a
    linear system: coordinate r of c(s) is column offset[s] + r, one
    dim-block per element in order."""

    def __init__(self, m: GModuleSlice, elements):
        self.dim = m.dim
        self.elements = list(elements)
        self.offset = {s: k * m.dim for k, s in enumerate(self.elements)}
        self.ncols = m.dim * len(self.elements)

    def stack(self, values) -> dict:
        """The values {s: c(s)} on these elements as one sparse vector."""
        return {self.offset[s] + r: x for s in self.elements
                for r, x in values.get(s, {}).items()}

    def split(self, flat) -> dict:
        """The values {s: c(s)} of a sparse vector; an s whose block is
        zero is left out."""
        values = {}
        for col, x in flat.items():
            k, r = divmod(col, self.dim)
            values.setdefault(self.elements[k], {})[r] = x
        return values


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


def _cocycle_rows(m: GModuleSlice, blocks: _Blocks):
    """Linear conditions on (c(s))_{s != e} from c(st) = s.c(t) + c(s) for
    generators s, as sparse rows over the blocks of every s != e; with
    c(e) = 0 they give it for all s, by induction on words.  The rows are
    yielded one at a time."""
    field = m.field
    minus = field.neg(field.one)
    offset = blocks.offset

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
    """Basis of Z^1, each cocycle as its values {s: c(s)} over s != e."""
    blocks = _Blocks(m, _nontrivial(m))
    return [blocks.split(z) for z in
            kernel_basis(m.field, list(_cocycle_rows(m, blocks)), blocks.ncols)]


def _unit_coboundaries(m: GModuleSlice):
    """Coboundaries of the coordinate unit vectors on the generators,
    which span B^1 there: the coboundary of e_k is column k of M_s - I
    stacked over the generators, a sparse row."""
    return transpose(_action_minus_identity(m, m.group.generators), m.dim)


def h1_bounded(m_small: GModuleSlice, m_big: GModuleSlice) -> list:
    """Classes of Z^1(m_small) not killed by coboundaries from m_big, each
    a cocycle as its values {s: coordinate vector}; their number is the
    dimension of H^1 at the slice.

    m_small's payload vectors must lie inside m_big; this implements the
    slice policy for filtered modules (value slice at D, coboundary
    search at a higher bound).  A cocycle is fixed by its values on the
    generators, so Z^1 and B^1 of m_big are compared there.  When m_big
    is m_small (a graded setup searched at the slice itself, see
    deform._search_degree) the embedding is the identity, and no
    ``express`` solve is made."""
    field = m_small.field
    z_small = zcocycles(m_small)
    if not z_small:
        return []
    gens = _Blocks(m_big, m_big.group.generators)
    if m_big is m_small:
        embed = gens.stack
    else:
        emb = m_big.express(m_small.payloads)
        if any(coords is None for coords in emb):
            raise CocycleError("small slice does not embed in the search slice")

        def embed(z):
            """The generator values of a cocycle of m_small, in m_big."""
            values = {}
            for s in gens.elements:
                values[s] = {}
                for r, c in z.get(s, {}).items():
                    add_scaled(field, values[s], c, emb[r])
            return gens.stack(values)

    _, kept = span_modulo(field, _unit_coboundaries(m_big), (embed(z) for z in z_small))
    return [z_small[k] for k in kept]


def solve_coboundary(m: GModuleSlice, cochain) -> dict | None:
    """The coordinate vector phi with s.phi - phi = c(s) for all s, or
    None at this slice.

    cochain holds the values {s: c(s)}; it must satisfy the
    ``_cocycle_rows`` conditions, so it is a cocycle and phi is solved
    for on the generators."""
    field = m.field
    if cochain.get(m.group.identity_index):
        raise CocycleError("input does not vanish at the identity")
    blocks = _Blocks(m, _nontrivial(m))
    flat = blocks.stack(cochain)
    for row in _cocycle_rows(m, blocks):
        total = field.zero
        for k, x in row.items():
            if k in flat:
                total = field.add(total, field.mul(x, flat[k]))
        if total != field.zero:
            raise CocycleError("input does not satisfy the cocycle identity")
    if m.dim == 0:
        return {}
    gens = _Blocks(m, m.group.generators)
    (phi,) = solve(field, _unit_coboundaries(m), [gens.stack(cochain)], gens.ncols)
    return phi


class Cocycle:
    """A 1-cocycle valued in a normal module, stored in standard form
    (c(st) = s.c(t) + c(s) for the conjugation twist).

    The values {s: c(s)} must be vectors of normal forms; they are stored
    as given, less the one at the identity."""

    def __init__(self, module: NormalModule, values: dict):
        self.module = module
        self.values = {i: vec for i, vec in values.items()
                       if i != module.amb.action.identity_index}

    @classmethod
    def from_generators(cls, module: NormalModule, values: dict) -> "Cocycle":
        """The cocycle with the given values {s: c(s)} on the generators.

        Every other element is reached along the group's Cayley tree, an
        edge (a, g, ag) giving c(ag) = a.c(g) + c(a).  The values must come
        from a cocycle: only then is the result one."""
        group = module.amb.action
        if all(p.is_zero() for v in values.values() for p in v):
            return cls(module, {})
        out = {group.identity_index: module.zero()}
        for a, g, ag in group.tree:
            acted = values[g] if a == group.identity_index else module.act(a, values[g])
            out[ag] = tuple(x + y for x, y in zip(acted, out[a]))
        return cls(module, out)

    def value(self, i: int):
        if i == self.module.amb.action.identity_index:
            return self.module.zero()
        return self.values.get(i, self.module.zero())

    def is_zero(self) -> bool:
        return all(all(p.is_zero() for p in v) for v in self.values.values())

    def __repr__(self):
        parts = [f"s{i} -> ({', '.join(repr(p) for p in v)})"
                 for i, v in sorted(self.values.items())]
        return "Cocycle(" + "; ".join(parts) + ")"
