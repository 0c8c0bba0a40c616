"""Finite groups realized as ring substitutions acting on a presentation.

Group elements are affine substitutions (degree <= 1 images) on a fixed
ring; the product sigma*tau is the composite substitution acting as
sigma(tau(f)) on polynomials, so the stored multiplication table makes
the substitution map a homomorphism by construction.
"""

from __future__ import annotations

from .fields import add_scaled
from .groebner import GroebnerBasis
from .linalg import rank as matrix_rank
from .poly import ContextMismatchError, PolyRing, Polynomial, substitute


class NotInvertibleError(ValueError):
    pass


class ClosureBoundExceededError(RuntimeError):
    pass


class StabilityError(ValueError):
    pass


class Substitution:
    """An affine ring substitution, stored as one image per variable."""

    __slots__ = ("ring", "images")

    def __init__(self, ring: PolyRing, images):
        images = tuple(images)
        if len(images) != ring.nvars:
            raise ValueError("need one image per variable")
        for g in images:
            if g.ring is not ring:
                raise ContextMismatchError("substitution image in a different ring")
            if g.degree() > 1:
                raise ValueError("only affine substitutions are supported")
        self.ring = ring
        self.images = images

    @classmethod
    def from_map(cls, ring: PolyRing, mapping: dict):
        images = [mapping.get(v, ring.var(v)) for v in ring.variables]
        return cls(ring, images)

    @classmethod
    def identity(cls, ring: PolyRing):
        return cls(ring, ring.gens())

    def apply(self, f: Polynomial) -> Polynomial:
        return substitute(f, dict(zip(self.ring.variables, self.images)))

    def compose(self, other: "Substitution") -> "Substitution":
        """self after other on polynomials: (self*other)(f) = self(other(f)).

        Both maps are affine, so the image of x_i is other's image of x_i
        with each x_k replaced by self's image of x_k: a linear
        combination of self's images plus a constant, summed term by
        term in the order ``substitute`` sums them."""
        field, images = self.ring.field, self.images
        out = []
        for g in other.images:
            terms = {}
            for m, c in g.terms.items():
                add_scaled(field, terms, c, images[m.index(1)].terms if any(m) else {m: field.one})
            out.append(Polynomial(self.ring, terms))
        return Substitution(self.ring, out)

    def linear_part(self):
        """Matrix L with image_i = sum_k L[i][k] x_k + const_i, as sparse rows."""
        return [{k: c for m, c in g.terms.items() for k, e in enumerate(m) if e}
                for g in self.images]

    def is_invertible(self) -> bool:
        return matrix_rank(self.ring.field, self.linear_part()) == self.ring.nvars

    def is_variable_permutation(self):
        """The permutation sending i to j when image_i == x_j, or None."""
        perm = []
        for g in self.images:
            if len(g.terms) != 1:
                return None
            (m, c), = g.terms.items()
            if c != self.ring.field.one or sum(m) != 1:
                return None
            perm.append(m.index(1))
        return perm if len(set(perm)) == self.ring.nvars else None

    def __eq__(self, other):
        return isinstance(other, Substitution) and other.images == self.images \
            and other.ring is self.ring

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        parts = [
            f"{v} -> {g!r}"
            for v, g in zip(self.ring.variables, self.images)
            if g != self.ring.var(v)
        ]
        return "Substitution(" + ", ".join(parts) + ")" if parts else "Substitution(id)"


class GroupAction:
    """A finite group of ring substitutions with its multiplication table.

    ``generators`` holds the indices of nonidentity elements that generate
    the group (none for the trivial group).  ``tree`` is a spanning tree
    of the Cayley graph from e by right multiplication with the
    generators: one edge (a, g, ag) per nonidentity element, a reached
    before ag, in the order of ag."""

    def __init__(self, ring: PolyRing, elements, table, inverse, generators, tree):
        self.ring = ring
        self.elements = list(elements)
        self.table = table
        self.inverse = inverse
        self.identity_index = 0
        self.generators = list(generators)
        self.tree = tree

    def __len__(self):
        return len(self.elements)

    def indices(self):
        return range(len(self.elements))

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def apply(self, i: int, f: Polynomial) -> Polynomial:
        return self.elements[i].apply(f)

    def is_tame(self) -> bool:
        """Whether |G| is invertible in the base field."""
        return self.ring.field.is_invertible_int(len(self.elements))

    def variable_orbits_free(self) -> bool:
        """True when every element permutes the variables and every orbit
        has size |G| (the ambient is already of regular-representation shape)."""
        perms = []
        for s in self.elements:
            p = s.is_variable_permutation()
            if p is None:
                return False
            perms.append(p)
        n = self.ring.nvars
        seen = set()
        for i in range(n):
            if i in seen:
                continue
            orbit = {p[i] for p in perms}
            if len(orbit) != len(self.elements):
                return False
            seen |= orbit
        return True

    def __repr__(self):
        return f"GroupAction(order {len(self.elements)} on {self.ring})"


def close_group(generators, ring: PolyRing | None = None, bound: int = 512) -> GroupAction:
    """Close a generator list under composition into a full GroupAction.

    Each generator is a Substitution or a {var: image} mapping; raises
    when a generator is not invertible or the closure exceeds bound.  The
    result records the element indices of the nonidentity generators as
    ``generators``.

    The closure walk, each element times each generator, is the only
    composing: it records right[a][k] = index(a * g_k) and the (a, k)
    first reaching each element t = a * g_k, so the table follows by
    associativity, i * t = right[i * a][k], and inverse[i] is where row
    i holds e.  Those (a, k) are the edges (a, g_k, t) of the Cayley tree:
    the walk takes the elements breadth-first, in index order.
    """
    subs = []
    for g in generators:
        if isinstance(g, Substitution):
            subs.append(g)
        else:
            if ring is None:
                raise ValueError("mapping generators need an explicit ring")
            subs.append(Substitution.from_map(ring, g))
    if subs:
        ring = subs[0].ring
    if ring is None:
        raise ValueError("empty generator list needs an explicit ring")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    for s in subs:
        if s.ring is not ring:
            raise ContextMismatchError("generators on different rings")
        if not s.is_invertible():
            raise NotInvertibleError(f"generator {s!r} has singular linear part")

    identity = Substitution.identity(ring)
    elements = [identity]
    index = {identity: 0}
    right, parent = [], [None]
    for a, s in enumerate(elements):  # grows while it is walked
        row = []
        for k, g in enumerate(subs):
            t = s.compose(g)
            if t not in index:
                if len(elements) >= bound:
                    raise ClosureBoundExceededError(
                        f"group closure exceeds bound {bound}"
                    )
                index[t] = len(elements)
                elements.append(t)
                parent.append((a, k))
            row.append(index[t])
        right.append(row)

    table = []
    for i in range(len(elements)):
        row = [i]
        for a, k in parent[1:]:
            row.append(right[row[a]][k])
        table.append(row)
    inverse = [row.index(0) for row in table]
    generator_indices = list(dict.fromkeys(index[g] for g in subs if index[g] != 0))
    tree = [(a, index[subs[k]], t) for t, (a, k) in enumerate(parent[1:], start=1)]
    return GroupAction(ring, elements, table, inverse, generator_indices, tree)


def verify_stability(gb: GroebnerBasis, action: GroupAction) -> bool:
    """True iff the ideal is fixed by every group element, checked on
    the generators: every element is a word in them."""
    if gb.ring is not action.ring:
        raise ContextMismatchError("group acts on a different ring")
    for i in action.generators:
        for f in gb.generators:
            if not gb.normal_form(action.apply(i, f)).is_zero():
                return False
    return True

