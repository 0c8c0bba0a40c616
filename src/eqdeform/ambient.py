"""Equivariant ambient embeddings and the three basic modules.

An ``AffinePresentation`` is B = k[x_1..x_n]/(f_1..f_c) with a
regular-sequence certificate.  An ``EquivariantAmbient`` wraps a
presentation whose ambient affine space carries the group action in a
shape suitable for equivariant homological algebra: either the
original ambient (kept when the action permutes the variables in free
orbits, or when the group order is invertible so averaging supplies
projectivity), or the regular-representation ambient with one variable
per (coordinate, group element) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fields import add_scaled
from .gaction import GroupAction, StabilityError, Substitution, verify_stability
from .groebner import (
    GroebnerBasis,
    ModuleGB,
    RegularityCertificate,
    Representer,
    canonical_order,
    is_regular_sequence,
    staircase,
)
from .linalg import kernel_basis, rank
from .poly import (
    ContextMismatchError,
    MonomialOrder,
    PolyRing,
    Polynomial,
    partial,
    substitute,
)


class NotCompleteIntersectionError(ValueError):
    pass


class VariableNameCollisionError(ValueError):
    pass


@dataclass
class AffinePresentation:
    """B = k[x]/(f_1..f_c) with certified regular sequence."""

    ring: PolyRing
    gens: tuple
    certificate: RegularityCertificate

    @classmethod
    def build(cls, ring: PolyRing, gens) -> "AffinePresentation":
        gens = tuple(gens)
        cert = is_regular_sequence(gens, ring=ring)
        if not cert.regular:
            raise NotCompleteIntersectionError(
                f"generators are not a regular sequence: quotient dimension "
                f"{cert.quotient_dimension}, expected {cert.expected_dimension}"
            )
        return cls(ring, gens, cert)

    @property
    def gb(self) -> GroebnerBasis:
        """The reduced Groebner basis the certificate was read from."""
        return self.certificate.gb

    def nf(self, f: Polynomial) -> Polynomial:
        return self.gb.normal_form(f)

    @cached_property
    def representer(self) -> Representer | None:
        """Cofactors over the generators; None when there are none."""
        return Representer(list(self.gens)) if self.gens else None

    @cached_property
    def _std_monomials(self) -> dict:
        """degree -> standard monomials of degree <= degree, filled on demand."""
        return {}

    def std_monomials_upto(self, degree: int):
        """Standard monomials of B (not divisible by any leading term), by degree."""
        if degree not in self._std_monomials:
            lts = [(0, g.leading_monomial()) for g in self.gb.generators]
            self._std_monomials[degree] = [m for _, m in staircase(self.ring, 1, lts, degree)]
        return self._std_monomials[degree]

    @cached_property
    def jacobian(self) -> tuple:
        """c x n matrix J[j][i] = d f_j / d x_i, derived once."""
        return tuple(
            tuple(partial(f, i) for i in range(self.ring.nvars)) for f in self.gens
        )

    @cached_property
    def t1_module(self) -> ModuleGB:
        """The basis of T^1 = B^c modulo the Jacobian columns."""
        return ModuleGB.of_cokernel(self.ring, len(self.gens), tuple(zip(*self.jacobian)),
                                    self.gb)


@dataclass
class GraphPresentation(AffinePresentation):
    """The regular ambient's presentation, f(X_{.,0}) and the graph
    X_b - L_b(X_{.,0}): its representer and T^1 bases are the origin's,
    written down (``regular_rep_embedding`` says why they are reduced)."""

    origin: AffinePresentation

    def _padded(self, v: dict) -> dict:
        """x_i -> X_{i,0}: the exponents extended by zeros."""
        pad = (0,) * (self.ring.nvars - self.origin.ring.nvars)
        return {(pos, m + pad): c for (pos, m), c in v.items()}

    @cached_property
    def representer(self) -> Representer | None:
        """The origin's augmented basis, each (G_b, e_b), and the Koszul
        syzygy g_b e_a - g_a e_b of every pair a < b with b in the graph;
        None when there are no generators."""
        if not self.gens:
            return None
        field, zero = self.ring.field, (0,) * self.ring.nvars
        rep = self.origin.representer
        out = [self._padded(v) for v in (rep.gb.elements if rep else ())]
        for b in range(len(self.origin.gens), len(self.gens)):
            out.append({**{(0, m): c for m, c in self.gens[b].terms.items()},
                        (1 + b, zero): field.one})
            for a in range(b):
                out.append({**{(1 + a, m): c for m, c in self.gens[b].terms.items()},
                            **{(1 + b, m): field.neg(c) for m, c in self.gens[a].terms.items()}})
        return Representer.of_reduced(self.gens, out)

    @cached_property
    def t1_module(self) -> ModuleGB:
        """The origin's T^1 basis; X_b e_j less the origin's normal form
        of L_b e_j at each position j without a unit; and the unit at
        each graph position, whose Jacobian column it is."""
        small, c, n = self.origin.t1_module, len(self.origin.gens), self.origin.ring.nvars
        one, zero = self.ring.field.one, (0,) * self.ring.nvars
        out = [self._padded(v) for v in small.elements]
        units = {pos for pos, m in small.leading_terms() if not any(m)}
        for graph in self.gens[c:]:  # X_b - L_b, led by X_b
            x_b = graph.leading_monomial()
            for j in set(range(c)) - units:
                v = self._padded(small.reduce(
                    {(j, m[:n]): d for m, d in graph.terms.items() if m != x_b}))
                v[(j, x_b)] = one
                out.append(v)
        out += [{(b, zero): one} for b in range(c, len(self.gens))]
        return ModuleGB(self.ring, len(self.gens), canonical_order(self.ring, out))


class EquivariantAmbient:
    """A presentation together with a compatible ambient group action."""

    def __init__(self, pres: AffinePresentation, action: GroupAction,
                 origin: AffinePresentation, kind: str, embed_images):
        self.pres = pres
        self.action = action
        self.origin = origin
        self.kind = kind  # "original" | "regular"
        self.embed_images = tuple(embed_images)  # origin variable -> ambient polynomial

    @property
    def ring(self) -> PolyRing:
        return self.pres.ring

    @property
    def rank(self) -> int:
        return len(self.pres.gens)

    def embed(self, f: Polynomial) -> Polynomial:
        """Rewrite an origin-ring polynomial in the ambient ring."""
        if f.ring is not self.origin.ring:
            raise ContextMismatchError("polynomial not in the origin ring")
        return substitute(f, dict(zip(self.origin.ring.variables, self.embed_images)))

    @cached_property
    def twists(self) -> dict:
        """Per generator s, keyed by the index i of s^-1, the exact cofactor
        rows T with sigma_i(f_j) = sum_l T[j][l] f_l: the only divisions of
        the twist, one per generator inverse and generator polynomial."""
        action, rep, out = self.action, self.pres.representer, {}
        for i in map(action.inv, action.generators):
            out[i] = [rep.express(action.apply(i, f)) for f in self.pres.gens]
            if None in out[i]:
                raise StabilityError("group image of a generator is not in the ideal")
        return out

    @cached_property
    def monomial_images(self) -> dict:
        """(element i, monomial m) -> NF(sigma_i(x^m)), filled on demand."""
        return {}

    def _monomial_image(self, i: int, m: tuple) -> Polynomial:
        """NF(sigma_i(x^m)) = NF(NF(sigma_i(x^(m - e_v))) * sigma_i(x_v)) with
        v the first variable of m: one product with an affine form and
        one reduction per new entry."""
        memo, chain = self.monomial_images, []
        while (i, m) not in memo and any(m):
            v = next(k for k, e in enumerate(m) if e)
            chain.append((m, v))
            m = m[:v] + (m[v] - 1,) + m[v + 1:]
        value = memo[i, m] if any(m) else self.ring.one
        for big, v in reversed(chain):
            value = memo[i, big] = self.pres.nf(value * self.action.elements[i].images[v])
        return value

    def image(self, i: int, p: Polynomial) -> Polynomial:
        """NF(sigma_i(p)) by linearity; p need not be a normal form."""
        return _combination(self.ring, ((c, self._monomial_image(i, m))
                                        for m, c in p.terms.items()))

    @cached_property
    def inverse_linear_columns(self) -> dict:
        """Per generator g and variable i, column i of the linear part L
        of g^-1 as (r, L[r][i]) pairs, r ascending, with (i, 0) when
        L[i][i] = 0.  The conjugation action on derivation vectors is
        (g.D)_r = sum_i L[r][i] NF(g(D_i)), so for D = x^m e_i these r are
        the positions where g.D - D can be nonzero."""
        action, zero, n = self.action, self.ring.field.zero, self.ring.nvars
        out = {}
        for g in action.generators:
            linear = action.elements[action.inv(g)].linear_part()
            out[g] = [[(r, linear[r].get(i, zero)) for r in range(n)
                       if i in linear[r] or r == i] for i in range(n)]
        return out

    @cached_property
    def vector_slices(self) -> dict:
        """degree -> (basis, normal images) of the last degree built."""
        return {}

    def vector_slice(self, degree: int) -> tuple:
        """(``ambient_vector_slice(self, degree)``, the normal image of
        each basis vector): T^0_G, the slice route of T^1_G and
        isomorphism witnesses all take it from here.  Only the last
        degree is kept (``derivations`` reads T^0_G off it at any lower
        degree); another degree frees it before it is built."""
        if degree not in self.vector_slices:
            self.vector_slices.clear()
            basis = ambient_vector_slice(self, degree)
            self.vector_slices[degree] = basis, [normal_image(self, v) for v in basis]
        return self.vector_slices[degree]

    @cached_property
    def twist_images(self) -> list:
        """Per element i, the rows of A_i = sigma_i(T_{sigma_i^-1}) mod I as
        (l, entry) pairs: a constant entry, which sigma fixes, as its field
        value, any other as its normal form.

        I/I^2 is free on the f_j, so T mod I is unique and A_{ag} =
        A_a sigma_a(A_g): A_e = 1, a generator's A_g is the image of the
        division at g^-1, and every other element is read off the Cayley
        tree edge (a, g, ag) that reaches it."""
        action, ring, nf = self.action, self.ring, self.pres.nf
        e, zero = action.identity_index, (0,) * ring.nvars
        A = {e: [[ring.one if j == l else ring.zero for l in range(self.rank)]
                 for j in range(self.rank)]}
        for a, g, ag in action.tree:
            if a == e:  # ag = g, a generator
                A[g] = [[self.image(g, nf(t)) for t in row] for row in self.twists[action.inv(g)]]
            else:
                A[ag] = [[nf(sum((x * self.image(a, y) for x, y in zip(row, col) if x and y),
                                 ring.zero)) for col in zip(*A[g])] for row in A[a]]
        return [[[(l, t.terms[zero] if t.degree() == 0 else t) for l, t in enumerate(row) if t]
                 for row in A[i]] for i in action.indices()]

    def __repr__(self):
        return f"EquivariantAmbient({self.kind}, {self.pres.ring})"


def original_ambient(p: AffinePresentation, g: GroupAction) -> EquivariantAmbient:
    if g.ring is not p.ring:
        raise ContextMismatchError("action on a different ring")
    if not verify_stability(p.gb, g):
        raise StabilityError("the group does not stabilize the ideal")
    variables = p.ring.gens()
    return EquivariantAmbient(p, g, p, "original", variables)


def regular_rep_embedding(p: AffinePresentation, g: GroupAction) -> EquivariantAmbient:
    """The regular-representation ambient: variables X_{i,s} with
    sigma(X_{i,s}) = X_{i,sigma*s}, evaluation X_{i,s} -> s(x_i).

    The ideal is (f(X_{.,0})) plus the graph X_{i,k} - L_{i,k}(X_{.,0}),
    k >= 1, with L_{i,k} = NF_f(sigma_k(x_i)); so k[X]/I' = B, and its
    basis and certificate come from p.  The basis of f in X_{.,0} plus
    the graph is reduced: X_{i,k}, after X_{.,0}, leads under lex, and
    under grevlex since the action is affine (deg L_{i,k} <= 1); the two
    groups have coprime leading terms, and the tails are normal forms.
    The quotient dimension is that of B, and n|G| - (c + n(|G|-1)) = n - c.
    I' = ker phi' is stable: phi'(tau X_{i,s}) = (tau s)(x_i) =
    tau(phi'(X_{i,s})), and tau stabilizes (f).

    ``GraphPresentation`` writes two more reduced bases down; g is
    (f(X_{.,0}), G_1..G_r) with G_b = X_b - L_b, padding is x_i -> X_{i,0}.
    The augmented basis of (g_a, e_a) is the origin's padded, each
    (G_b, e_b), and the Koszul g_b e_a - g_a e_b for a < b, b in the
    graph.  Position 0 gives the basis above.  A syzygy s leading at a
    graph position p has s_p in (G_{>p}), as G_p is monic in a variable
    free modulo them, so some X_b, b > p, divides LT(s_p): Koszul (p, b).
    One leading at an f position has a graph variable in LT(s_p), covered
    by a Koszul element, or LT(s_p) = LT(phi(s_p)) with phi: X_b -> L_b,
    and phi(s) on the f positions is an origin syzygy.  It is reduced:
    Koszul tails at position a are terms of L_b, standard for I, and the
    origin's syzygy leading terms lie in LT(I), f being regular.  The T^1
    basis: the Jacobian column of X_b is e_{c+b}, a unit at each graph
    position; so B'^t / J is B^c / J_f, and its basis is the origin's
    padded, the units, and X_b e_j less the origin's normal form of
    L_b e_j at each position j without a unit (G_b e_j = X_b e_j - L_b e_j).
    """
    if not verify_stability(p.gb, g):
        raise StabilityError("the group does not stabilize the ideal")
    ring = p.ring
    size = len(g)
    names = []
    for k in range(size):
        for v in ring.variables:
            names.append(f"{v}_g{k}" if size > 1 else v)
    if len(set(names)) != len(names) or (
        size > 1 and set(names) & set(ring.variables)
    ):
        raise VariableNameCollisionError(
            "ambient variable names collide; rename the input variables")
    big = PolyRing(ring.field, names, MonomialOrder(ring.order.kind))
    n = ring.nvars

    def bigvar(i: int, k: int) -> Polynomial:
        return big.var(names[k * n + i])

    # phi' images: X_{i,k} -> NF(sigma_k(x_i)), and the e-block section x_i -> X_{i,0}
    var_images = []
    for k in range(size):
        for i in range(n):
            var_images.append(p.nf(g.apply(k, ring.var(ring.variables[i]))))
    embed_images = [bigvar(i, 0) for i in range(n)]

    section = dict(zip(ring.variables, embed_images))
    graph = [bigvar(i, k) - substitute(var_images[k * n + i], section)
             for k in range(1, size) for i in range(n)]
    gens = tuple(substitute(f, section) for f in p.gens) + tuple(graph)
    basis = GroebnerBasis.of_reduced(
        big, [substitute(f, section) for f in p.gb.generators] + graph)
    cert = RegularityCertificate(True, p.certificate.quotient_dimension,
                                 big.nvars - len(gens), big.nvars, len(gens), basis)
    big_pres = GraphPresentation(big, gens, cert, p)

    # left translation on the sigma index keeps phi' equivariant for the
    # covariant composition convention of GroupAction
    elements = []
    for k in range(size):
        images = [None] * big.nvars
        for j in range(size):
            target = g.mul(k, j)
            for i in range(n):
                images[j * n + i] = bigvar(i, target)
        elements.append(Substitution(big, images))
    big_action = GroupAction(big, elements, g.table, g.inverse, g.generators, g.tree)
    return EquivariantAmbient(big_pres, big_action, p, "regular", embed_images)


def choose_ambient(p: AffinePresentation, g: GroupAction,
                   mode: str = "auto") -> EquivariantAmbient:
    """Ambient policy: keep the original ambient when it is already of
    regular-representation shape (free variable orbits) or when the
    action is tame; otherwise build the regular-representation one."""
    if mode == "original":
        return original_ambient(p, g)
    if mode == "regular":
        return regular_rep_embedding(p, g)
    if mode != "auto":
        raise ValueError(f"unknown ambient mode {mode!r}")
    if g.variable_orbits_free() or g.is_tame():
        return original_ambient(p, g)
    return regular_rep_embedding(p, g)


def _combination(ring: PolyRing, pairs) -> Polynomial:
    """sum c * p over the (c, p) pairs; the polynomial itself when it is
    the only nonzero one and c = 1."""
    pairs = [(c, p) for c, p in pairs if p]
    if len(pairs) == 1 and pairs[0][0] == ring.field.one:
        return pairs[0][1]
    terms = {}
    for c, p in pairs:
        add_scaled(ring.field, terms, c, p.terms)
    return Polynomial(ring, terms)


class NormalModule:
    """Hom(I/I^2, B) = B^c on the dual basis F_j^*, with the conjugation twist."""

    def __init__(self, amb: EquivariantAmbient):
        self.amb = amb
        self.rank = amb.rank

    @property
    def ring(self) -> PolyRing:
        return self.amb.ring

    def act(self, i: int, vec):
        """(sigma.psi)_j = sum_l sigma(T_{sigma^-1}[j][l]) sigma(psi_l), mod I,
        from the ambient's monomial images: a constant twist entry scales
        NF(sigma(psi_l)), any other takes one reduction of the product."""
        amb, one = self.amb, self.ring.field.one
        images = [amb.image(i, p) for p in vec]
        return tuple(_combination(self.ring, (
            (one, amb.pres.nf(e * images[l])) if isinstance(e, Polynomial)
            else (e, images[l]) for l, e in row)) for row in amb.twist_images[i])

    def zero(self):
        return (self.ring.zero,) * self.rank


def normal_image(amb: EquivariantAmbient, vec):
    """Image of an ambient derivation vector in the normal module:
    F_j -> sum_i dF_j/dX_i * D_i, mod I (a zero sum is not reduced)."""
    one = amb.ring.field.one
    sums = (_combination(amb.ring, ((one, d * v) for d, v in zip(row, vec) if d and v))
            for row in amb.pres.jacobian)
    return tuple(amb.pres.nf(p) if p else p for p in sums)


class _SliceCoordinates:
    """Coordinatizes vectors of normal-form polynomials in B^rank as sparse
    rows, numbering each (position, standard monomial) key the first time
    it occurs."""

    def __init__(self):
        self.index: dict = {}

    def row(self, vec) -> dict:
        index = self.index
        return {index.setdefault((pos, m), len(index)): c
                for pos, p in enumerate(vec) for m, c in p.terms.items()}


def ambient_vector_slice(amb: EquivariantAmbient, degree: int):
    """k-basis of the invariant ambient derivation vectors in B^n with
    standard-monomial components of degree <= degree.

    Invariance under the conjugation action is imposed by the generators
    (the action is a homomorphism, so fixed by the generators is fixed by
    all).  For the unknown D = x^m e_i and a generator g,
    (g.D - D)_r = L[r][i] NF(g(x^m)) - [r = i] x^m with L the linear part
    of g^-1, so each constraint entry is a memo image times an entry of a
    cached column of L.  The basis is ``kernel_basis``'s, one vector per
    free unknown in order; callers take it with its normal images from
    ``EquivariantAmbient.vector_slice``.
    """
    pres = amb.pres
    ring = amb.ring
    field = ring.field
    zero, minus_one = field.zero, field.neg(field.one)
    monos = pres.std_monomials_upto(degree)
    unknowns = [(i, m) for i in range(ring.nvars) for m in monos]
    if not unknowns:
        return []
    # one sparse constraint row per (block, position, monomial), in the
    # order first met: unknown by unknown, position ascending, the image's
    # terms, then x^m
    rows: dict = {}
    for u, (i, m) in enumerate(unknowns):
        for g, cols in amb.inverse_linear_columns.items():
            image = amb._monomial_image(g, m).terms
            for r, c in cols[i]:
                entries = {}
                if c != zero:
                    add_scaled(field, entries, c, image)
                if r == i:
                    add_scaled(field, entries, minus_one, {m: field.one})
                for mono, x in entries.items():
                    rows.setdefault((g, r, mono), {})[u] = x
    basis = []
    for sol in kernel_basis(field, list(rows.values()), len(unknowns)):
        # each unknown is its own term, so no two of them meet in a sum
        vec = [{} for _ in range(ring.nvars)]
        for u, coeff in sol.items():
            i, m = unknowns[u]
            vec[i][m] = coeff
        basis.append(tuple(Polynomial(ring, terms) for terms in vec))
    return basis


def derivations(amb: EquivariantAmbient, degree: int) -> int:
    """The dimension of the degree <= degree slice of T^0_G, the
    G-invariant derivations of B (the infinitesimal automorphisms).

    A derivation of B is an ambient vector D with J.D = 0 mod I, and
    normal_image is k-linear, so T^0_G on the slice is the kernel of the
    normal-image map on the invariant slice.  It is read off the held
    slice of some degree S >= degree (built at degree when none is held):
    the invariant slice at degree is the span of the held basis vectors
    with no component above degree, so T^0_G is len(basis) less the rank
    of the rows [normal-image coordinates | coordinates of the components
    above degree], one row per basis vector.  No kernel vector is formed."""
    held = next((S for S in amb.vector_slices if S >= degree), degree)
    basis, images = amb.vector_slice(held)
    if held > degree:  # each image next to its vector's components above degree
        images = [u + tuple(Polynomial(amb.ring, {m: c for m, c in p.terms.items()
                                                  if sum(m) > degree}) for p in v)
                  for v, u in zip(basis, images)]
    coords = _SliceCoordinates()
    return len(basis) - rank(amb.ring.field, [coords.row(u) for u in images])
