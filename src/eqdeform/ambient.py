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

from .gaction import GroupAction, StabilityError, Substitution, TwistMatrices, \
    twist_matrices, verify_stability
from .groebner import (
    GroebnerBasis,
    RegularityCertificate,
    Representer,
    is_regular_sequence,
    staircase,
)
from .linalg import kernel_basis
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

    @property
    def nvars(self) -> int:
        return self.ring.nvars

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


class EquivariantAmbient:
    """A presentation together with a compatible ambient group action."""

    def __init__(self, pres: AffinePresentation, action: GroupAction,
                 origin: AffinePresentation, kind: str, var_images, embed_images):
        self.pres = pres
        self.action = action
        self.origin = origin
        self.kind = kind  # "original" | "regular"
        self.var_images = tuple(var_images)    # phi': ambient variable -> element of origin B
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

    def project(self, f: Polynomial) -> Polynomial:
        """phi': ambient polynomial -> normal form in the origin ring."""
        if f.ring is not self.ring:
            raise ContextMismatchError("polynomial not in the ambient ring")
        images = dict(zip(self.ring.variables, self.var_images))
        return self.origin.nf(substitute(f, images))

    @cached_property
    def twists(self) -> TwistMatrices:
        return twist_matrices(list(self.pres.gens), self.action, self.pres.gb,
                              representer=self.pres.representer)

    def __repr__(self):
        return f"EquivariantAmbient({self.kind}, {self.pres.ring})"


def original_ambient(p: AffinePresentation, g: GroupAction) -> EquivariantAmbient:
    if g.ring is not p.ring:
        raise ContextMismatchError("action on a different ring")
    if not verify_stability(p.gb, g):
        raise StabilityError("the group does not stabilize the ideal")
    variables = p.ring.gens()
    return EquivariantAmbient(p, g, p, "original", variables, variables)


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
    big_pres = AffinePresentation(big, gens, cert)

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
    big_action = GroupAction(big, elements, g.table, g.inverse, g.generators)
    return EquivariantAmbient(big_pres, big_action, p, "regular",
                              var_images, embed_images)


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


class NormalModule:
    """Hom(I/I^2, B) = B^c on the dual basis F_j^*, with the conjugation twist."""

    def __init__(self, amb: EquivariantAmbient):
        self.amb = amb
        self.rank = amb.rank
        self.twists = amb.twists

    @property
    def ring(self) -> PolyRing:
        return self.amb.ring

    def act(self, i: int, vec):
        """(sigma.psi)_j = sum_l sigma(T_{sigma^-1}[j][l]) sigma(psi_l), mod I."""
        action = self.amb.action
        inv = action.inv(i)
        tinv = self.twists.reduced[inv]
        nf = self.amb.pres.nf
        out = []
        for j in range(self.rank):
            total = self.ring.zero
            for l in range(self.rank):
                entry = tinv[j][l]
                if entry.is_zero() or vec[l].is_zero():
                    continue
                total = total + action.apply(i, entry) * action.apply(i, vec[l])
            out.append(nf(total))
        return tuple(out)

    def zero(self):
        return (self.ring.zero,) * self.rank


def derivation_action(amb: EquivariantAmbient, i: int, vec):
    """Conjugation action on ambient derivation vectors in B^n:
    (sigma.D)_i = sum_k L[i][k] sigma(D_k) with L the linear part of sigma^-1."""
    action = amb.action
    ring = amb.ring
    L = action.elements[action.inv(i)].linear_part()
    nf = amb.pres.nf
    out = []
    for row in L:
        total = ring.zero
        for k, coeff in row.items():
            if not vec[k].is_zero():
                total = total + action.apply(i, vec[k]).scale(coeff)
        out.append(nf(total))
    return tuple(out)


def normal_image(amb: EquivariantAmbient, vec):
    """Image of an ambient derivation vector in the normal module:
    F_j -> sum_i dF_j/dX_i * D_i, mod I."""
    jac = amb.pres.jacobian
    nf = amb.pres.nf
    out = []
    for j in range(amb.rank):
        total = amb.ring.zero
        for i in range(amb.ring.nvars):
            if not jac[j][i].is_zero() and not vec[i].is_zero():
                total = total + jac[j][i] * vec[i]
        out.append(nf(total))
    return tuple(out)


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


def ambient_vector_slice(amb: EquivariantAmbient, degree: int,
                         tangent: bool = False):
    """k-basis of the invariant ambient derivation vectors in B^n with
    standard-monomial components of degree <= degree.

    Invariance under the conjugation action is always imposed;
    tangent=True adds the equations J.D = 0 mod I (actual derivations of
    B).
    """
    pres = amb.pres
    ring = amb.ring
    monos = pres.std_monomials_upto(degree)
    unknowns = [(i, m) for i in range(ring.nvars) for m in monos]
    if not unknowns:
        return []

    # one sparse constraint row per (block, position, monomial)
    rows: dict = {}

    def constrain(block, u, vec):
        for pos, p in enumerate(vec):
            for m, c in p.terms.items():
                rows.setdefault((block, pos, m), {})[u] = c

    # derivation_action is a homomorphism: fixed by the generators is fixed by all
    for u, (i, m) in enumerate(unknowns):
        v = tuple(ring.monomial(m) if k == i else ring.zero for k in range(ring.nvars))
        if tangent:
            constrain(None, u, normal_image(amb, v))
        for g_idx in amb.action.generators:
            constrain(g_idx, u, tuple(
                a - b for a, b in zip(derivation_action(amb, g_idx, v), v)))
    basis = []
    for sol in kernel_basis(ring.field, list(rows.values()), len(unknowns)):
        vec = [ring.zero] * ring.nvars
        for u, coeff in sol.items():
            i, m = unknowns[u]
            vec[i] = vec[i] + ring.monomial(m, coeff)
        basis.append(tuple(vec))
    return basis


def derivations(amb: EquivariantAmbient, degree: int):
    """The degree <= degree slice of T^0_G: a k-basis of the G-invariant
    derivations of B (the infinitesimal automorphisms), as ambient
    derivation vectors in B^n."""
    return ambient_vector_slice(amb, degree, tangent=True)
