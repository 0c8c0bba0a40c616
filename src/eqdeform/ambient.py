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

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

from .gaction import GroupAction, StabilityError, Substitution, TwistMatrices, \
    twist_matrices, verify_stability
from .groebner import (
    GroebnerBasis,
    RegularityCertificate,
    Representer,
    is_regular_sequence,
    module_kernel,
)
from .linalg import kernel_basis
from .poly import (
    ContextMismatchError,
    MonomialOrder,
    PolyRing,
    Polynomial,
    monomial_divides,
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
    gb: GroebnerBasis
    certificate: RegularityCertificate
    _representer: Representer | None = dataclass_field(default=None, repr=False)
    _std_cache: dict = dataclass_field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, ring: PolyRing, gens) -> "AffinePresentation":
        gens = tuple(gens)
        cert = is_regular_sequence(gens, ring=ring)
        if not cert.regular:
            raise NotCompleteIntersectionError(
                f"generators are not a regular sequence: quotient dimension "
                f"{cert.quotient_dimension}, expected {cert.expected_dimension}"
            )
        return cls(ring, gens, cert.gb, cert)

    @property
    def nvars(self) -> int:
        return self.ring.nvars

    def nf(self, f: Polynomial) -> Polynomial:
        return self.gb.normal_form(f)

    @property
    def representer(self) -> Representer | None:
        """Cofactors over the generators; None when there are none."""
        if self._representer is None and self.gens:
            self._representer = Representer(list(self.gens))
        return self._representer

    def std_monomials_upto(self, degree: int):
        """Standard monomials of B (not divisible by any leading term), by degree."""
        if degree not in self._std_cache:
            lts = [g.leading_monomial() for g in self.gb.generators]
            out = []
            for m in self.ring.monomials_upto(degree):
                if not any(monomial_divides(lt, m) for lt in lts):
                    out.append(m)
            self._std_cache[degree] = out
        return self._std_cache[degree]

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
        self._twists: TwistMatrices | None = None

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

    @property
    def twists(self) -> TwistMatrices:
        if self._twists is None:
            self._twists = twist_matrices(
                list(self.pres.gens), self.action, self.pres.gb,
                representer=self.pres.representer,
            )
        return self._twists

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
    sigma(X_{i,s}) = X_{i,sigma*s}, evaluation X_{i,s} -> s(x_i)."""
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
    gens = [substitute(f, section) for f in p.gens]
    for k in range(1, size):
        for i in range(n):
            gens.append(bigvar(i, k) - substitute(var_images[k * n + i], section))
    gens = tuple(gens)
    cert = is_regular_sequence(gens, ring=big)
    if not cert.regular:
        raise NotCompleteIntersectionError(
            "regular-representation embedding lost the regular sequence "
            f"(dim {cert.quotient_dimension}, expected {cert.expected_dimension})"
        )
    big_pres = AffinePresentation(big, gens, cert.gb, cert)

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
    amb = EquivariantAmbient(big_pres, big_action, p, "regular",
                             var_images, embed_images)
    if not verify_stability(cert.gb, big_action):
        raise StabilityError("regular-representation ideal is not stable")
    return amb


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
        tinv = self.twists.reduced_for(inv)
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
                         invariant: bool = False, tangent: bool = False):
    """k-basis of ambient derivation vectors in B^n with standard-monomial
    components of degree <= degree.

    tangent=True adds the equations J.D = 0 mod I (actual derivations of
    B); invariant=True adds conjugation invariance.  With neither flag the
    result is the plain monomial basis.
    """
    pres = amb.pres
    ring = amb.ring
    monos = pres.std_monomials_upto(degree)
    unknowns = [(i, m) for i in range(ring.nvars) for m in monos]
    vectors = []
    for (i, m) in unknowns:
        vec = [ring.zero] * ring.nvars
        vec[i] = ring.monomial(m)
        vectors.append(tuple(vec))
    if not unknowns:
        return []
    if not (invariant or tangent):
        return vectors

    # one sparse constraint row per (block, position, monomial)
    rows: dict = {}

    def constrain(block, u, vec):
        for pos, p in enumerate(vec):
            for m, c in p.terms.items():
                rows.setdefault((block, pos, m), {})[u] = c

    # derivation_action is a homomorphism: fixed by the generators is fixed by all
    for u, v in enumerate(vectors):
        if tangent:
            constrain(None, u, normal_image(amb, v))
        if invariant:
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


def derivations(p: AffinePresentation, g: GroupAction, trunc: int | None = None):
    """Module generators of Hom(Omega, B) plus invariant sub-generators.

    Generators come from the syzygy kernel of the Jacobian.  The
    invariant part is the Reynolds projection of the generators in the
    tame case and a degree-bounded linear solve otherwise (the solve is
    also used when trunc is given explicitly).
    """
    amb = original_ambient(p, g)  # checks that g stabilizes the ideal
    if p.gens:
        gens = module_kernel(p.jacobian, p.gb)
    else:
        gens = [
            tuple(p.ring.one if j == i else p.ring.zero for j in range(p.ring.nvars))
            for i in range(p.ring.nvars)
        ]
    if g.is_tame() and trunc is None:
        field = p.ring.field
        scale = field.inv(field.of(len(g)))
        invariant = []
        seen = set()
        for d in gens:
            total = (p.ring.zero,) * p.ring.nvars
            for i in g.indices():
                acted = derivation_action(amb, i, d)
                total = tuple(a + b for a, b in zip(total, acted))
            avg = tuple(p.nf(c.scale(scale)) for c in total)
            if any(not c.is_zero() for c in avg) and avg not in seen:
                seen.add(avg)
                invariant.append(avg)
        return gens, invariant
    bound = trunc if trunc is not None else 2 * max(
        [f.degree() for f in p.gens], default=1
    )
    invariant = ambient_vector_slice(amb, bound, invariant=True, tangent=True)
    return gens, invariant
