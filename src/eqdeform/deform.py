"""Deformation calculus over artinian bases k[eps]/(eps^(m+1)).

All arithmetic over a truncated base is eps-order peeling: every check
or solve reduces to staged problems over k handled by Groebner normal
forms, so there is no Groebner theory over non-field coefficients
anywhere.  eps_divide keeps only the final remainder.  An equivariance
division divides s^-1(F_j) - sum_l T[j][l] F_l, T the exact twist
cofactors of s^-1(f_j) (amb.twists[s^-1], the ambient's one division
per generator inverse), whose eps^0 coefficient is zero and is never
formed: the group acts on nonzero eps coefficients of order >= 1 only.

The group is read through its generators.  The equivariance divisions
run at the inverses s^-1 of the generators only: they generate G, so an
ideal they stabilize is G-stable.  The defect cocycle is taken at the
generators from those divisions and extended to every element by the
cocycle identity (Cocycle.from_generators).  Flatness of
coefficientwise lifts of a regular sequence is structural (every
presentation is a certified regular sequence), so eps_divide is a
membership test and no general flatness test is attempted.

Sign conventions, fixed once and exercised by round-trip tests:
shifting a lift by a class nu replaces F_j by F_j - eps^m nu_j, and the
equivariance-defect cocycle is built from sigma(F_j') - (division by
the other generators).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ambient import (
    EquivariantAmbient,
    NormalModule,
    _SliceCoordinates,
)
from .cohomology import (
    Cocycle,
    GModuleSlice,
    h1_bounded,
    invariants,
    slice_of_normal_module,
    solve_coboundary,
)
from .groebner import QuotientBasis, quotient_basis
from .linalg import solve, span_modulo
from .poly import PolyRing, Polynomial


# Degrees by which a coboundary or image search slice exceeds the value
# slice, outside graded equal-degree setups (see _search_degree).
SLACK = 2


class DeformationError(ValueError):
    pass


class EpsPoly:
    """Polynomial with coefficients in k[eps]/(eps^(order+1)), stored as
    one ambient polynomial per eps power."""

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring: PolyRing, order: int, coeffs):
        coeffs = list(coeffs)[: order + 1]
        while len(coeffs) < order + 1:
            coeffs.append(ring.zero)
        self.ring = ring
        self.order = order
        self.coeffs = tuple(coeffs)

    @classmethod
    def constant(cls, ring: PolyRing, order: int, p: Polynomial) -> "EpsPoly":
        return cls(ring, order, [p])

    def coeff(self, t: int) -> Polynomial:
        return self.coeffs[t] if t <= self.order else self.ring.zero

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, EpsPoly)
            and other.ring is self.ring
            and other.order == self.order
            and other.coeffs == self.coeffs
        )

    def __add__(self, other):
        other = self._coerce(other)
        return EpsPoly(self.ring, self.order,
                       [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        other = self._coerce(other)
        return EpsPoly(self.ring, self.order,
                       [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def _coerce(self, other):
        if isinstance(other, EpsPoly):
            if other.ring is not self.ring or other.order != self.order:
                raise DeformationError("eps-polynomials over different bases")
            return other
        if isinstance(other, Polynomial):
            return EpsPoly.constant(self.ring, self.order, other)
        raise TypeError(f"cannot combine EpsPoly with {other!r}")

    def shift(self, t: int) -> "EpsPoly":
        """Multiply by eps^t."""
        return EpsPoly(self.ring, self.order,
                       [self.ring.zero] * t + list(self.coeffs))

    def truncate(self, order: int) -> "EpsPoly":
        return EpsPoly(self.ring, order, self.coeffs[: order + 1])

    def lift(self, order: int) -> "EpsPoly":
        """Coefficientwise lift: append zero higher-order terms."""
        if order < self.order:
            raise ValueError("use truncate to lower the order")
        return EpsPoly(self.ring, order, self.coeffs)

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


class Deformation:
    """An equivariant lift of the base presentation over k[eps]/(eps^(m+1)).

    Generators are eps-polynomials reducing to the ambient presentation
    mod eps.  Constructors that build a lift run certify_equivariance on it.
    """

    def __init__(self, amb: EquivariantAmbient, order: int, gens):
        self.amb = amb
        self.order = order
        self.gens = tuple(gens)
        if len(self.gens) != len(amb.pres.gens):
            raise DeformationError("wrong number of lifted generators")
        for g, f in zip(self.gens, amb.pres.gens):
            if g.order != order:
                raise DeformationError("generator order does not match the base")
            if g.coeff(0) != f:
                raise DeformationError("reduction mod eps is not the base presentation")

    @classmethod
    def initial(cls, amb: EquivariantAmbient) -> "Deformation":
        gens = tuple(EpsPoly.constant(amb.ring, 0, f) for f in amb.pres.gens)
        d = cls(amb, 0, gens)
        certify_equivariance(amb, d.gens)
        return d

    def __repr__(self):
        return (f"Deformation(order {self.order}: "
                + "; ".join(repr(g) for g in self.gens) + ")")


def eps_divide(h: EpsPoly, gens, representer, allow_final_remainder=False):
    """Stagewise division of h by the lifted generators.

    Returns the remainder w with h = sum S_l gens_l + eps^order * w
    exactly over the truncated base, or None when the division is exact
    (the quotients S_l are not kept).  Raises DeformationError when an
    intermediate stage leaves the ideal.
    """
    order = h.order
    r = list(h.coeffs)
    for t in range(order + 1):
        if r[t].is_zero():
            continue
        cof = representer.express(r[t])
        if cof is None:
            if allow_final_remainder and t == order:
                return r[t]
            raise DeformationError(
                f"eps^{t} coefficient is not in the base ideal"
            )
        for c, g in zip(cof, gens):
            if c.is_zero():
                continue
            for s, gs in enumerate(g.coeffs[: order - t + 1]):
                if not gs.is_zero():
                    r[t + s] = r[t + s] - c * gs
    return None


def _equivariance_remainders(amb: EquivariantAmbient, gens,
                             allow_final_remainder=False):
    """Per generator s, keyed by the index i of s^-1, the final-order
    remainders of dividing each s^-1(F_j) by the lifted generators (None
    where exact).

    The generators must reduce to the ambient presentation mod eps, so
    with T the exact twist row of s^-1(f_j), amb.twists[i], the division
    may start from s^-1(F_j) - sum_l T[j][l] F_l, which vanishes at
    eps^0."""
    action = amb.action
    if len(gens) != len(amb.pres.gens) or any(
            g.coeff(0) != f for g, f in zip(gens, amb.pres.gens)):
        raise DeformationError("reduction mod eps is not the base presentation")
    rep = amb.pres.representer
    # the nonzero (t, F_j[t]), t >= 1, of each generator
    higher = [[(t, c) for t, c in enumerate(g.coeffs) if t and c] for g in gens]
    out = {}
    for i in map(action.inv, action.generators):
        row = []
        for g, terms, cofactors in zip(gens, higher, amb.twists[i]):
            h = [amb.ring.zero] * (g.order + 1)
            for t, c in terms:
                h[t] = action.apply(i, c)
            for T, lifted in zip(cofactors, higher):
                if T:
                    for t, c in lifted:
                        h[t] = h[t] - T * c
            row.append(eps_divide(EpsPoly(amb.ring, g.order, h), gens, rep,
                                  allow_final_remainder))
        out[i] = row
    return out


def certify_equivariance(amb: EquivariantAmbient, gens) -> None:
    """Check that s^-1(F_j) divides out over the lifted generators
    (eps_divide) for every generator s; raises DeformationError when the
    lift is not equivariant.

    This is a complete certificate: the inverses of the generators
    generate G, so an ideal they stabilize is stable under every element.
    The identity and the other elements are never divided."""
    _equivariance_remainders(amb, tuple(gens))


def verify_deformation(d: Deformation) -> None:
    """Re-run the equivariance certificate of a deformation; raises
    DeformationError, its message prefixed with ``equivariance: ``, when
    the lift is not equivariant.

    Its base reduction is checked when it is built, and the presentation
    it reduces to is a certified regular sequence, so its coefficientwise
    lift is flat."""
    try:
        certify_equivariance(d.amb, d.gens)
    except DeformationError as exc:
        raise DeformationError(f"equivariance: {exc}") from exc


def ideal_equal(d1: Deformation, d2: Deformation) -> bool:
    """Equality of the lifted ideals via mutual membership (eps-peeling)."""
    _check_compatible(d1, d2)
    rep = d1.amb.pres.representer
    for a, b in ((d1, d2), (d2, d1)):
        for g in a.gens:
            try:
                eps_divide(g, list(b.gens), rep)
            except DeformationError:
                return False
    return True


def _check_compatible(d1: Deformation, d2: Deformation):
    if d1.amb is not d2.amb:
        raise DeformationError("deformations over different ambients")
    if d1.order != d2.order:
        raise DeformationError("deformations over different bases")


class DifferenceClass:
    """Invariant normal-module element measuring the gap of two lifts."""

    def __init__(self, amb: EquivariantAmbient, vector):
        self.amb = amb
        self.vector = tuple(amb.pres.nf(p) for p in vector)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.vector)

    def __add__(self, other):
        return DifferenceClass(self.amb,
                               [a + b for a, b in zip(self.vector, other.vector)])

    def __neg__(self):
        return DifferenceClass(self.amb, [-a for a in self.vector])

    def __eq__(self, other):
        return isinstance(other, DifferenceClass) and other.vector == self.vector

    def __repr__(self):
        return "DifferenceClass(" + ", ".join(repr(p) for p in self.vector) + ")"


def difference_class(d1: Deformation, d2: Deformation) -> DifferenceClass:
    """The normal-module class (F_j^1 - F_j^2)/eps^m of two lifts that
    agree below the top order."""
    _check_compatible(d1, d2)
    m = d1.order
    for g1, g2 in zip(d1.gens, d2.gens):
        for t in range(m):
            if g1.coeff(t) != g2.coeff(t):
                raise DeformationError("lifts do not agree below the top order")
    vec = tuple(
        d1.amb.pres.nf(g1.coeff(m) - g2.coeff(m))
        for g1, g2 in zip(d1.gens, d2.gens)
    )
    cls = DifferenceClass(d1.amb, vec)
    N = NormalModule(d1.amb)
    for i in d1.amb.action.generators:
        if N.act(i, cls.vector) != cls.vector:
            raise DeformationError(
                "difference class is not invariant; are both lifts equivariant?"
            )
    return cls


def shift_lift(d: Deformation, cls: DifferenceClass) -> Deformation:
    """The lift with generators F_j - eps^m * nu_j; the difference class
    from d back to it is cls."""
    if cls.amb is not d.amb:
        raise DeformationError("class over a different ambient")
    m = d.order
    gens = []
    for g, nu in zip(d.gens, cls.vector):
        correction = EpsPoly.constant(d.amb.ring, m, nu).shift(m)
        gens.append(g - correction)
    out = Deformation(d.amb, d.order, tuple(gens))
    certify_equivariance(d.amb, out.gens)
    return out


@dataclass
class DerivationWitness:
    """Invariant ambient derivation realizing an isomorphism of lifts."""

    amb: EquivariantAmbient
    components: tuple

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    def __repr__(self):
        return "DerivationWitness(" + ", ".join(repr(p) for p in self.components) + ")"


def apply_flow(d: Deformation, components) -> Deformation:
    """Apply the substitution x_i -> x_i + eps^m * D_i to the lift, m >= 1
    (DeformationError at m = 0).  As eps^(2m) = 0 this adds
    sum_i J[j][i] D_i to the eps^m coefficient of F_j, J the Jacobian,
    exactly in every characteristic."""
    m = d.order
    if m == 0:
        raise DeformationError("a flow needs an eps order of at least 1")
    gens = []
    for g, row in zip(d.gens, d.amb.pres.jacobian):
        coeffs = list(g.coeffs)
        coeffs[m] = sum((df * c for df, c in zip(row, components) if df and c), coeffs[m])
        gens.append(EpsPoly(g.ring, m, coeffs))
    out = Deformation(d.amb, d.order, gens)
    certify_equivariance(d.amb, gens)
    return out


def isomorphism_witness(d1: Deformation, d2: Deformation,
                        trunc: int | None = None):
    """An invariant ambient derivation whose normal image is the
    difference class of the lifts, or None at this slice.

    A found witness is an exact certificate: x -> x + eps^m D carries d2
    into d1 (checked before returning)."""
    nu = difference_class(d1, d2)
    amb = d1.amb
    if nu.is_zero():
        return DerivationWitness(amb, (amb.ring.zero,) * amb.ring.nvars)
    bound = (trunc if trunc is not None else default_truncation(amb)) + SLACK
    basis, images = amb.vector_slice(bound)
    if not basis:
        return None
    coords = _SliceCoordinates()
    columns = [coords.row(u) for u in images]
    (sol,) = solve(amb.ring.field, columns, [coords.row(nu.vector)], len(coords.index))
    if sol is None:
        return None
    components = [amb.ring.zero] * amb.ring.nvars
    for k, c in sol.items():
        for i, p in enumerate(basis[k]):
            components[i] = components[i] + p.scale(c)
    witness = DerivationWitness(amb, tuple(amb.pres.nf(p) for p in components))
    moved = apply_flow(d2, witness.components)
    if not ideal_equal(moved, d1):
        raise DeformationError("witness failed its realization check")
    return witness


def default_truncation(amb: EquivariantAmbient) -> int:
    degs = [f.degree() for f in amb.pres.gens]
    return 2 * max(degs, default=1)


def obstruction_cocycle(d: Deformation, lift_gens) -> Cocycle:
    """The equivariance-defect cocycle of a (possibly non-equivariant)
    lift of d, in standard form for the normal-module action.

    For a generator s, w_j is the eps^(m+1) remainder of dividing
    s^-1(F_j') by the lifted generators, and c(s) = NF(s(w)); this makes
    c(st) = s.c(t) + c(s) hold on the nose, which fixes c at every other
    element.  A zero cocycle means every division was exact: w is only
    returned when it lies outside the ideal, which s stabilizes."""
    amb = d.amb
    order = d.order + 1
    for g, base_g in zip(lift_gens, d.gens):
        if g.order != order:
            raise DeformationError("lift generators have the wrong order")
        if g.truncate(d.order) != base_g:
            raise DeformationError("generators do not lift the given deformation")
    remainders = _equivariance_remainders(amb, tuple(lift_gens),
                                          allow_final_remainder=True)
    action = amb.action
    values = {
        s: tuple(amb.ring.zero if w is None else amb.image(s, w)
                 for w in remainders[action.inv(s)])
        for s in action.generators
    }
    return Cocycle.from_generators(NormalModule(amb), values)


def is_graded_setup(amb: EquivariantAmbient) -> bool:
    """Homogeneous generators with a linear (degree-preserving) action:
    coboundary solves are then exact, not merely slice-certified.  The
    action is linear when the generators' images are.  B is then graded
    and G preserves its grading (normal forms by the homogeneous reduced
    basis keep degree).  When the generators also share one degree, G
    preserves the grading of the normal module too, and the search slices
    run at the value slice (``_search_degree``)."""
    if not all(f.is_homogeneous() for f in amb.pres.gens):
        return False
    for s in amb.action.generators:
        for img in amb.action.elements[s].images:
            if any(sum(m) != 1 for m in img.terms):
                return False
    return True


def _search_degree(amb: EquivariantAmbient, D: int) -> int:
    """The degree of the coboundary search slice of ``obstruction_space``
    and of the derivation image slice of ``tangent_spaces`` for the value
    slice D: D itself on a graded setup whose generators share one
    degree d, else D + SLACK.

    There the slack changes no output byte.  With a linear action and
    homogeneous f_j, s(f_j) = sum_k a_jk f_k with a_jk of degree
    deg f_j - deg f_k, a constant when all degrees are d.  So G preserves
    the grading of N, and the slice "standard-monomial degree <= D in
    every position" is the G-stable sum of the N_e, e <= D.  The graded
    projection pi onto it commutes with G and fixes it.

    - Obstruction: if z_k - sum a_i z_i = delta(phi) with phi in the
      D + SLACK slice, then z_k - sum a_i z_i = delta(pi phi); so
      ``span_modulo`` keeps the same cocycles of the value slice.
    - Tangent: an invariant derivation splits into invariant homogeneous
      parts, and the normal image of the part of coefficient degree e is
      homogeneous of degree e + d - 1 >= e.  So pi of an image from
      degree D + SLACK is an image from degree <= D, and the same
      invariant normal vectors are kept.

    With unequal degrees that slice is not a sum of graded pieces, so it
    keeps the slack, as do the non-homogeneous seeds of
    ``equivariantize`` and ``isomorphism_witness``."""
    if is_graded_setup(amb) and len({f.degree() for f in amb.pres.gens}) == 1:
        return D
    return D + SLACK


@dataclass
class LiftOutcome:
    success: bool
    deformation: Deformation | None
    obstruction: Cocycle | None
    certified: str


def equivariantize(d: Deformation, lift_gens,
                   trunc: int | None = None) -> LiftOutcome:
    """Correct a lift of d to an equivariant one, or report the
    obstruction class.

    When the defect cocycle c is nonzero we solve s.phi - phi = -c on a
    G-stable slice and replace F_j' by F_j' - eps^(m+1) phi_j, which
    cancels the defect exactly; the corrected lift is re-certified.  A
    zero defect means the lift passed the divisions certify_equivariance
    runs, so it is returned as it is."""
    amb = d.amb
    order = d.order + 1
    c = obstruction_cocycle(d, lift_gens)
    if c.is_zero():
        return LiftOutcome(True, Deformation(amb, order, tuple(lift_gens)),
                           None, "exact")
    N = NormalModule(amb)
    bound = (trunc if trunc is not None else default_truncation(amb)) + SLACK
    others = [i for i in amb.action.indices() if i != amb.action.identity_index]
    extra = [c.value(i) for i in others]
    m_search = slice_of_normal_module(N, bound, extra_vectors=extra)
    coords = m_search.express([tuple(-p for p in v) for v in extra])
    if any(x is None for x in coords):
        raise DeformationError("defect cocycle escapes the search slice")
    phi = solve_coboundary(m_search, dict(zip(others, coords)))
    if phi is None:
        certified = "exact" if is_graded_setup(amb) else f"slice:{bound}"
        return LiftOutcome(False, None, c, certified)
    nu = m_search.materialize(phi)
    gens = []
    for g, comp in zip(lift_gens, nu):
        gens.append(g - EpsPoly.constant(amb.ring, order, comp).shift(order))
    out = Deformation(amb, order, tuple(gens))
    certify_equivariance(amb, out.gens)
    return LiftOutcome(True, out, None, "exact")


def lift_step(d: Deformation, trunc: int | None = None) -> LiftOutcome:
    """One equivariant lifting step: take the coefficientwise lift
    (always a lift, rarely equivariant) and equivariantize it."""
    lift_gens = tuple(g.lift(d.order + 1) for g in d.gens)
    return equivariantize(d, lift_gens, trunc=trunc)


@dataclass
class TangentReport:
    t1: QuotientBasis
    t1_basis_vectors: list
    t1_equivariant_dim: int | None
    t1_equivariant_basis: list
    certified: str

    @property
    def t1_dim(self):
        return self.t1.dimension


def _basis_vector(ring: PolyRing, rank: int, pos: int, mono) -> tuple:
    vec = [ring.zero] * rank
    vec[pos] = ring.monomial(mono)
    return tuple(vec)


def tangent_spaces(amb: EquivariantAmbient,
                   trunc: int | None = None) -> TangentReport:
    """T^1 and T^1_G of the presentation through the ambient (the
    dimension of T^0_G is ambient.derivations).

    T^1 comes from the standard-monomial count of B^c modulo the
    Jacobian image (exact regardless of grading).  T^1_G is the fixed
    space of the generators' induced action when averaging is available
    and T^1 is finite, each fixed vector averaged over G; otherwise it is
    the slice quotient of invariant normal vectors of degree <= D by the
    images of invariant ambient derivations of degree <= D + SLACK, or
    <= D on a graded setup with one generator degree, where both give the
    same quotient (``_search_degree``).  The images come from
    ``EquivariantAmbient.vector_slice``, so there ``derivations(amb, D)``
    and this quotient share one slice.
    """
    pres = amb.pres
    ring = amb.ring
    D = trunc if trunc is not None else default_truncation(amb)
    rank = len(pres.gens)
    if rank == 0:
        empty = QuotientBasis(True, 0, ())
        return TangentReport(empty, [], 0, [], "exact")
    module_gb = pres.t1_module
    qb = quotient_basis(module_gb, D)
    t1_vectors = [_basis_vector(ring, rank, pos, m) for (pos, m) in qb.monomials]

    if amb.action.is_tame() and qb.finite:
        if not qb.monomials:
            return TangentReport(qb, [], 0, [], "exact")
        N = NormalModule(amb)
        index = {bm: k for k, bm in enumerate(qb.monomials)}
        field = ring.field
        matrices = {}
        for i in amb.action.generators:
            rows = [{} for _ in qb.monomials]
            for c, (pos, m) in enumerate(qb.monomials):
                acted = N.act(i, _basis_vector(ring, rank, pos, m))
                for p_idx, poly in enumerate(module_gb.reduce_polys(acted)):
                    for mono, coeff in poly.terms.items():
                        rows[index[(p_idx, mono)]][c] = coeff
            matrices[i] = rows
        fixed = invariants(GModuleSlice(amb.action, field, len(qb.monomials), matrices))
        # invariant vector representatives via averaging
        scale = field.inv(field.of(len(amb.action)))
        reps = []
        for coords in fixed:
            vec = [ring.zero] * rank
            for k, c in coords.items():
                pos, m = qb.monomials[k]
                vec[pos] = vec[pos] + ring.monomial(m, c)
            avg = (ring.zero,) * rank
            for i in amb.action.indices():
                avg = tuple(a + b for a, b in zip(avg, N.act(i, vec)))
            reps.append(tuple(p.scale(scale) for p in avg))
        return TangentReport(qb, t1_vectors, len(fixed), reps, "exact")

    # slice route (wild case, or infinite T^1)
    V = invariant_normal_slice(amb, D)
    _, U = amb.vector_slice(_search_degree(amb, D))
    coords = _SliceCoordinates()
    _, kept = span_modulo(ring.field, (coords.row(u) for u in U),
                          (coords.row(v) for v in V))
    reps = [V[k] for k in kept]
    return TangentReport(qb, t1_vectors, len(reps), reps, f"slice:{D}")


@dataclass
class ObstructionReport:
    dimension: int
    representatives: list
    certified: str


def obstruction_space(amb: EquivariantAmbient,
                      trunc: int | None = None) -> ObstructionReport:
    """H^1(G, normal module) on slices; exactly zero in the tame case.

    The cocycles come from the slice at D, and the coboundaries that may
    kill them from the slice at ``_search_degree(amb, D)``: D + SLACK in
    general, D itself (one slice, no embedding) on a graded setup with
    one generator degree, where the larger slice kills no more classes."""
    D = trunc if trunc is not None else default_truncation(amb)
    if amb.action.is_tame() or not amb.pres.gens:
        return ObstructionReport(0, [], "exact")
    N = NormalModule(amb)
    m_small = slice_of_normal_module(N, D)
    search = _search_degree(amb, D)
    m_big = m_small if search == D else slice_of_normal_module(N, search)
    res = h1_bounded(m_small, m_big)
    others = [i for i in amb.action.indices() if i != amb.action.identity_index]
    reps = [Cocycle(N, {s: m_small.materialize(z.get(s, {})) for s in others})
            for z in res.representatives]
    return ObstructionReport(res.dimension, reps, f"slice:{D}")


def invariant_normal_slice(amb: EquivariantAmbient, degree: int):
    """Basis of invariant normal-module vectors at the slice: the torsor
    directions for embedded equivariant lifts, and the numerator of the
    slice route of T^1_G."""
    N = NormalModule(amb)
    m = slice_of_normal_module(N, degree)
    return [m.materialize(c) for c in invariants(m)]
