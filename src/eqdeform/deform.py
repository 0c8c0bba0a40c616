"""Deformation calculus over artinian bases k[eps]/(eps^(m+1)).

All arithmetic over a truncated base is eps-order peeling: every check
or solve reduces to staged problems over k handled by Groebner normal
forms, so there is no Groebner theory over non-field coefficients
anywhere.  An EpsPoly stores only its nonzero eps coefficients.  An
equivariance division divides s^-1(F_j) - sum_l T[j][l] F_l, T the
exact twist cofactors of s^-1(f_j) (amb.twists[s^-1], the ambient's one
division per generator inverse), whose eps^0 coefficient is zero and is
never formed: the group acts on nonzero eps coefficients of order >= 1
only.

Lifting goes one order at a time, as the obstruction at eps^(m+1) comes
from the data of order m.  A Deformation keeps the stage quotients of
its certificate, and one division routine (_divide) starts at a given
stage from the quotients of the stages below it: at stage 1 for a
certificate from scratch (certify_equivariance), at the new top stage
for a lift, a shift or a flow (_extend, which builds the new
deformation and leaves the one it starts from as it was).  A lift step
so divides its new order only; eps_divide, the membership division of
an arbitrary eps-polynomial, keeps nothing but whether it is exact.

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

import heapq
from dataclasses import dataclass

from .ambient import (
    EquivariantAmbient,
    NormalModule,
    _combination,
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
    its nonzero eps coefficients: ``terms`` maps t to the nonzero ambient
    polynomial at eps^t.  Every operation costs the number of nonzero
    coefficients, never order + 1.

    The coefficients are given as a map t -> polynomial or as a sequence
    indexed by t; zero coefficients and those above the order are
    dropped."""

    __slots__ = ("ring", "order", "terms")

    def __init__(self, ring: PolyRing, order: int, coeffs):
        items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
        self.ring = ring
        self.order = order
        self.terms = {t: c for t, c in items if t <= order and c}

    @classmethod
    def constant(cls, ring: PolyRing, order: int, p: Polynomial) -> "EpsPoly":
        return cls(ring, order, {0: p})

    @classmethod
    def _on(cls, ring: PolyRing, order: int, terms: dict) -> "EpsPoly":
        """The EpsPoly on terms that hold only nonzero coefficients at
        powers <= order.  The dict may be shared: no EpsPoly changes its
        terms."""
        out = cls.__new__(cls)
        out.ring, out.order, out.terms = ring, order, terms
        return out

    def coeff(self, t: int) -> Polynomial:
        return self.terms.get(t, self.ring.zero)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, EpsPoly)
            and other.ring is self.ring
            and other.order == self.order
            and other.terms == self.terms
        )

    def __add__(self, other):
        return self._combine(other, Polynomial.__add__)

    def __sub__(self, other):
        return self._combine(other, Polynomial.__sub__)

    def _combine(self, other, op):
        other = self._coerce(other)
        terms = dict(self.terms)
        zero = self.ring.zero
        for t, c in other.terms.items():
            terms[t] = op(terms.get(t, zero), c)
        return EpsPoly(self.ring, self.order, terms)

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
                       {s + t: c for s, c in self.terms.items()})

    def lift(self, order: int) -> "EpsPoly":
        """Coefficientwise lift: the same nonzero coefficients over a
        higher order."""
        if order < self.order:
            raise ValueError("a lift cannot lower the order")
        return EpsPoly._on(self.ring, order, self.terms)

    def __repr__(self):
        pieces = []
        for t, c in sorted(self.terms.items()):
            if t == 0:
                pieces.append(repr(c))
            else:
                power = "eps" if t == 1 else f"eps^{t}"
                pieces.append(f"{power}*({c!r})")
        return " + ".join(pieces) if pieces else "0"


class Deformation:
    """An equivariant lift of the base presentation over k[eps]/(eps^(m+1)).

    Generators are eps-polynomials reducing to the ambient presentation
    mod eps.  ``quotients`` holds the stage quotients of its equivariance
    certificate: per index i of a generator inverse s^-1 and per
    generator j, the cofactor rows {t: Q_t} with

        s^-1(F_j) = sum_l (T_jl + sum_t eps^t Q_t[l]) F_l  mod eps^(m+1),

    T the twist cofactors amb.twists[i], kept only at the stages t >= 1
    whose residual was nonzero.  Constructors that build a lift certify
    it, dividing only the stage they change and carrying the stages
    below from the deformation they start from (``_extend``).  A
    deformation built by hand has none until verify_deformation, or the
    first extension of it, certifies it from stage 1; nothing else is
    ever assigned to a deformation after it is built.
    """

    def __init__(self, amb: EquivariantAmbient, order: int, gens):
        self.amb = amb
        self.order = order
        self.gens = tuple(gens)
        self.quotients = None
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
        d.quotients = certify_equivariance(amb, d.gens)
        return d

    def __repr__(self):
        return (f"Deformation(order {self.order}: "
                + "; ".join(repr(g) for g in self.gens) + ")")


def _divide(h: dict, gens, representer, order: int, start: int,
            quotients: dict, allow_final_remainder: bool):
    """The stage division of the lifted generators, from stage start on.

    h maps stages >= start to the coefficients being divided; quotients
    holds the cofactor rows {t: Q_t} of the stages below start, divided
    already for the same lower coefficients of the generators.  The
    residual of stage k is h[k] - sum_{t<k} sum_l Q_t[l] F_l[k-t]; only
    the stages where it is nonzero are divided, in ascending order, and
    their rows are added to quotients.  Returns the remainder w at the
    final stage when allowed (h = sum S_l F_l + eps^order w), else None
    when the division is exact; raises DeformationError when a stage
    leaves the ideal.  h is consumed."""
    r = h
    zero = representer.ring.zero
    if quotients:  # what the rows below start leave at stages >= start
        for l, g in enumerate(gens):
            for s, gs in g.terms.items():
                for t in range(max(start - s, 0), min(start, order + 1 - s)):
                    row = quotients.get(t)
                    if row is not None and row[l]:
                        r[t + s] = r.get(t + s, zero) - row[l] * gs
    stages = list(r)  # exactly the keys of r, popped together
    heapq.heapify(stages)
    while stages:
        t = heapq.heappop(stages)
        rt = r.pop(t)
        if not rt:
            continue
        cof = representer.express(rt)
        if cof is None:
            if allow_final_remainder and t == order:
                return rt
            raise DeformationError(
                f"eps^{t} coefficient is not in the base ideal"
            )
        quotients[t] = tuple(cof)
        for c, g in zip(cof, gens):
            if not c:
                continue
            # s = 0 cancels stage t itself, which is done
            for s, gs in g.terms.items():
                k = t + s
                if s and k <= order:
                    if k in r:
                        r[k] = r[k] - c * gs
                    else:
                        r[k] = -(c * gs)
                        heapq.heappush(stages, k)
    return None


def eps_divide(h: EpsPoly, gens, representer):
    """Membership division of h by the lifted generators, stagewise from
    eps^0 on with no stages below (``_divide``): returns None when h lies
    in the ideal they generate over the truncated base (the quotients
    are not kept), and raises DeformationError at the first stage that
    leaves it."""
    return _divide(dict(h.terms), gens, representer, h.order, 0, {}, False)


def _equivariance_division(amb: EquivariantAmbient, gens, start: int, below,
                           allow_final_remainder: bool):
    """(remainders, quotients) of dividing each s^-1(F_j) by the lifted
    generators from stage start on, both keyed by the index i of
    s^-1 per generator s and listed by j: the final-order remainder (None
    where exact) and the stage rows of the division.  below holds the
    rows of the stages under start in the same layout (None from stage 1).

    The generators must reduce to the ambient presentation mod eps, so
    with T the exact twist row of s^-1(f_j), amb.twists[i], the division
    may start from s^-1(F_j) - sum_l T[j][l] F_l, which vanishes at
    eps^0.  The group acts on the nonzero coefficients of order >= start
    only."""
    action = amb.action
    rep = amb.pres.representer
    zero = amb.ring.zero
    # the nonzero (t, F_j[t]), t >= start, of each generator
    higher = [[(t, c) for t, c in g.terms.items() if t >= start] for g in gens]
    moving = [(l, lifted) for l, lifted in enumerate(higher) if lifted]
    remainders, quotients = {}, {}
    for i in map(action.inv, action.generators):
        remainders[i], quotients[i] = [], []
        for j, (g, terms, cofactors) in enumerate(zip(gens, higher, amb.twists[i])):
            h = {t: action.apply(i, c) for t, c in terms} if terms else {}
            for l, lifted in moving:
                T = cofactors[l]
                if T:
                    for t, c in lifted:
                        h[t] = h.get(t, zero) - T * c
            prior = {} if below is None else below[i][j]
            rows = {t: row for t, row in prior.items() if t < start} if prior else {}
            # with no input and no rows below, every residual is zero
            w = _divide(h, gens, rep, g.order, start, rows, allow_final_remainder) \
                if h or rows else None
            remainders[i].append(w)
            quotients[i].append(rows)
    return remainders, quotients


def certify_equivariance(amb: EquivariantAmbient, gens) -> dict:
    """Check that s^-1(F_j) divides out over the lifted generators for
    every generator s, from stage 1 on; returns the stage quotients
    (the layout of ``Deformation.quotients``) and raises
    DeformationError when the lift is not equivariant.

    This is a complete certificate: the inverses of the generators
    generate G, so an ideal they stabilize is stable under every element.
    The identity and the other elements are never divided."""
    gens = tuple(gens)
    if len(gens) != len(amb.pres.gens) or any(
            g.coeff(0) != f for g, f in zip(gens, amb.pres.gens)):
        raise DeformationError("reduction mod eps is not the base presentation")
    return _equivariance_division(amb, gens, 1, None, False)[1]


def _below(g: EpsPoly, m: int) -> dict:
    """The nonzero eps coefficients of g below eps^m."""
    return {t: c for t, c in g.terms.items() if t < m}


def _extend(d: Deformation, gens, order: int):
    """(the deformation with generators gens over eps order n = order,
    the remainders of its stage-n division), for gens that agree with
    d's below eps^n: n = d.order for a shift or a flow, d.order + 1 for
    a lift.  Its certificate is d's stages below n and the stage-n rows,
    complete when every remainder is None.  d is left as it was, but
    certified from stage 1 first when it was built by hand."""
    out = Deformation(d.amb, order, gens)
    if any(_below(g, order) != _below(f, order) for g, f in zip(out.gens, d.gens)):
        raise DeformationError(f"generators differ from the deformation below eps^{order}")
    if d.quotients is None:
        d.quotients = certify_equivariance(d.amb, d.gens)
    remainders, out.quotients = _equivariance_division(d.amb, out.gens, order, d.quotients, True)
    return out, remainders


def _certified(d: Deformation, gens, order: int) -> Deformation:
    """The deformation ``_extend`` builds, which must be equivariant:
    raises DeformationError when stage n = order leaves the ideal."""
    out, remainders = _extend(d, gens, order)
    if not _exact(remainders):
        raise DeformationError(f"eps^{order} coefficient is not in the base ideal")
    return out


def verify_deformation(d: Deformation) -> None:
    """Re-run the equivariance certificate of a deformation from stage 1
    and keep its stage quotients on d; raises DeformationError, its
    message prefixed with ``equivariance: ``, when the lift is not
    equivariant.

    Its base reduction is checked when it is built, and the presentation
    it reduces to is a certified regular sequence, so its coefficientwise
    lift is flat."""
    try:
        d.quotients = certify_equivariance(d.amb, d.gens)
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
    if any(_below(g1, m) != _below(g2, m) for g1, g2 in zip(d1.gens, d2.gens)):
        raise DeformationError("lifts do not agree below the top order")
    # DifferenceClass takes the normal forms
    cls = DifferenceClass(d1.amb, [g1.coeff(m) - g2.coeff(m) for g1, g2 in zip(d1.gens, d2.gens)])
    N = NormalModule(d1.amb)
    for i in d1.amb.action.generators:
        if N.act(i, cls.vector) != cls.vector:
            raise DeformationError(
                "difference class is not invariant; are both lifts equivariant?"
            )
    return cls


def shift_lift(d: Deformation, cls: DifferenceClass) -> Deformation:
    """The lift with generators F_j - eps^m * nu_j; the difference class
    from d back to it is cls.  Only its top stage is divided anew."""
    if cls.amb is not d.amb:
        raise DeformationError("class over a different ambient")
    m = d.order
    gens = []
    for g, nu in zip(d.gens, cls.vector):
        correction = EpsPoly.constant(d.amb.ring, m, nu).shift(m)
        gens.append(g - correction)
    return _certified(d, tuple(gens), m)


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
    exactly in every characteristic.  Only the top stage is divided anew."""
    m = d.order
    if m == 0:
        raise DeformationError("a flow needs an eps order of at least 1")
    gens = []
    for g, row in zip(d.gens, d.amb.pres.jacobian):
        top = sum((df * c for df, c in zip(row, components) if df and c), g.coeff(m))
        gens.append(EpsPoly(g.ring, m, {**g.terms, m: top}))
    return _certified(d, tuple(gens), m)


def isomorphism_witness(d1: Deformation, d2: Deformation, trunc: int):
    """An invariant ambient derivation whose normal image is the
    difference class of the lifts, or None at this slice.

    A found witness is an exact certificate: x -> x + eps^m D carries d2
    into d1 (checked before returning)."""
    nu = difference_class(d1, d2)
    amb = d1.amb
    if nu.is_zero():
        return DerivationWitness(amb, (amb.ring.zero,) * amb.ring.nvars)
    basis, images = amb.vector_slice(trunc + SLACK)
    if not basis:
        return None
    coords = _SliceCoordinates()
    columns = [coords.row(u) for u in images]
    (sol,) = solve(amb.ring.field, columns, [coords.row(nu.vector)], len(coords.index))
    if sol is None:
        return None
    components = (_combination(amb.ring, ((c, basis[k][i]) for k, c in sol.items()))
                  for i in range(amb.ring.nvars))
    witness = DerivationWitness(amb, tuple(amb.pres.nf(p) for p in components))
    moved = apply_flow(d2, witness.components)
    if not ideal_equal(moved, d1):
        raise DeformationError("witness failed its realization check")
    return witness


def default_truncation(amb: EquivariantAmbient) -> int:
    degs = [f.degree() for f in amb.pres.gens]
    return 2 * max(degs, default=1)


def _exact(remainders) -> bool:
    return all(w is None for row in remainders.values() for w in row)


def obstruction_cocycle(d: Deformation, lift_gens) -> Cocycle:
    """The equivariance-defect cocycle of a (possibly non-equivariant)
    lift of d, in standard form for the normal-module action.

    For a generator s, w_j is the eps^(m+1) remainder of dividing
    s^-1(F_j') by the lifted generators, and c(s) = NF(s(w)); this makes
    c(st) = s.c(t) + c(s) hold on the nose, which fixes c at every other
    element.  A zero cocycle means every division was exact: w is only
    returned when it lies outside the ideal, which s stabilizes.  The
    stages up to m are d's certificate, so only eps^(m+1) is divided."""
    amb = d.amb
    _, remainders = _extend(d, lift_gens, d.order + 1)
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


def equivariantize(d: Deformation, lift_gens, trunc: int) -> LiftOutcome:
    """Correct a lift of d to an equivariant one, or report the
    obstruction class.

    When the defect cocycle c is nonzero we solve s.phi - phi = -c on a
    G-stable slice and replace F_j' by F_j' - eps^(m+1) phi_j, which
    cancels the defect exactly; the corrected lift is re-certified at
    eps^(m+1).  When every division of the lift is exact the defect is
    zero, so the lift is returned as it is, with that division as the
    top stage of its certificate, and no cocycle is formed; otherwise
    obstruction_cocycle divides that stage once more."""
    amb = d.amb
    order = d.order + 1
    lift, remainders = _extend(d, lift_gens, order)
    if _exact(remainders):
        return LiftOutcome(True, lift, None, "exact")
    c = obstruction_cocycle(d, lift.gens)
    N = NormalModule(amb)
    bound = trunc + SLACK
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
    for g, comp in zip(lift.gens, nu):
        gens.append(g - EpsPoly.constant(amb.ring, order, comp).shift(order))
    return LiftOutcome(True, _certified(d, tuple(gens), order), None, "exact")


def lift_step(d: Deformation, trunc: int) -> LiftOutcome:
    """One equivariant lifting step: take the coefficientwise lift
    (always a lift, rarely equivariant) and equivariantize it."""
    lift_gens = tuple(g.lift(d.order + 1) for g in d.gens)
    return equivariantize(d, lift_gens, trunc)


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


def tangent_spaces(amb: EquivariantAmbient, trunc: int) -> TangentReport:
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
    ``EquivariantAmbient.vector_slice``, which holds that slice for a
    later ``derivations(amb, D)``.
    """
    pres = amb.pres
    ring = amb.ring
    D = trunc
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
            for c, vec in enumerate(t1_vectors):
                for p_idx, poly in enumerate(module_gb.reduce_polys(N.act(i, vec))):
                    for mono, coeff in poly.terms.items():
                        rows[index[(p_idx, mono)]][c] = coeff
            matrices[i] = rows
        t1 = GModuleSlice(amb.action, field, len(qb.monomials), matrices, t1_vectors)
        fixed = invariants(t1)
        # invariant vector representatives via averaging
        scale = field.inv(field.of(len(amb.action)))
        reps = []
        for coords in fixed:
            vec = t1.materialize(coords)
            images = [N.act(i, vec) for i in amb.action.indices()]
            reps.append(tuple(_combination(ring, ((scale, image[j]) for image in images))
                              for j in range(rank)))
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


def obstruction_space(amb: EquivariantAmbient, trunc: int) -> ObstructionReport:
    """H^1(G, normal module) on slices; exactly zero in the tame case.

    The cocycles come from the slice at D, and the coboundaries that may
    kill them from the slice at ``_search_degree(amb, D)``: D + SLACK in
    general, D itself (one slice, no embedding) on a graded setup with
    one generator degree, where the larger slice kills no more classes."""
    D = trunc
    if amb.action.is_tame() or not amb.pres.gens:
        return ObstructionReport(0, [], "exact")
    N = NormalModule(amb)
    m_small = slice_of_normal_module(N, D)
    search = _search_degree(amb, D)
    m_big = m_small if search == D else slice_of_normal_module(N, search)
    others = [i for i in amb.action.indices() if i != amb.action.identity_index]
    reps = [Cocycle(N, {s: m_small.materialize(z.get(s, {})) for s in others})
            for z in h1_bounded(m_small, m_big)]
    return ObstructionReport(len(reps), reps, f"slice:{D}")


def invariant_normal_slice(amb: EquivariantAmbient, degree: int):
    """Basis of invariant normal-module vectors at the slice: the torsor
    directions for embedded equivariant lifts, and the numerator of the
    slice route of T^1_G."""
    N = NormalModule(amb)
    m = slice_of_normal_module(N, degree)
    return [m.materialize(c) for c in invariants(m)]
