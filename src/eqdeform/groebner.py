"""Buchberger Groebner bases for ideals and submodules of free modules.

One engine covers everything: elements of P^r are dicts mapping
(position, exponent-tuple) to coefficients, ordered position-over-term
(position 0 largest) extending the ring order.  Syzygies, ideal
membership with an explicit representation, kernels over quotient
rings and k-bases of quotient modules all come from the same loop via
augmented modules: position priority makes the tail block an
elimination block for free.

Pair pruning is Gebauer-Moeller.  The coprime-leading-term criterion
is sound only for rank-1 (plain ideal) runs and is disabled otherwise:
for augmented runs the "trivial" reductions are exactly the Koszul
syzygies we are after.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .fields import add_scaled
from .poly import (
    ContextMismatchError,
    PolyRing,
    Polynomial,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

Vec = dict  # {(pos, exps): coeff}


def _term_key(ring: PolyRing, term):
    pos, m = term
    return (-pos, ring.order.key(m))


def vec_from_polys(polys) -> Vec:
    v: Vec = {}
    for pos, p in enumerate(polys):
        for m, c in p.terms.items():
            v[(pos, m)] = c
    return v


def vec_to_polys(v: Vec, rank: int, ring: PolyRing):
    comps = [dict() for _ in range(rank)]
    for (pos, m), c in v.items():
        comps[pos][m] = c
    return tuple(Polynomial(ring, t) for t in comps)


def _vec_lt(ring: PolyRing, v: Vec):
    return max(v, key=lambda t: _term_key(ring, t))


def _vec_monic(field, v: Vec, lt) -> Vec:
    inv = field.inv(v[lt])
    return {t: field.mul(inv, c) for t, c in v.items()}


def _vec_canonical_key(ring: PolyRing, v: Vec):
    """Terms in descending order, each coefficient by its printed form:
    ``str`` is the same for an ``int`` and its integral ``Fraction``, and
    orders rationals as ``repr`` of their ``Fraction`` forms does."""
    items = sorted(v.items(), key=lambda t: _term_key(ring, t[0]), reverse=True)
    return tuple((t[0][0], ring.order.key(t[0][1]), str(t[1])) for t in items)


def reduce_vec(ring: PolyRing, v: Vec, basis: list[tuple]) -> Vec:
    """Normal form of v against basis entries (vec, lt) pairs, each vec
    monic at lt: no remaining term is divisible by any leading term.

    The terms are taken largest first from a heap, each keyed once when
    it enters; a term is reduced in place by the first entry whose
    leading term divides it, or else kept.  Reducing t brings in only
    terms below t, so no term enters twice; one that cancels stays
    queued with the value zero.  The remainder lists its terms in
    descending order.  The work dict is updated by hand, not by
    ``add_scaled``: a new term is also pushed on the heap, and a
    cancelled one keeps its entry until it is popped."""
    field, zero = ring.field, ring.field.zero
    desc = ring.order.descending_key
    work = dict(v)
    heap = [(pos, desc(m), (pos, m)) for pos, m in work]
    heapify(heap)
    done: Vec = {}
    while heap:
        t = heappop(heap)[2]
        c = work.pop(t)
        if c == zero:
            continue
        pos, m = t
        for g, lt in basis:
            if lt[0] == pos and monomial_divides(lt[1], m):
                shift = monomial_div(m, lt[1])
                for gt, y in g.items():
                    if gt != lt:
                        key = (gt[0], monomial_mul(gt[1], shift))
                        x = work.get(key)
                        if x is None:
                            work[key] = field.neg(field.mul(c, y))
                            heappush(heap, (key[0], desc(key[1]), key))
                        else:
                            work[key] = field.sub(x, field.mul(c, y))
                break
        else:
            done[t] = c
    return done


def _spair(ring: PolyRing, f: Vec, flt, g: Vec, glt) -> Vec:
    """f and g, each shifted to the lcm of their leading terms and made
    monic there, subtracted."""
    field = ring.field
    lcm = monomial_lcm(flt[1], glt[1])
    out: Vec = {}
    for v, lt, factor in ((f, flt, field.inv(f[flt])), (g, glt, field.neg(field.inv(g[glt])))):
        shift = monomial_div(lcm, lt[1])
        add_scaled(field, out, factor,
                   {(pos, monomial_mul(m, shift)): c for (pos, m), c in v.items()})
    return out


def module_groebner(ring: PolyRing, vectors, rank: int) -> list[Vec]:
    """Reduced, monic, canonically sorted Groebner basis of the submodule
    of P^rank generated by the given vectors."""
    field = ring.field
    gens = [dict(v) for v in vectors if v]
    gens.sort(key=lambda v: _vec_canonical_key(ring, v))
    use_product = rank == 1

    G: list[Vec] = []
    lts: list = []
    pairs: set[tuple[int, int]] = set()
    queue: list = []  # (order key of the lcm, pair), a heap over `pairs`

    def lcm_of(i, j):
        return monomial_lcm(lts[i][1], lts[j][1])

    def add_element(f: Vec):
        lt = _vec_lt(ring, f)
        f = _vec_monic(field, f, lt)
        k = len(G)
        # Gebauer-Moeller: drop old pairs strictly superseded by the new lt
        if G:
            survivors = set()
            for (i, j) in pairs:
                if lts[i][0] == lt[0] and monomial_divides(lt[1], lcm_of(i, j)):
                    lcm_ij = lcm_of(i, j)
                    if (
                        monomial_lcm(lts[i][1], lt[1]) != lcm_ij
                        and monomial_lcm(lts[j][1], lt[1]) != lcm_ij
                    ):
                        continue
                survivors.add((i, j))
            pairs.clear()
            pairs.update(survivors)
        # new pairs against elements with a leading term in the same position
        cand = [i for i in range(k) if lts[i][0] == lt[0]]
        by_lcm: dict = {}
        for i in cand:
            by_lcm.setdefault(monomial_lcm(lts[i][1], lt[1]), []).append(i)
        minimal = []
        for L in sorted(by_lcm, key=ring.order.key):
            if all(not monomial_divides(L2, L) for L2 in minimal):
                minimal.append(L)
        for L in minimal:
            if use_product and any(
                monomial_lcm(lts[i][1], lt[1]) == monomial_mul(lts[i][1], lt[1])
                for i in by_lcm[L]
            ):
                continue
            pairs.add((min(by_lcm[L]), k))
            heappush(queue, (ring.order.key(L), (min(by_lcm[L]), k)))
        G.append(f)
        lts.append(lt)

    for g in gens:
        add_element(g)

    while queue:
        i, j = heappop(queue)[1]
        if (i, j) not in pairs:  # dropped by Gebauer-Moeller
            continue
        pairs.discard((i, j))
        s = _spair(ring, G[i], lts[i], G[j], lts[j])
        if not s:
            continue
        r = reduce_vec(ring, s, list(zip(G, lts)))
        if r:
            add_element(r)

    # minimalize
    order_idx = sorted(range(len(G)), key=lambda i: _term_key(ring, lts[i]))
    minimal_idx = []
    for i in order_idx:
        pos, m = lts[i]
        if not any(
            lts[j][0] == pos and monomial_divides(lts[j][1], m) for j in minimal_idx
        ):
            minimal_idx.append(i)
    # interreduce
    reduced = []
    for i in minimal_idx:
        others = [(G[j], lts[j]) for j in minimal_idx if j != i]
        r = reduce_vec(ring, G[i], others)
        if r:
            reduced.append(_vec_monic(field, r, _vec_lt(ring, r)))
    return canonical_order(ring, reduced)


def canonical_order(ring: PolyRing, vectors) -> list[Vec]:
    """The vectors in the order ``module_groebner`` returns its basis."""
    return sorted(vectors, key=lambda v: _vec_canonical_key(ring, v))


class ModuleGB:
    """A computed module Groebner basis with a reduction method."""

    def __init__(self, ring: PolyRing, rank: int, elements: list[Vec]):
        self.ring = ring
        self.rank = rank
        self.elements = elements
        self._with_lt = [(g, _vec_lt(ring, g)) for g in elements]

    @classmethod
    def of_cokernel(cls, ring: PolyRing, rank: int, relations,
                    base_ideal: "GroebnerBasis") -> "ModuleGB":
        """The basis of M = B^rank / <relations>, B = P/base_ideal: the
        relations together with base_ideal times each unit vector."""
        vectors = [vec_from_polys(rel) for rel in relations]
        for f in base_ideal.generators:
            for j in range(rank):
                vectors.append({(j, m): c for m, c in f.terms.items()})
        return cls(ring, rank, module_groebner(ring, vectors, rank))

    def reduce(self, v: Vec) -> Vec:
        return reduce_vec(self.ring, v, self._with_lt)

    def reduce_polys(self, polys):
        return vec_to_polys(self.reduce(vec_from_polys(polys)), self.rank, self.ring)

    def leading_terms(self):
        return [lt for _, lt in self._with_lt]


class GroebnerBasis:
    """Reduced Groebner basis of an ideal; generators are monic and sorted."""

    def __init__(self, ring: PolyRing, generators: tuple[Polynomial, ...]):
        self.ring = ring
        self.generators = generators
        self._with_lt = [
            (vec_from_polys([g]), (0, g.leading_monomial())) for g in generators
        ]

    @classmethod
    def of_reduced(cls, ring: PolyRing, polys) -> "GroebnerBasis":
        """Polynomials known to form a reduced, monic Groebner basis, in
        the order ``buchberger`` returns them."""
        return cls(ring, tuple(sorted(
            polys, key=lambda g: _vec_canonical_key(ring, vec_from_polys([g])))))

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring is not self.ring:
            raise ContextMismatchError("polynomial not in the basis ring")
        if not self.generators or f.is_zero():
            return f
        red = reduce_vec(self.ring, vec_from_polys([f]), self._with_lt)
        return vec_to_polys(red, 1, self.ring)[0]

    def is_unit_ideal(self) -> bool:
        return any(g.degree() == 0 for g in self.generators)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and other.ring is self.ring
            and other.generators == self.generators
        )

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return "GroebnerBasis(" + ", ".join(repr(g) for g in self.generators) + ")"


def buchberger(gens, ring: PolyRing) -> GroebnerBasis:
    """Reduced Groebner basis in ``ring``, under its order, of the ideal
    generated by gens (the zero ideal when there are none)."""
    if any(g.ring is not ring for g in gens):
        raise ContextMismatchError("generator from another ring")
    vectors = [vec_from_polys([g]) for g in gens if not g.is_zero()]
    basis = module_groebner(ring, vectors, 1)
    polys = tuple(vec_to_polys(v, 1, ring)[0] for v in basis)
    return GroebnerBasis(ring, polys)


def syzygies(ring: PolyRing, vectors, rank: int) -> list[tuple]:
    """Generators of {c in P^t : sum c_i v_i = 0} for vectors v_i in P^rank."""
    t = len(vectors)
    augmented = []
    for i, v in enumerate(vectors):
        w = dict(v)
        w[(rank + i, (0,) * ring.nvars)] = ring.field.one
        augmented.append(w)
    gb = module_groebner(ring, augmented, rank + t)
    out = []
    for g in gb:
        if all(pos >= rank for (pos, _m) in g):
            shifted = {(pos - rank, m): c for (pos, m), c in g.items()}
            out.append(vec_to_polys(shifted, t, ring))
    return out


class Representer:
    """Expresses ideal members in terms of a fixed generator list.

    Built on the augmented module GB of (g_i, e_i); reducing (h, 0)
    leaves (normal form of h, minus the cofactors).
    """

    def __init__(self, gens):
        self.gens = list(gens)
        if not self.gens:
            raise ValueError("need at least one generator")
        self.ring = self.gens[0].ring
        t = len(self.gens)
        augmented = []
        for i, g in enumerate(self.gens):
            v = vec_from_polys([g])
            v[(1 + i, (0,) * self.ring.nvars)] = self.ring.field.one
            augmented.append(v)
        self.gb = ModuleGB(self.ring, 1 + t, module_groebner(self.ring, augmented, 1 + t))

    @classmethod
    def of_reduced(cls, gens, elements) -> "Representer":
        """The representer of gens whose augmented basis is known: the
        elements are the reduced, monic basis ``module_groebner`` would
        return, in any order."""
        rep = cls.__new__(cls)
        rep.gens, rep.ring = list(gens), gens[0].ring
        rep.gb = ModuleGB(rep.ring, 1 + len(gens), canonical_order(rep.ring, elements))
        return rep

    def divide(self, h: Polynomial):
        """(remainder, cofactors) with h = remainder + sum cofactor_i * g_i."""
        if h.is_zero():
            return h, [self.ring.zero] * len(self.gens)
        v = vec_from_polys([h])
        red = self.gb.reduce(v)
        parts = vec_to_polys(red, 1 + len(self.gens), self.ring)
        remainder = parts[0]
        cofactors = [-p for p in parts[1:]]
        return remainder, cofactors

    def express(self, h: Polynomial):
        """Cofactors with h = sum c_i g_i, or None when h is not a member."""
        remainder, cofactors = self.divide(h)
        if not remainder.is_zero():
            return None
        return cofactors


def module_kernel(map_matrix, modulus: GroebnerBasis):
    """Generators of {v in B^r : M v = 0 in B^c} for B = P/modulus.

    map_matrix is a c x r nested list of polynomials over the ambient P;
    computed from syzygies of the augmented ambient module.
    """
    c = len(map_matrix)
    if c == 0:
        raise ValueError("empty matrix")
    r = len(map_matrix[0])
    ring = modulus.ring
    for row in map_matrix:
        for entry in row:
            if entry.ring is not ring:
                raise ContextMismatchError("matrix entry not in the modulus ring")
    columns = [vec_from_polys([map_matrix[j][k] for j in range(c)]) for k in range(r)]
    padding = []
    for f in modulus.generators:
        for j in range(c):
            vec = {}
            for m, coeff in f.terms.items():
                vec[(j, m)] = coeff
            padding.append(vec)
    syz = syzygies(ring, columns + padding, c)
    out = []
    seen = set()
    for s in syz:
        v = tuple(modulus.normal_form(p) for p in s[:r])
        if all(p.is_zero() for p in v):
            continue
        if v not in seen:
            seen.add(v)
            out.append(v)
    out.sort(key=lambda v: _vec_canonical_key(ring, vec_from_polys(v)))
    return out


@dataclass(frozen=True)
class QuotientBasis:
    """k-basis of standard monomial cosets (position, exponents)."""

    finite: bool
    dimension: int | None
    monomials: tuple


def staircase(ring: PolyRing, rank: int, leading_terms, degree: int | None):
    """Standard terms (position, monomial) of P^rank modulo the leading
    terms, by (degree, position, order key), up to degree (all of them
    when None, which needs a finite quotient).  Standard monomials are
    closed under division, so each degree grows from the one below, by a
    variable at or after the last one used and never by a variable that
    is itself a leading term."""
    n = ring.nvars
    by_pos = [[m for p, m in leading_terms if p == pos] for pos in range(rank)]
    free = [[j for j in range(n) if not any(sum(m) == m[j] == 1 for m in lms)]
            for lms in by_pos]
    walls = [[m for m in lms if sum(m) > 1] for lms in by_pos]
    level = [(pos, (0,) * n) for pos, lms in enumerate(by_pos) if all(map(any, lms))]
    out = []
    while level and (degree is None or sum(level[0][1]) <= degree):
        out.extend(level)
        grown = []
        for pos, m in level:
            last = max((i for i, e in enumerate(m) if e), default=0)
            for j in free[pos]:
                if j >= last:
                    up = m[:j] + (m[j] + 1,) + m[j + 1:]
                    if not any(monomial_divides(w, up) for w in walls[pos]):
                        grown.append((pos, up))
        level = sorted(grown, key=lambda t: (t[0], ring.order.key(t[1])))
    return out


def quotient_basis(gb: ModuleGB, trunc: int) -> QuotientBasis:
    """Standard monomials of the quotient module with the Groebner basis
    gb (``ModuleGB.of_cokernel``); exact dimension when finite,
    otherwise all standard monomials up to trunc with the infinite flag."""
    lts = gb.leading_terms()
    # finite: each position has a unit or a pure power of every variable
    finite = all(
        (pos, (0,) * gb.ring.nvars) in lts
        or all(any(p == pos and m[i] == sum(m) > 0 for p, m in lts)
               for i in range(gb.ring.nvars))
        for pos in range(gb.rank))
    if finite:
        monomials = staircase(gb.ring, gb.rank, lts, None)
        return QuotientBasis(True, len(monomials), tuple(monomials))
    monomials = staircase(gb.ring, gb.rank, lts, trunc)
    return QuotientBasis(False, None, tuple(monomials))


@dataclass(frozen=True)
class RegularityCertificate:
    regular: bool
    quotient_dimension: int
    expected_dimension: int
    nvars: int
    ngens: int
    gb: GroebnerBasis  # the basis the dimension was read from


def krull_dimension(gb: GroebnerBasis) -> int:
    """Krull dimension of P/I from the leading-term ideal: the largest
    variable subset containing no leading monomial support, by a
    depth-first search pruned by size.  -1 for the unit ideal."""
    if gb.is_unit_ideal():
        return -1
    ring = gb.ring
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in
                (g.leading_monomial() for g in gb.generators)]
    best = 0

    def search(chosen: frozenset, kept: frozenset):
        # a set holding a support loses one of its variables; the branches
        # drop the first, second, ... one, each keeping those before it,
        # so no subset is visited twice
        nonlocal best
        if len(chosen) <= best:
            return
        inside = next((s for s in supports if s <= chosen), None)
        if inside is None:
            best = len(chosen)
            return
        for i in sorted(inside - kept):
            search(chosen - {i}, kept)
            kept = kept | {i}

    search(frozenset(range(ring.nvars)), frozenset())
    return best


def is_regular_sequence(gens, ring: PolyRing) -> RegularityCertificate:
    """Dimension-count certificate: dim k[x]/(gens) == nvars - len(gens),
    i.e. the ideal has height c = len(gens), so gens is Koszul-regular.
    This does not certify that gens is regular in the given order.  A
    zero generator adds to len(gens) but not to the ideal, so the count
    fails with the true dimension."""
    gens = list(gens)
    gb = buchberger(gens, ring)
    dim = krull_dimension(gb)
    expected = ring.nvars - len(gens)
    return RegularityCertificate(dim == expected and dim >= 0, dim, expected,
                                 ring.nvars, len(gens), gb)
