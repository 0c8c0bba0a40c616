"""Sparse multivariate polynomials with exact coefficients.

Monomials are exponent tuples.  A ``PolyRing`` fixes the field, the
variable names and the active monomial order; rings are compared by
identity, so values from different rings never mix silently.  All
values are immutable and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, le, sub
from typing import Iterable

from .fields import Field, FieldError, add_scaled


class ContextMismatchError(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")


class MonomialOrder:
    """Total monomial order: 'grevlex' or 'lex'.

    Variables are ordered by position, the last position being the most
    significant (so declaring ``vars x y`` gives x < y).
    """

    def __init__(self, kind: str):
        if kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown monomial order {kind!r}")
        self.kind = kind

    def key(self, exps: tuple[int, ...]):
        if self.kind == "grevlex":
            return (sum(exps), tuple(-e for e in exps))
        return tuple(reversed(exps))

    def descending_key(self, exps: tuple[int, ...]):
        """``key`` with every integer negated: ascending in it is
        descending in the order."""
        if self.kind == "grevlex":
            return (-sum(exps), exps)
        return tuple(-e for e in reversed(exps))

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.kind == self.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"MonomialOrder({self.kind!r})"


def monomial_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def monomial_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(map(le, a, b))


def monomial_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(sub, a, b))


def monomial_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(max, a, b))


def monomial_degree(a: tuple[int, ...]) -> int:
    return sum(a)


class PolyRing:
    """k[x_1..x_n] with a fixed monomial order.  Compared by identity."""

    def __init__(self, field: Field, variables: Iterable[str], order: MonomialOrder | None = None):
        self.field = field
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        self.nvars = len(self.variables)
        self.order = order if order is not None else MonomialOrder("grevlex")
        self._var_index = {v: i for i, v in enumerate(self.variables)}
        self.zero = Polynomial(self, {})
        self.one = Polynomial(self, {(0,) * self.nvars: field.one})

    def var(self, name: str) -> "Polynomial":
        i = self._var_index[name]
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exps: self.field.one})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(v) for v in self.variables)

    def const(self, value) -> "Polynomial":
        c = self.field.of(value)
        if c == self.field.zero:
            return self.zero
        return Polynomial(self, {(0,) * self.nvars: c})

    def monomial(self, exps: tuple[int, ...]) -> "Polynomial":
        return Polynomial(self, {tuple(exps): self.field.one})

    def from_terms(self, terms: dict) -> "Polynomial":
        clean = {m: c for m, c in terms.items() if c != self.field.zero}
        return Polynomial(self, clean)

    def __repr__(self):
        return f"{self.field}[{', '.join(self.variables)}]"


class Polynomial:
    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None

    def _check(self, other: "Polynomial"):
        if self.ring is not other.ring:
            raise ContextMismatchError(
                f"polynomials from different rings: {self.ring} vs {other.ring}"
            )

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field, terms = self.ring.field, dict(self.terms)
        add_scaled(field, terms, field.one, other.terms)
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        field = self.ring.field
        return Polynomial(self.ring, {m: field.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field, terms = self.ring.field, dict(self.terms)
        add_scaled(field, terms, field.neg(field.one), other.terms)
        return Polynomial(self.ring, terms)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product, summed term by term in its own loop: a pass of
        ``add_scaled`` per term of self would first build the shifted
        dict of other's terms, which costs more than it saves."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.ring.field
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                s = field.add(terms.get(m, field.zero), field.mul(c1, c2))
                if s == field.zero:
                    terms.pop(m, None)
                else:
                    terms[m] = s
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(monomial_degree(m) for m in self.terms)

    def leading_term(self) -> tuple[tuple[int, ...], object]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=self.ring.order.key)
        return m, self.terms[m]

    def leading_monomial(self) -> tuple[int, ...]:
        return self.leading_term()[0]

    def sorted_terms(self):
        """Terms in descending active order."""
        return sorted(self.terms.items(), key=lambda t: self.ring.order.key(t[0]), reverse=True)

    def is_homogeneous(self) -> bool:
        degs = {monomial_degree(m) for m in self.terms}
        return len(degs) <= 1

    def __repr__(self):
        return canonical_render(self)


def substitute(f: Polynomial, images: dict):
    """Ring-homomorphic substitution x -> images[x].

    Variables absent from images map to themselves, so a partial map
    stays in f's ring.  When every variable has an image, the images may
    live in another ring; every image must be a Polynomial, and all of
    them in one ring (ContextMismatchError otherwise).  Each term c*x^m
    becomes c times the cached image powers, left to right, and the terms
    are summed in f's term order.
    """
    ring = f.ring
    for name in images:
        if name not in ring._var_index:
            raise ContextMismatchError(f"unknown variable {name!r} in substitution")
    if len(images) == ring.nvars:
        image_list = [images[v] for v in ring.variables]
    else:
        image_list = [images[v] if v in images else ring.var(v) for v in ring.variables]
    first = image_list[0] if image_list else ring.one
    for name, g in zip(ring.variables, image_list):
        # a non-Polynomial first image fails here before its ring is read
        if type(g) is not Polynomial or g.ring is not first.ring:
            raise ContextMismatchError(
                f"image of {name!r} is not a polynomial in the images' ring")
    const, field, terms = first.ring.const, first.ring.field, {}
    # powers[i][e - 1] is image i to the power e, built one factor at a time
    powers = [[g] for g in image_list]
    for m, c in f.terms.items():
        part = const(c)
        for i, e in enumerate(m):
            if e:
                cache = powers[i]
                while len(cache) < e:
                    cache.append(cache[-1] * image_list[i])
                part = part * cache[e - 1]
        add_scaled(field, terms, field.one, part.terms)
    return Polynomial(first.ring, terms)


def partial(f: Polynomial, i: int) -> Polynomial:
    """Partial derivative with respect to the i-th variable."""
    field = f.ring.field
    # distinct terms stay distinct: no two keys meet, so nothing is summed
    terms = {m[:i] + (m[i] - 1,) + m[i + 1:]: d for m, c in f.terms.items()
             if m[i] and (d := field.mul(c, field.of(m[i])))}
    return Polynomial(f.ring, terms)


def _render_coeff(field, c) -> tuple[bool, str]:
    """(negative, magnitude-string) for a coefficient, per field conventions:
    over Q (an ``int`` or a ``Fraction``) the sign is read off, over F_p
    the residue in [0, p) is printed as is."""
    if field.characteristic == 0 and c < 0:
        return True, field.render(-c)
    return False, field.render(c)


def canonical_render(f: Polynomial) -> str:
    """Deterministic text form: descending terms, explicit signs, '^' powers."""
    if not f.terms:
        return "0"
    ring = f.ring
    field = ring.field
    pieces = []
    for m, c in f.sorted_terms():
        neg, mag = _render_coeff(field, c)
        factors = []
        for name, e in zip(ring.variables, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = mag
        elif mag == "1":
            body = "*".join(factors)
        else:
            body = "*".join([mag] + factors)
        pieces.append((neg, body))
    first_neg, first_body = pieces[0]
    out = ("-" if first_neg else "") + first_body
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


_TOKEN_CHARS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append((("int", int(text[i:j])), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((("ident", text[i:j]), i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """Parse `term (('+'|'-') term)*` with terms `coeff ('*'? var ('^' nat)?)*`."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def location():
        return tokens[pos][1] if pos < len(tokens) else len(text)

    def parse_term():
        nonlocal pos
        field = ring.field
        coeff = field.one
        exps = [0] * ring.nvars
        saw_factor = False
        while True:
            tok = peek()
            if isinstance(tok, tuple) and tok[0] == "int":
                num = tok[1]
                pos += 1
                if peek() == "/":
                    pos += 1
                    tok2 = peek()
                    if not (isinstance(tok2, tuple) and tok2[0] == "int"):
                        raise ParseError("expected denominator", location())
                    den = tok2[1]
                    pos += 1
                    if den == 0:
                        raise ParseError("zero denominator", location())
                    try:
                        coeff = field.mul(coeff, field.fraction(num, den))
                    except FieldError as exc:
                        raise ParseError(str(exc), location()) from exc
                else:
                    coeff = field.mul(coeff, field.of(num))
                saw_factor = True
            elif isinstance(tok, tuple) and tok[0] == "ident":
                name = tok[1]
                if name not in ring._var_index:
                    raise ParseError(f"unknown variable {name!r}", location())
                pos += 1
                e = 1
                if peek() == "^":
                    pos += 1
                    tok2 = peek()
                    if not (isinstance(tok2, tuple) and tok2[0] == "int"):
                        raise ParseError("expected exponent", location())
                    e = tok2[1]
                    pos += 1
                exps[ring._var_index[name]] += e
                saw_factor = True
            else:
                break
            if peek() == "*":
                pos += 1
                tok = peek()
                ok = isinstance(tok, tuple) and tok[0] in ("int", "ident")
                if not ok:
                    raise ParseError("expected factor after '*'", location())
        if not saw_factor:
            raise ParseError("expected a term", location())
        return tuple(exps), coeff

    field = ring.field
    terms: dict = {}
    sign = field.one
    tok = peek()
    if tok == "+":
        pos += 1
    elif tok == "-":
        sign = field.neg(field.one)
        pos += 1
    while True:
        m, c = parse_term()
        if c != field.zero:  # the F_2 loop of add_scaled reads no value
            add_scaled(field, terms, sign, {m: c})
        tok = peek()
        if tok is None:
            break
        if tok == "+":
            sign = field.one
        elif tok == "-":
            sign = field.neg(field.one)
        else:
            raise ParseError("expected '+' or '-' between terms", location())
        pos += 1
    return Polynomial(ring, terms)
