"""Exact base fields: the rationals and prime fields F_p.

Field elements are plain Python values: over Q an ``int`` when the
value is integral and a ``Fraction`` only when its denominator exceeds
one; over F_p ints in ``[0, p)``.  A ``Field`` object supplies the
arithmetic so the rest of the package stays generic over the
coefficient field.  An integral ``Fraction`` and its ``int`` compare,
hash and print alike, so the canonical form changes no output; it only
keeps the common integer coefficients in machine arithmetic.

``add_scaled`` is the one loop that adds a scaled sparse ``{key: value}``
dict into another: polynomial sums, linear combinations, S-vectors and
eliminations all go through it.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """Common interface; instances are immutable and hash/compare by kind.

    Each kind supplies ``of``, ``add``, ``sub``, ``mul``, ``inv``,
    ``fraction`` and ``render``.  ``zero`` and ``one`` are plain
    attributes holding the field's units, so the hot loops that compare
    against them do no coercion."""

    characteristic: int
    zero: object
    one: object

    def neg(self, a):
        return -a

    def is_invertible_int(self, n: int) -> bool:
        """Whether the integer n is a unit in this field."""
        return self.of(n) != self.zero


def canonical_rational(x):
    """The rational x as an ``int`` when it is integral, else unchanged."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


class RationalField(Field):
    """Q, its elements in canonical form (``canonical_rational``)."""

    characteristic = 0
    zero = 0
    one = 1

    def of(self, value):
        if isinstance(value, (int, Fraction)):
            return canonical_rational(value)
        if isinstance(value, str):
            return canonical_rational(Fraction(value))
        raise FieldError(f"cannot coerce {value!r} into Q")

    def add(self, a, b):
        return canonical_rational(a + b)

    def sub(self, a, b):
        return canonical_rational(a - b)

    def mul(self, a, b):
        return canonical_rational(a * b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return canonical_rational(1 / Fraction(a))

    def fraction(self, num: int, den: int):
        return canonical_rational(Fraction(num, den))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def render(self, a) -> str:
        return str(a)


class PrimeField(Field):
    """Integers modulo a prime p, residues kept in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1

    def of(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.fraction(value.numerator, value.denominator)
        raise FieldError(f"cannot coerce {value!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def fraction(self, num: int, den: int):
        if den % self.p == 0:
            raise FieldError(f"denominator {den} is 0 in F_{self.p}")
        return self.mul(num % self.p, self.inv(den % self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def render(self, a) -> str:
        return str(a)


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def add_scaled(field: Field, v: dict, factor, row: dict) -> None:
    """v += factor * row in place, dropping the entries that cancel.

    factor must be nonzero.  Then factor * y is nonzero for every entry
    y of row, so an entry that cancels was in v.  The loop is written
    once per kind of field: over F_2 the factor and the entries are one,
    so each key of row toggles; over F_p one residue is taken per entry;
    over Q the sum starts from the int zero and each stored entry is put
    in canonical form (an ``int`` when integral).  The keys of row are
    met in order: a new one is appended, an existing one is updated where
    it stands and one that cancels is removed.  Printed bases depend on
    that order, since the slice coordinates number keys as first met."""
    p = field.characteristic
    get = v.get
    if p == 2:
        for k in row:
            if v.pop(k, 0) == 0:
                v[k] = 1
    elif p:
        for k, y in row.items():
            x = (get(k, 0) + factor * y) % p
            if x:
                v[k] = x
            else:
                del v[k]
    else:
        for k, y in row.items():
            x = get(k, 0) + factor * y
            if x:
                v[k] = x if type(x) is int else canonical_rational(x)
            else:
                del v[k]
