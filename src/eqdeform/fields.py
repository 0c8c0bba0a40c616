"""Exact base fields: the rationals and prime fields F_p.

Field elements are plain Python values (``Fraction`` for Q, ints in
``[0, p)`` for F_p); a ``Field`` object supplies the arithmetic so the
rest of the package stays generic over the coefficient field.
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

    ``zero`` and ``one`` are plain attributes holding the field's units,
    so the hot loops that compare against them do no coercion."""

    characteristic: int
    zero: object
    one: object

    def of(self, value):
        raise NotImplementedError

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def is_invertible_int(self, n: int) -> bool:
        """Whether the integer n is a unit in this field."""
        return self.of(n) != self.zero


class RationalField(Field):
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise FieldError(f"cannot coerce {value!r} into Q")

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(a)

    def fraction(self, num: int, den: int):
        return Fraction(num, den)

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
