"""Local ramification counts: invariants of Ext^1 under a cyclic stabilizer.

The module of relative differentials at a ramified point is
(k[t]/(t^d)) dt with the stabilizer of order m acting by t -> z*t for a
primitive m-th root of unity z.  An equivariant free resolution

    0 -> R e_1 -> R e_0 -> (R/(t^d)) dt -> 0

forces weight 1 on e_0 (since dt -> z dt) and weight d+1 on e_1
(e_1 -> t^d e_0); dualizing gives Ext^1 = (R/(t^d)) e_1^* with e_1^* of
weight -(d+1), so the invariant count is a weight congruence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field
from .linalg import kernel_basis


class RamifyError(ValueError):
    """Parameters for which no local count is defined."""


class RootOfUnityError(RamifyError):
    pass


def primitive_root_of_unity(field: Field, m: int):
    """A primitive m-th root of unity in the field, or raise."""
    if m < 1:
        raise RamifyError("m must be positive")
    if m == 1:
        return field.one
    if field.characteristic == 0:
        if m == 2:
            return field.neg(field.one)
        raise RootOfUnityError(f"Q has no primitive {m}-th root of unity")
    p = field.characteristic
    if (p - 1) % m != 0:
        raise RootOfUnityError(f"F_{p} has no primitive {m}-th root of unity "
                               f"(need m | p-1)")
    # z = a^((p-1)/m) has order dividing m, exactly m unless z^(m/q) = 1
    # for a prime q | m; a generator of F_p^* passes, so the scan stops
    primes = _prime_factors(m)
    for a in range(2, p):
        z = pow(a, (p - 1) // m, p)
        if all(pow(z, m // q, p) != 1 for q in primes):
            return field.of(z)
    raise RootOfUnityError(f"no element of order {m} found in F_{p}")


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m, by trial division."""
    out = []
    q = 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        out.append(m)
    return out


@dataclass(frozen=True)
class TruncatedSeriesModule:
    """R/(t^N) twisted so that sigma(t^i e) = z^(i+w) t^i e."""

    modulus_degree: int
    weight: int
    cyclic_order: int
    field: Field

    def __post_init__(self):
        if self.modulus_degree < 0:
            raise RamifyError("modulus degree must be >= 0")
        if self.cyclic_order < 1:
            raise RamifyError("cyclic order must be >= 1")
        primitive_root_of_unity(self.field, self.cyclic_order)

    def invariant_count(self) -> int:
        """Number of basis elements t^i e with i + w = 0 mod m."""
        m = self.cyclic_order
        return sum(
            1 for i in range(self.modulus_degree) if (i + self.weight) % m == 0
        )

    def action_matrix(self):
        """The diagonal action of the chosen generator on the t^i e basis,
        as sparse rows."""
        z = primitive_root_of_unity(self.field, self.cyclic_order)
        field = self.field
        N = self.modulus_degree
        rows = []
        for i in range(N):
            entry = field.one
            for _ in range((i + self.weight) % self.cyclic_order):
                entry = field.mul(entry, z)
            # z^(i+w) = z^((i+w) mod m)
            rows.append({i: entry})
        return rows

    def invariant_count_by_matrix(self) -> int:
        """Fixed-space dimension of the explicit action matrix (oracle)."""
        field = self.field
        rows = [{r: field.sub(x, field.one) for r, x in row.items() if x != field.one}
                for row in self.action_matrix()]
        return len(kernel_basis(field, rows, self.modulus_degree))


def local_ext1_invariants(d: int, m: int, field: Field) -> int:
    """dim of the stabilizer invariants of Ext^1(Omega_local, R).

    Ext^1 = (R/(t^d)) e_1^* with e_1^* of weight -(d+1); when
    d = -1 mod m the count is ceil(d/m), the tame per-point value."""
    if d < 0:
        raise RamifyError("different must be >= 0")
    if m < 2:
        raise RamifyError("stabilizer order must be >= 2")
    module = TruncatedSeriesModule(d, (-(d + 1)) % m, m, field)
    return module.invariant_count()


def tame_different(m: int) -> int:
    """The local different of a tame cyclic stabilizer of order m."""
    if m < 1:
        raise RamifyError("stabilizer order must be >= 1")
    return m - 1
