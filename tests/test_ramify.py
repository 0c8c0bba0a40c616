from math import ceil

import pytest

from eqdeform.cli import main
from eqdeform.fields import GF, QQ
from eqdeform.ramify import (
    RootOfUnityError,
    TruncatedSeriesModule,
    local_ext1_invariants,
    primitive_root_of_unity,
    tame_different,
)

FIELDS = {2: GF(5), 3: GF(7), 4: GF(5), 5: GF(11), 6: GF(7), 7: GF(29)}


def test_tame_different():
    assert tame_different(2) == 1
    assert tame_different(5) == 4
    assert tame_different(1) == 0


def test_small_tame_values():
    assert local_ext1_invariants(1, 2, GF(5)) == 1
    assert local_ext1_invariants(2, 3, GF(7)) == 1
    assert local_ext1_invariants(0, 6, GF(7)) == 0


def test_tame_per_point_value():
    for m in (2, 3, 5, 7):
        assert local_ext1_invariants(tame_different(m), m, FIELDS[m]) == 1


def test_ceiling_formula_on_tame_stratum():
    for m in (2, 3, 5, 7):
        for q in range(1, 5):
            d = q * m - 1
            assert local_ext1_invariants(d, m, FIELDS[m]) == ceil(d / m) == q


def test_weight_count_matches_matrix_fixed_space():
    for m in (2, 3, 4, 5, 6):
        field = FIELDS[m]
        for d in range(0, 13):
            module = TruncatedSeriesModule(d, (-(d + 1)) % m, m, field)
            assert module.invariant_count() == module.invariant_count_by_matrix()


def test_off_tame_stratum_floor():
    # the resolution-derived twist gives floor(d/m) away from d = -1 mod m
    for m in (2, 3, 5):
        for d in range(1, 12):
            if (d + 1) % m != 0:
                assert local_ext1_invariants(d, m, FIELDS[m]) == d // m


def test_root_of_unity_requirements():
    assert primitive_root_of_unity(QQ, 2) == QQ.of(-1)
    assert primitive_root_of_unity(GF(5), 4) is not None
    with pytest.raises(RootOfUnityError):
        primitive_root_of_unity(GF(2), 2)
    with pytest.raises(RootOfUnityError):
        primitive_root_of_unity(QQ, 3)
    with pytest.raises(RootOfUnityError):
        local_ext1_invariants(1, 3, QQ)
    with pytest.raises(ValueError):
        local_ext1_invariants(-1, 2, GF(5))
    with pytest.raises(ValueError):
        local_ext1_invariants(1, 1, GF(5))


def _order(z, p):
    power, k = z, 1
    while power != 1:
        power, k = power * z % p, k + 1
    return k


@pytest.mark.parametrize("p", [p for p in range(3, 100) if all(p % q for q in range(2, p))])
def test_primitive_roots_have_exact_order(p):
    for m in range(1, p):
        if (p - 1) % m == 0:
            assert _order(primitive_root_of_unity(GF(p), m), p) == m


def test_ramify_over_a_large_prime_does_not_scan_the_field(capsys):
    """The root is a power of a generator, not the first element of order
    m: with m = 2 a scan would walk the field up to p - 1."""
    assert main(["ramify", "--d", "4", "--m", "2", "--p", "1000000007"]) == 0
    out = capsys.readouterr().out
    assert "invariant dim: 2\n" in out and "matrix cross-check: 2\n" in out


def test_action_matrix_entries_are_the_weight_powers():
    """Row i holds z^(i + w), w of either sign and past m, as repeated
    multiplication by z gives it."""
    for m, field in FIELDS.items():
        z = primitive_root_of_unity(field, m)
        for w in (-7, -1, 0, 1, m - 1, m, 3 * m + 2):
            module = TruncatedSeriesModule(3 * m + 1, w, m, field)
            expected = []
            for i in range(module.modulus_degree):
                entry = field.one
                for _ in range((i + w) % m):
                    entry = field.mul(entry, z)
                expected.append({i: entry})
            assert module.action_matrix() == expected


def test_ramify_with_a_huge_stabilizer_does_not_multiply_m_times(capsys):
    """m = p - 1 about 10^9: the action matrix takes z^w by squaring, not
    by up to m multiplications per row."""
    assert main(["ramify", "--d", "4", "--m", "1000000006", "--p", "1000000007"]) == 0
    out = capsys.readouterr().out
    assert "invariant dim: 0\n" in out and "matrix cross-check: 0\n" in out
