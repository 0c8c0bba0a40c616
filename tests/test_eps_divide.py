"""eps_divide, the equivariance divisions and the defect cocycle against
the EpsPoly-based peeling in oracles, which divides every stage afresh
and, for the cocycle, at every element instead of the generators'
inverses only.

Each seed draws one fixed lift of orders 0-6 over one of four ambients,
so the cases are the same on every run.  Lifts are U*F with
U = I + sum_t eps^t A_t and up to four nonzero entries in all the A_t
(equivariant, because U is invertible over the artinian base),
optionally with sparse noise added at one eps power."""

import functools
import random
from pathlib import Path

import pytest

import oracles
from eqdeform.cli import Workspace
from eqdeform.deform import (
    Deformation,
    DeformationError,
    EpsPoly,
    _equivariance_remainders,
    certify_equivariance,
    eps_divide,
    obstruction_cocycle,
)
from eqdeform.problem import parse_problem

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = (
    "problems/cusp_q.prob",
    "problems/node_f2.prob",
    "bench/problems/trans_f3.prob",  # regular ambient, 6 variables
    "bench/problems/klein_f2.prob",
)
SEEDS = range(200)


@functools.lru_cache(maxsize=None)
def ambient(path):
    return Workspace(parse_problem((ROOT / path).read_text())).ambient


def _sparse_poly(ring, rng, max_terms=2, degree=1):
    monos = oracles.monomials_upto(ring, degree)
    out = ring.zero
    for _ in range(rng.randint(1, max_terms)):
        out = out + ring.monomial(rng.choice(monos), rng.choice((1, -1, 2)))
    return out


def draw_lift(seed):
    """(amb, gens, kind) for the seed; kind says whether noise was added."""
    rng = random.Random(seed)
    amb = ambient(PROBLEMS[seed % len(PROBLEMS)])
    ring, fs = amb.ring, amb.pres.gens
    order = rng.randint(0, 6)
    coeffs = [[f] + [ring.zero] * order for f in fs]
    for _ in range(rng.randint(0, 4) if order else 0):
        t, j = rng.randint(1, order), rng.randrange(len(fs))
        term = _sparse_poly(ring, rng, 1) * rng.choice(fs)
        coeffs[j][t] = coeffs[j][t] + term
    kind = rng.choice(("equivariant", "noise_top", "noise")) if order else \
        "equivariant"
    if kind != "equivariant":
        t = order if kind == "noise_top" else rng.randint(1, order)
        j = rng.randrange(len(fs))
        coeffs[j][t] = coeffs[j][t] + _sparse_poly(ring, rng)
    gens = tuple(EpsPoly(ring, order, c) for c in coeffs)
    return amb, gens, kind


def _oracle_division(h, gens, rep, allow_final_remainder):
    """The oracle's remainder, or the message it raised; the quotients
    are checked to reproduce h exactly."""
    try:
        S, w = oracles.eps_divide(h, list(gens), rep, allow_final_remainder)
    except DeformationError as exc:
        return ("raised", str(exc))
    total = EpsPoly(h.ring, h.order, [])
    for s_l, g in zip(S, gens):
        total = total + oracles.eps_mul(s_l, g)
    if w is not None:
        total = total + EpsPoly.constant(h.ring, h.order, w).shift(h.order)
    assert total == h
    return ("remainder", w)


def _new_division(fn):
    try:
        return ("remainder", fn())
    except DeformationError as exc:
        return ("raised", str(exc))


def _generator_inverses(amb):
    """The indices of the generators' inverses, the rows
    ``_equivariance_remainders`` divides."""
    return [amb.action.inv(s) for s in amb.action.generators]


def _oracle_remainders(amb, gens, allow_final_remainder, elements):
    """Per given element, the oracle's remainders of sigma(F_j); the first
    raised message (in element, then generator order) when any stage fails."""
    rep = amb.pres.representer
    out = {}
    for i in elements:
        row = []
        for g in gens:
            moved = EpsPoly(g.ring, g.order, [amb.action.apply(i, c) for c in g.coeffs])
            outcome = _oracle_division(moved, gens, rep, allow_final_remainder)
            if outcome[0] == "raised":
                return outcome
            row.append(outcome[1])
        out[i] = row
    return ("remainder", out)


@pytest.mark.parametrize("seed", SEEDS)
def test_equivariance_remainders_match_the_oracle(seed):
    amb, gens, kind = draw_lift(seed)
    rows = _generator_inverses(amb)
    for allow in (True, False):
        expected = _oracle_remainders(amb, gens, allow, rows)
        got = _new_division(
            lambda: _equivariance_remainders(amb, gens, allow))
        assert got == expected
    if kind == "equivariant":
        assert expected[0] == "remainder"


@pytest.mark.parametrize("seed", SEEDS)
def test_certify_raises_exactly_when_the_oracle_would(seed):
    """Dividing at the generators' inverses certifies what dividing at
    every element does; the message names the first failing row of the
    same rows in the oracle."""
    amb, gens, _ = draw_lift(seed)
    full = _oracle_remainders(amb, gens, False, amb.action.indices())
    rows = _oracle_remainders(amb, gens, False, _generator_inverses(amb))
    got = _new_division(lambda: certify_equivariance(amb, gens))
    assert (got[0] == "raised") == (full[0] == "raised")
    assert got == (rows if rows[0] == "raised" else ("remainder", None))


@pytest.mark.parametrize("seed", SEEDS)
def test_obstruction_cocycle_matches_the_oracle(seed):
    """On a lift of an equivariant deformation, the defect cocycle from
    the generators equals the all-elements one value for value, and it
    is zero exactly when the lift certifies and when every one of the
    oracle's divisions was exact."""
    amb, gens, _ = draw_lift(seed)
    order = gens[0].order
    if not order:
        return
    below = tuple(g.truncate(order - 1) for g in gens)
    if _new_division(lambda: certify_equivariance(amb, below))[0] == "raised":
        return  # not a lift of an equivariant deformation
    c = obstruction_cocycle(Deformation(amb, order - 1, below), gens)
    values, exact = oracles.defect_cocycle(amb, gens)
    assert {s: c.value(s) for s in values} == values
    certified = _new_division(lambda: certify_equivariance(amb, gens))
    assert c.is_zero() == (certified[0] == "remainder") == exact


@pytest.mark.parametrize("seed", SEEDS)
def test_eps_divide_matches_the_oracle_on_arbitrary_input(seed):
    """Division of an arbitrary eps-polynomial (the eps^0 coefficient
    divided too, as in ideal_equal), mostly inside the ideal with some
    noise."""
    amb, gens, _ = draw_lift(seed)
    rng = random.Random(10_000 + seed)
    ring, order = amb.ring, gens[0].order
    h = EpsPoly(ring, order, [])
    for g in gens:
        if rng.random() < 0.6:
            h = h + oracles.eps_mul(EpsPoly(ring, order, [_sparse_poly(ring, rng)]), g)
    if rng.random() < 0.4:
        t = rng.randint(0, order)
        h = h + EpsPoly.constant(ring, order, _sparse_poly(ring, rng)).shift(t)
    rep = amb.pres.representer
    for allow in (True, False):
        expected = _oracle_division(h, gens, rep, allow)
        assert _new_division(lambda: eps_divide(h, gens, rep, allow)) == expected
