"""eps_divide, the equivariance divisions and the defect cocycle against
the EpsPoly-based peeling in oracles, which divides every stage afresh
and, for the cocycle, at every element instead of the generators'
inverses only; and the stage quotients a lift carries from order to
order against a division from stage 1 and the oracle's quotients.

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
    _equivariance_division,
    _extend,
    certify_equivariance,
    eps_divide,
    lift_step,
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
    ``_equivariance_division`` divides."""
    return [amb.action.inv(s) for s in amb.action.generators]


def _oracle_remainders(amb, gens, allow_final_remainder, elements):
    """Per given element, the oracle's remainders of sigma(F_j); the first
    raised message (in element, then generator order) when any stage fails."""
    rep = amb.pres.representer
    out = {}
    for i in elements:
        row = []
        for g in gens:
            moved = EpsPoly(g.ring, g.order,
                            [amb.action.apply(i, c) for c in oracles.eps_coeffs(g)])
            outcome = _oracle_division(moved, gens, rep, allow_final_remainder)
            if outcome[0] == "raised":
                return outcome
            row.append(outcome[1])
        out[i] = row
    return ("remainder", out)


def _oracle_quotients(amb, gens):
    """Per generator inverse i and generator j, the stage rows {t: Q_t},
    t >= 1, of the oracle's quotients S of s^-1(F_j): a row wherever one
    of the S_l is nonzero at eps^t.  Their eps^0 coefficients must be
    the twist cofactors, and the division exact."""
    rep = amb.pres.representer
    out = {}
    for i in _generator_inverses(amb):
        out[i] = []
        for g, twist in zip(gens, amb.twists[i]):
            moved = EpsPoly(g.ring, g.order,
                            [amb.action.apply(i, c) for c in oracles.eps_coeffs(g)])
            S, w = oracles.eps_divide(moved, list(gens), rep, False)
            assert w is None
            assert tuple(s_l.coeff(0) for s_l in S) == tuple(twist)
            stages = sorted({t for s_l in S for t in s_l.terms if t})
            out[i].append({t: tuple(s_l.coeff(t) for s_l in S) for t in stages})
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_equivariance_remainders_match_the_oracle(seed):
    amb, gens, kind = draw_lift(seed)
    rows = _generator_inverses(amb)
    for allow in (True, False):
        expected = _oracle_remainders(amb, gens, allow, rows)
        got = _new_division(
            lambda: _equivariance_division(amb, gens, 1, None, allow)[0])
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
    if rows[0] == "raised":
        assert got == rows
    else:
        assert got == ("remainder", _oracle_quotients(amb, gens))


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
    below = tuple(oracles.truncate(g, order - 1) for g in gens)
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


def _carried_top_matches_scratch(d, gens):
    """The division of gens (order n, agreeing with d below eps^n) that
    carries d's stages equals the one from stage 1, remainders and
    quotients, and both raise alike.  Returns the carried outcome."""
    order = gens[0].order

    def carried_division():
        out, remainders = _extend(d, gens, order)
        return remainders, out.quotients

    carried = _new_division(carried_division)
    scratch = _new_division(lambda: _equivariance_division(d.amb, gens, 1, None, True))
    assert carried == scratch
    return carried


@pytest.mark.parametrize("seed", SEEDS)
def test_carried_top_stage_equals_a_division_from_stage_1(seed):
    """A drawn lift of order n >= 1, divided at its top stage only from
    the certificate of its truncation: the same remainders and stage rows
    as a division from stage 1, and, where it is exact, the oracle's
    quotients.  Then the lift with its eps^n coefficients dropped, as a
    shift or a flow changes them, divided from the lift's certificate,
    whose rows at stage n must not be carried."""
    amb, gens, _ = draw_lift(seed)
    order = gens[0].order
    if not order:
        return
    below = Deformation(amb, order - 1, [oracles.truncate(g, order - 1) for g in gens])
    if _new_division(lambda: certify_equivariance(amb, below.gens))[0] == "raised":
        return  # not a lift of an equivariant deformation
    kind, value = _carried_top_matches_scratch(below, gens)
    assert kind == "remainder"
    remainders, quotients = value
    if all(w is None for row in remainders.values() for w in row):
        assert quotients == _oracle_quotients(amb, gens)
        lift = Deformation(amb, order, gens)
        lift.quotients = quotients
        _carried_top_matches_scratch(
            lift, tuple(oracles.truncate(g, order - 1).lift(order) for g in gens))


def _file_deformation(path):
    ws = Workspace(parse_problem((ROOT / path).read_text()))
    return ws.deformation(ws.problem, ws.problem.eps_order)


@pytest.mark.parametrize("path,steps,trunc,corrected", [
    ("bench/problems/trans_f3.prob", 6, None, []),
    ("bench/problems/klein_twist_f2.prob", 6, 2, [2]),
    ("problems/cusp_lift_x.prob", 6, None, []),
])
def test_lift_steps_carry_the_stages_of_a_division_from_stage_1(path, steps, trunc,
                                                                 corrected):
    """At every order lift_step reaches, the coefficientwise lift's
    carried division and the new deformation's stage quotients equal a
    division from stage 1 and the oracle's.  klein_twist_f2 needs a
    coboundary correction on its way to order 2, so there the carried
    division has remainders and the corrected lift is divided again."""
    d = _file_deformation(path)
    amb = d.amb
    assert d.quotients == certify_equivariance(amb, d.gens) == _oracle_quotients(amb, d.gens)
    for _ in range(steps):
        lift = tuple(g.lift(d.order + 1) for g in d.gens)
        _, (remainders, _) = _carried_top_matches_scratch(d, lift)
        defect = any(w is not None for row in remainders.values() for w in row)
        assert defect == (d.order + 1 in corrected)
        out = lift_step(d, trunc=trunc)
        assert out.success
        d = out.deformation
        assert d.quotients == certify_equivariance(amb, d.gens) \
            == _oracle_quotients(amb, d.gens)


@pytest.mark.parametrize("seed", [s for s in SEEDS if draw_lift(s)[2] == "equivariant"][:24])
def test_lift_steps_of_drawn_lifts_carry_a_division_from_stage_1(seed):
    """The drawn equivariant lifts, lifted two more orders: each new
    certificate equals a division from stage 1 and the oracle's."""
    amb, gens, _ = draw_lift(seed)
    d = Deformation(amb, gens[0].order, gens)
    d.quotients = certify_equivariance(amb, gens)
    for _ in range(2):
        out = lift_step(d, trunc=2)
        if not out.success:
            return
        d = out.deformation
        assert d.quotients == certify_equivariance(amb, d.gens) \
            == _oracle_quotients(amb, d.gens)
