"""Q elements in canonical form: an ``int`` when integral, a ``Fraction``
only when the denominator exceeds one.

The canonical form changes no value, only its type: every result here
must equal the all-Fraction arithmetic of ``oracles.FRACTION_QQ`` and
print alike."""

import json
import random
import runpy
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from eqdeform import linalg
from eqdeform.cli import main
from eqdeform.fields import QQ, canonical_rational
from eqdeform.groebner import buchberger
from eqdeform.poly import PolyRing, Polynomial, canonical_render, partial

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["WORKLOADS"]


def test_canonical_rational():
    assert type(canonical_rational(Fraction(6, 3))) is int
    assert canonical_rational(Fraction(-4, 2)) == -2
    assert canonical_rational(Fraction(1, 2)) == Fraction(1, 2)
    assert canonical_rational(7) == 7
    for value in (QQ.of(3), QQ.of(Fraction(3)), QQ.of("6/2"), QQ.fraction(6, 3),
                  QQ.inv(Fraction(1, 3)), QQ.mul(Fraction(1, 2), 2),
                  QQ.add(Fraction(1, 2), Fraction(1, 2)),
                  QQ.sub(Fraction(1, 2), Fraction(-1, 2)), QQ.neg(-3)):
        assert type(value) is int
    for value in (QQ.of("1/2"), QQ.fraction(2, 4), QQ.inv(2), QQ.mul(3, Fraction(1, 2)),
                  QQ.add(1, Fraction(1, 2)), QQ.neg(Fraction(1, 2))):
        assert type(value) is Fraction and value.denominator > 1


def test_str_orders_rationals_as_their_fraction_repr():
    """Groebner bases sort vectors by the printed form of their
    coefficients; over Q it was ``repr`` of a Fraction and is now ``str``
    of the canonical form, and the two orders agree."""
    rng = random.Random(5)
    values = {QQ.fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(400)}
    assert sorted(values, key=str) == sorted(values, key=lambda x: repr(Fraction(x)))


def _coefficient(rng):
    """A canonical Q element: an int, or a Fraction with denominator > 1."""
    return QQ.fraction(rng.randint(-4, 4) or 1, rng.choice((1, 1, 2, 3, 4)))


def _polynomial(ring, rng, nterms):
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        terms[m] = QQ.add(terms.get(m, 0), _coefficient(rng))
    return ring.from_terms(terms)


def _fractions(ref_ring, f):
    """f as a polynomial of the reference ring, every coefficient a Fraction."""
    return Polynomial(ref_ring, {m: Fraction(c) for m, c in f.terms.items()})


def _canonical(f):
    return all(oracles.is_canonical_rational(c) for c in f.terms.values())


def _matches(f, ref):
    return _canonical(f) and f.terms == ref.terms


@pytest.mark.parametrize("seed", range(40))
def test_seeded_q_arithmetic_is_canonical_and_matches_fractions(seed):
    """Polynomial + - *, a constant factor, partial and normal_form, and rref, solve and
    kernel_basis, on inputs that mix ints and Fractions, give canonical
    values equal to the all-Fraction reference."""
    rng = random.Random(seed)
    ring = PolyRing(QQ, ["x", "y", "z"])
    ref = PolyRing(oracles.FRACTION_QQ, ["x", "y", "z"])
    f, g = _polynomial(ring, rng, 5), _polynomial(ring, rng, 4)
    F, G = _fractions(ref, f), _fractions(ref, g)
    # sums go through fields.add_scaled, which keys on the characteristic
    # and so gives ints on the reference ring too: sum it entry by entry
    assert _matches(f + g, oracles.poly_add(F, G))
    assert _matches(f - g, oracles.poly_sub(F, G))
    assert _matches(f * g, F * G)
    assert _matches(f - f, oracles.poly_sub(F, F))
    factor = _coefficient(rng)
    assert _matches(f * factor, F * Fraction(factor))
    assert _matches(f * Fraction(2), F * 2)
    for i in range(3):
        assert _matches(partial(f, i), partial(F, i))
    # the reduced basis of (f, g) and normal forms by it, against a
    # Buchberger that sums entry by entry
    h = _polynomial(ring, rng, 6)
    gb, ref_gb = buchberger([f, g], ring), oracles.reduced_groebner(ref, [F, G])
    assert all(type(c) is Fraction for b in ref_gb for c in b.terms.values())
    by_lead = {b.leading_monomial(): b for b in ref_gb}
    assert sorted(a.leading_monomial() for a in gb.generators) == sorted(by_lead)
    assert all(_matches(a, by_lead[a.leading_monomial()]) for a in gb.generators)
    assert _matches(gb.normal_form(h), oracles.normal_form_by_scan(ref_gb, _fractions(ref, h)))
    # the sparse eliminator against the dense one over Fractions
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[_coefficient(rng) if rng.random() < 0.6 else 0 for _ in range(ncols)]
            for _ in range(nrows)]
    sparse_rows = [oracles.sparse(QQ, row) for row in rows]
    frac_rows = [[Fraction(x) for x in row] for row in rows]
    red, pivots = linalg.rref(QQ, sparse_rows)
    ref_red, ref_pivots = oracles.rref(oracles.FRACTION_QQ, frac_rows)
    assert pivots == ref_pivots
    assert [oracles.dense(QQ, row, ncols) for row in red] == ref_red[:len(pivots)]
    kernel = linalg.kernel_basis(QQ, sparse_rows, ncols)
    assert [oracles.dense(QQ, v, ncols) for v in kernel] == \
        oracles.kernel_basis(oracles.FRACTION_QQ, frac_rows, ncols)
    x = [_coefficient(rng) for _ in range(ncols)]
    b = [sum((a * c for a, c in zip(row, x)), Fraction(0)) for row in frac_rows]
    columns = linalg.transpose(sparse_rows, ncols)
    (sol,) = linalg.solve(QQ, columns, [oracles.sparse(QQ, [QQ.of(c) for c in b])], nrows)
    assert oracles.dense(QQ, sol, ncols) == oracles.solve(oracles.FRACTION_QQ, frac_rows, b)
    values = [v for row in red for v in row.values()]
    values += [v for vec in kernel + [sol] for v in vec.values()]
    assert all(oracles.is_canonical_rational(v) for v in values)


# --- rendering ------------------------------------------------------------------

@pytest.mark.parametrize("terms,text", [
    ({(1, 0): -3}, "-3*x"),
    ({(0, 1): Fraction(-1, 2)}, "-1/2*y"),
    ({(0, 2): Fraction(-1, 2), (1, 0): -3}, "-1/2*y^2 - 3*x"),
    ({(1, 0): 1, (0, 0): -3}, "x - 3"),
    ({(1, 1): -1, (0, 0): Fraction(-5, 3)}, "-x*y - 5/3"),
    ({(0, 1): Fraction(7, 2), (1, 0): -1}, "7/2*y - x"),
])
def test_canonical_render_reads_the_sign_of_ints_and_fractions(terms, text):
    ring = PolyRing(QQ, ["x", "y"])
    ref = PolyRing(oracles.FRACTION_QQ, ["x", "y"])
    f = ring.from_terms(terms)
    assert canonical_render(f) == text
    assert canonical_render(_fractions(ref, f)) == text


def test_json_report_over_q_with_negative_coefficients(tmp_path, capsys):
    """A negative integral and a negative non-integral coefficient print
    with their signs in the text and in the JSON report."""
    problem = tmp_path / "negative.prob"
    problem.write_text("field Q\nvars x y\nideal: -3*x - 1/2*y^2\ngen s: y -> -y\n",
                       encoding="utf-8")
    assert main(["lift", str(problem), "--order", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lifts"] == [["-1/2*y^2 - 3*x"]]
    assert main(["lift", str(problem), "--order", "1"]) == 0
    assert "lift to order 1: -1/2*y^2 - 3*x\n" in capsys.readouterr().out


# --- audit of the Q operations of the benchmark ---------------------------------------

def _q_ops():
    ops = []
    for workload in sorted(WORKLOADS):
        for op in WORKLOADS[workload]:
            texts = [(ROOT / path).read_text(encoding="utf-8") for path in op.problem_files]
            if texts and all("field Q" in text for text in texts):
                ops.append(op)
    return ops


def test_q_ops_store_only_canonical_coefficients(monkeypatch, capsys):
    """Every polynomial built over Q while the benchmark's Q operations
    run holds no integral Fraction."""
    original = Polynomial.__init__
    seen = {"q": 0, "bad": []}

    def audited(self, ring, terms):
        if ring.field == QQ:
            seen["q"] += 1
            seen["bad"].extend(c for c in terms.values()
                               if type(c) is Fraction and c.denominator == 1)
        original(self, ring, terms)

    monkeypatch.setattr(Polynomial, "__init__", audited)
    ring = PolyRing(QQ, ["x"])
    Polynomial(ring, {(1,): Fraction(2)})
    assert seen["bad"] == [Fraction(2)]  # the audit sees an integral Fraction
    seen["bad"].clear()
    monkeypatch.chdir(ROOT)
    ops = _q_ops()
    assert len(ops) >= 10
    for op in ops:
        assert main(list(op.argv)) == op.code, op.name
        assert capsys.readouterr().out == (ROOT / op.expected).read_text(encoding="utf-8")
    assert seen["q"] > 1000
    assert seen["bad"] == []
