"""The regular ambient's Groebner data, written down from the original
presentation.

``GraphPresentation`` builds the augmented basis behind its
``Representer`` and the T^1 module basis without a Buchberger run in
the n|G|-variable ring.  Both must be the reduced bases that
``module_groebner`` returns, element for element and in the same order,
since cofactors and normal forms depend on the order of the divisors.
A guard checks that the CLI runs no ``module_groebner`` in that ring.
"""

import random
from pathlib import Path

import pytest

import eqdeform.groebner
import oracles
from eqdeform.cli import Workspace, main
from eqdeform.groebner import ModuleGB, Representer
from eqdeform.poly import Polynomial
from eqdeform.problem import parse_problem
from test_ambient import GRAPH_CASES, NONCONSTANT_TWIST, S3_SYM_F2, _forced_regular_ambient
from test_derivations import PROBLEMS as SHIPPED  # the 14 shipped and bench problems

ROOT = Path(__file__).resolve().parent.parent
ORDERED = {**GRAPH_CASES, **NONCONSTANT_TWIST, "s3_sym_f2": S3_SYM_F2}
CASES = [f"{name}/{kind}" for name in ORDERED for kind in ("grevlex", "lex")] + SHIPPED


def _ambient(case: str):
    """The case's regular ambient: a named problem under the given order,
    or a shipped or bench problem with ``option ambient = regular``."""
    if case in SHIPPED:
        text = (ROOT / case).read_text(encoding="utf-8") + "option ambient = regular\n"
        return Workspace(parse_problem(text)).ambient
    name, kind = case.rsplit("/", 1)
    return _forced_regular_ambient(ORDERED[name], kind)


def _random_polynomial(rng, ring, monomials):
    terms = {rng.choice(monomials): ring.field.of(rng.randrange(1, 7))
             for _ in range(rng.randrange(1, 5))}
    return Polynomial(ring, {m: c for m, c in terms.items() if c})


@pytest.mark.parametrize("case", CASES)
def test_written_bases_equal_the_computed_ones(case):
    """The representer's augmented basis and the T^1 basis equal
    ``module_groebner`` on the big ring's own input, and the two
    representers divide seeded random polynomials, ideal members and
    others, into the same remainders and cofactors."""
    amb = _ambient(case)
    pres, ring = amb.pres, amb.ring
    assert amb.kind == "regular"
    t1 = ModuleGB.of_cokernel(ring, len(pres.gens), tuple(zip(*pres.jacobian)), pres.gb)
    assert pres.t1_module.elements == t1.elements
    if not pres.gens:
        return
    computed = Representer(pres.gens)
    written = pres.representer
    assert written.gens == computed.gens
    assert written.gb.elements == computed.gb.elements
    rng = random.Random(case)
    monomials = oracles.monomials_upto(ring, 2)
    for _ in range(8):
        h = _random_polynomial(rng, ring, monomials)
        member = sum((_random_polynomial(rng, ring, monomials) * g for g in pres.gens),
                     ring.zero)
        for p in (h, member):
            assert written.divide(p) == computed.divide(p)
        assert written.express(member) is not None


GUARDED = ["bench/problems/trans_f3.prob", "problems/line_f2.prob"]


@pytest.mark.parametrize("path", GUARDED)
def test_no_groebner_run_in_the_regular_ambients_ring(monkeypatch, capsys, path):
    """check, tangent, obstruction, lift and iso on a regular ambient run
    ``module_groebner`` only in the original ring, and check builds no
    representer at all."""
    amb = Workspace(parse_problem((ROOT / path).read_text(encoding="utf-8"))).ambient
    assert amb.kind == "regular" and amb.ring.nvars > amb.origin.ring.nvars
    nvars, built = [], []
    module_groebner = eqdeform.groebner.module_groebner
    monkeypatch.setattr(eqdeform.groebner, "module_groebner",
                        lambda ring, *args: nvars.append(ring.nvars)
                        or module_groebner(ring, *args))
    init, of_reduced = Representer.__init__, Representer.of_reduced.__func__
    monkeypatch.setattr(Representer, "__init__",
                        lambda self, gens: built.append(gens) or init(self, gens))
    monkeypatch.setattr(Representer, "of_reduced", classmethod(
        lambda cls, gens, elements: built.append(gens) or of_reduced(cls, gens, elements)))
    assert main(["check", path]) == 0
    assert built == []
    for argv in (["tangent", path], ["obstruction", path], ["lift", path, "--order", "3"],
                 ["iso", path, path]):
        assert main(argv) in (0, 2)
    capsys.readouterr()
    assert built and nvars
    assert set(nvars) == {amb.origin.ring.nvars}


def test_a_regular_ambient_without_generators_lifts(tmp_path, capsys):
    """No equations and the trivial group: the regular ambient has no
    generators, so it has no representer to divide by."""
    path = tmp_path / "plane.prob"
    path.write_text("field F 2\nvars x\nideal:\noption ambient = regular\n",
                    encoding="utf-8")
    assert main(["lift", str(path), "--order", "2"]) == 0
    assert main(["iso", str(path), str(path)]) == 0
    assert Workspace(parse_problem(path.read_text(encoding="utf-8"))).ambient.pres.gens == ()
