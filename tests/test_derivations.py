"""T^0_G through the invariant slice.

``derivations(amb, D)`` is the dimension of the kernel of the
normal-image map on the invariant vector slice of degree <= D.  It must
be the size of a basis of that kernel (``oracles.slice_derivations``)
and of the joint elimination of the invariance and Jacobian rows
(``oracles.joint_derivations``), and those two bases must span the same
space; ``tangent`` builds that slice once."""

import random
from pathlib import Path

import pytest

import oracles
from eqdeform import ambient as ambient_module
from eqdeform.ambient import NotCompleteIntersectionError, derivations
from eqdeform.cli import InputError, Workspace, main
from eqdeform.problem import parse_problem

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = sorted(str(p.relative_to(ROOT)) for p in
                  list((ROOT / "problems").glob("*.prob"))
                  + list((ROOT / "bench" / "problems").glob("*.prob")))


def ambient(text):
    return Workspace(parse_problem(text)).ambient


def assert_matches_the_joint_elimination(amb, D):
    basis = oracles.slice_derivations(amb, D)
    joint = oracles.joint_derivations(amb, D)
    assert derivations(amb, D) == len(basis) == len(joint)
    new, old = oracles.row_space(amb.ring.field, [basis, joint])
    assert new == old


def test_the_shipped_and_bench_problems_are_fourteen():
    assert len(PROBLEMS) == 14


@pytest.mark.parametrize("D", [1, 2, 3, 4])
@pytest.mark.parametrize("path", PROBLEMS)
def test_shipped_problems_match_the_joint_elimination(path, D):
    assert_matches_the_joint_elimination(
        ambient((ROOT / path).read_text(encoding="utf-8")), D)


@pytest.mark.parametrize("D", [1, 2, 3])
@pytest.mark.parametrize("path", ["bench/problems/trans_f3.prob", "problems/line_f2.prob"])
def test_regular_ambients_match_the_joint_elimination(path, D):
    text = (ROOT / path).read_text(encoding="utf-8") + "option ambient = regular\n"
    amb = ambient(text)
    assert amb.kind == "regular"
    assert_matches_the_joint_elimination(amb, D)


def random_problem(rng):
    """Problem text over F2, F3 or Q: a swap or 3-cycle of the variables,
    or over F3 and Q a sign change of the last one, and one or two
    invariant equations (orbit sums of random terms, any degrees); the
    equations need not be a regular sequence."""
    p = rng.choice((2, 3, 0))
    n = rng.randint(2, 3)
    names = "xyz"[:n]
    sign = p != 2 and rng.random() < 0.4
    if sign:
        gen = f"{names[-1]} -> -{names[-1]}"
    else:
        perm = [1, 0, 2][:n] if n == 2 or rng.random() < 0.5 else [1, 2, 0]
        gen = ", ".join(f"{names[i]} -> {names[perm[i]]}" for i in range(n))
    equations = []
    for _ in range(rng.randint(1, n - 1)):
        terms = []
        for _ in range(rng.randint(1, 3)):
            m = [rng.randint(0, 2) for _ in range(n)]
            if sign:
                m[-1] -= m[-1] % 2
                orbit = [m]
            else:
                orbit = [m]
                for _ in range(n - 1):
                    orbit.append([orbit[-1][perm.index(i)] for i in range(n)])
            c = rng.choice(("1", "2", "1/2", "3")) if p == 0 else str(rng.randint(1, p - 1))
            for e in {tuple(e) for e in orbit}:
                terms.append("*".join([c] + [f"{v}^{k}" for v, k in zip(names, e) if k]))
        equations.append(" + ".join(terms))
    option = rng.choice(("", "option ambient = original\n", "option ambient = regular\n"))
    field = "Q" if p == 0 else f"F {p}"
    return (f"field {field}\nvars {' '.join(names)}\nideal: {'; '.join(equations)}\n"
            f"gen s: {gen}\n{option}")


def test_random_problems_match_the_joint_elimination():
    rng = random.Random(29)
    fields = set()
    cases = 0
    while cases < 20:
        text = random_problem(rng)
        try:
            amb = ambient(text)
        except (NotCompleteIntersectionError, InputError):
            continue
        cases += 1
        fields.add(amb.ring.field.characteristic)
        assert_matches_the_joint_elimination(amb, rng.randint(1, 2 if amb.kind == "regular" else 3))
    assert fields == {0, 2, 3}


def test_tangent_builds_one_vector_slice(monkeypatch, capsys):
    """On klein_f2, a graded setup with one generator degree, the T^0
    count and the T^1_G quotient share the slice at D = 2."""
    calls = []
    original = ambient_module.ambient_vector_slice

    def counted(amb, degree):
        calls.append(degree)
        return original(amb, degree)

    monkeypatch.setattr(ambient_module, "ambient_vector_slice", counted)
    monkeypatch.chdir(ROOT)
    assert main(["tangent", "bench/problems/klein_f2.prob", "--truncate", "2"]) == 0
    assert capsys.readouterr().out == \
        (ROOT / "bench" / "expected" / "tangent_klein_f2_t2.txt").read_text(encoding="utf-8")
    assert calls == [2]



def test_tangent_ends_with_one_vector_slice_held(monkeypatch, capsys):
    """trans_f3 is not graded: ``tangent --truncate 3`` counts T^0_G on
    the slice at 3 and searches the T^1_G images at 5.  The ambient keeps
    the last slice only: the one at 3 is freed before the one at 5 is
    built, and the command ends holding one slice."""
    ambients, held = [], []
    original = ambient_module.ambient_vector_slice

    def counted(amb, degree):
        ambients.append(amb)
        held.append(list(amb.vector_slices))
        return original(amb, degree)

    monkeypatch.setattr(ambient_module, "ambient_vector_slice", counted)
    monkeypatch.chdir(ROOT)
    assert main(["tangent", "bench/problems/trans_f3.prob", "--truncate", "3"]) == 0
    assert capsys.readouterr().out == \
        (ROOT / "bench" / "expected" / "tangent_trans_f3_t3.txt").read_text(encoding="utf-8")
    amb, second = ambients
    assert second is amb
    assert held == [[], []]
    assert list(amb.vector_slices) == [5]
