"""The search degree of obstruction_space and tangent_spaces.

On a graded setup whose generators share one degree, the coboundary and
image searches run at the value slice D itself; every other input keeps
the search at D + SLACK.  The reports must be those of the search at
D + SLACK (``oracles.slack_obstruction_space`` and
``oracles.slack_tangent_quotient``) on every input."""

import random
from pathlib import Path

import pytest

import oracles
from eqdeform import deform
from eqdeform.ambient import NotCompleteIntersectionError
from eqdeform.cli import Workspace, _render_cocycle, _render_vector
from eqdeform.deform import (
    SLACK,
    _search_degree,
    is_graded_setup,
    obstruction_space,
    tangent_spaces,
)
from eqdeform.problem import parse_problem

ROOT = Path(__file__).resolve().parent.parent


def ambient(text):
    return Workspace(parse_problem(text)).ambient


def file_ambient(path):
    return ambient((ROOT / path).read_text(encoding="utf-8"))


def assert_reports_match_the_slack_path(amb, D):
    """The rendered obstruction and T^1_G reports at D equal those of the
    search at D + SLACK."""
    obs, ref = obstruction_space(amb, D), oracles.slack_obstruction_space(amb, D)
    assert (obs.dimension, [_render_cocycle(c) for c in obs.representatives], obs.certified) \
        == (ref.dimension, [_render_cocycle(c) for c in ref.representatives], ref.certified)
    rep = tangent_spaces(amb, D)
    assert rep.certified == f"slice:{D}"  # the slice route
    expected = [_render_vector(v) for v in oracles.slack_tangent_quotient(amb, D)]
    assert rep.t1_equivariant_dim == len(expected)
    assert [_render_vector(v) for v in rep.t1_equivariant_basis] == expected


def graded(amb):
    """Whether the searches of this ambient run at the value slice."""
    return _search_degree(amb, 0) == 0


# --- the gate ------------------------------------------------------------------

def _recording(degrees, original):
    def wrapped(amb, degree, *args, **kwargs):
        degrees.append(degree)
        return original(amb, degree, *args, **kwargs)
    return wrapped


@pytest.fixture
def slice_calls(monkeypatch):
    """The degrees passed to slice_of_normal_module and
    ambient_vector_slice from deform, in call order."""
    calls = {"slice": [], "vectors": []}
    for name, key in (("slice_of_normal_module", "slice"), ("ambient_vector_slice", "vectors")):
        monkeypatch.setattr(deform, name, _recording(calls[key], getattr(deform, name)))
    return calls


def test_klein_f2_searches_at_the_slice(slice_calls):
    amb = file_ambient("bench/problems/klein_f2.prob")
    assert graded(amb)
    assert obstruction_space(amb, 2).dimension == 6
    assert slice_calls["slice"] == [2]
    slice_calls["slice"].clear()
    tangent_spaces(amb, 2)
    assert slice_calls == {"slice": [2], "vectors": [2]}


def test_d4_f2_keeps_the_slack(slice_calls, monkeypatch):
    """x -> x + 1 is not linear: the search runs at 8 + SLACK, and
    without the slack one class too many survives."""
    amb = file_ambient("bench/problems/d4_f2.prob")
    assert not is_graded_setup(amb)
    assert obstruction_space(amb, 8).dimension == 5
    assert slice_calls["slice"] == [8, 8 + SLACK]
    monkeypatch.setattr(deform, "SLACK", 0)
    assert obstruction_space(amb, 8).dimension == 6


UNEQUAL_DEGREES = ("field F 2\nvars x y z\nideal: x*y; z^3\n"
                   "gen s: x -> y, y -> x\noption ambient = original\n")


def test_unequal_degrees_keep_the_slack(slice_calls):
    """Homogeneous generators of degrees 2 and 3 under a linear action:
    graded, but the slice at D is not a sum of graded pieces of N."""
    amb = ambient(UNEQUAL_DEGREES)
    assert is_graded_setup(amb) and not graded(amb)
    obstruction_space(amb, 2)
    assert slice_calls["slice"] == [2, 2 + SLACK]
    slice_calls["slice"].clear()
    tangent_spaces(amb, 2)
    assert slice_calls == {"slice": [2], "vectors": [2 + SLACK]}
    assert_reports_match_the_slack_path(amb, 2)


# --- the graded path against the search at D + SLACK -----------------------------

@pytest.mark.parametrize("D", [1, 2, 3])
@pytest.mark.parametrize("path", ["bench/problems/klein_f2.prob",
                                  "bench/problems/cyc3_f3.prob",
                                  "problems/node_f2.prob",
                                  "bench/problems/klein_twist_f2.prob"])
def test_shipped_graded_setups_match_the_slack_path(path, D):
    amb = file_ambient(path)
    assert graded(amb)
    assert_reports_match_the_slack_path(amb, D)


INLINE = {
    # S3 through its regular ambient: graph generators and x + y + z all
    # have degree 1
    "s3_f3": "field F 3\nvars x y z\nideal: x + y + z\n"
             "gen r: x -> y, y -> z, z -> x\ngen s: x -> y, y -> x\n",
    # (Z/2)^3 acting freely on the variables of a quadric
    "z2cube_free": "field F 2\nvars a b c d e f g h\nideal: a*b + c*d + e*f + g*h\n"
                   "gen s: a -> b, b -> a, c -> d, d -> c, e -> f, f -> e, g -> h, h -> g\n"
                   "gen t: a -> c, c -> a, b -> d, d -> b, e -> g, g -> e, f -> h, h -> f\n"
                   "gen u: a -> e, e -> a, b -> f, f -> b, c -> g, g -> c, d -> h, h -> d\n",
    # a linear action that permutes no variables
    "shear_f2": "field F 2\nvars x y\nideal: x^2 + x*y\ngen s: x -> x + y\n"
                "option ambient = original\n",
    "shear_f3": "field F 3\nvars x y z\nideal: x^3 + 2*x*y^2 + z^3\ngen s: x -> x + y\n"
                "option ambient = original\n",
}


@pytest.mark.parametrize("D", [1, 2])
@pytest.mark.parametrize("name", sorted(INLINE))
def test_inline_graded_setups_match_the_slack_path(name, D):
    amb = ambient(INLINE[name])
    assert graded(amb)
    assert_reports_match_the_slack_path(amb, D)


def _orbit(perms, m):
    """The orbit of the exponent tuple m under the permutations."""
    orbit, todo = {m}, [m]
    while todo:
        e = todo.pop()
        for perm in perms:
            image = [0] * len(e)
            for i, k in enumerate(e):
                image[perm[i]] = k
            image = tuple(image)
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return sorted(orbit)


def random_graded_problem(rng):
    """A wild permutation group on 2 or 3 variables over F2 or F3 and one
    or two orbit sums of random monomials of one degree, as problem
    text; the sums need not be a regular sequence."""
    p = rng.choice((2, 3))
    n = 3 if p == 3 else rng.randint(2, 3)
    names = "xyz"[:n]
    # an element of order p makes the action wild
    first = [1, 0, 2][:n] if p == 2 else [1, 2, 0]
    perms = [first]
    if n == 3 and rng.random() < 0.5:
        perms.append(rng.sample(range(n), n))
    d = rng.randint(1, 3)
    sums = []
    for _ in range(rng.randint(1, 2)):
        m = [0] * n
        for _ in range(d):
            m[rng.randrange(n)] += 1
        sums.append(" + ".join("*".join(f"{v}^{k}" for v, k in zip(names, e) if k)
                               for e in _orbit(perms, tuple(m))))
    gens = "".join(f"gen g{k}: " + ", ".join(f"{names[i]} -> {names[perm[i]]}"
                                              for i in range(n)) + "\n"
                   for k, perm in enumerate(perms))
    ambient_option = rng.choice(("", "option ambient = original\n"))
    return (f"field F {p}\nvars {' '.join(names)}\nideal: {'; '.join(sums)}\n"
            + gens + ambient_option)


def test_random_graded_setups_match_the_slack_path():
    rng = random.Random(17)
    cases = gated = 0
    while cases < 24:
        text = random_graded_problem(rng)
        try:
            amb = ambient(text)
        except NotCompleteIntersectionError:
            continue
        cases += 1
        gated += graded(amb)
        assert_reports_match_the_slack_path(amb, rng.randint(1, 2))
    assert gated >= 12
