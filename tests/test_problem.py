import pytest

from eqdeform.fields import GF, QQ
from eqdeform.poly import PolyRing
from eqdeform.problem import EPS_NAME, ProblemError, parse_problem

CUSP = """\
# cusp with the sign involution
field Q
vars x y
ideal: y^2 - x^3
gen s: y -> -y
option truncate = 4
"""


def test_parse_cusp():
    p = parse_problem(CUSP)
    assert p.field == QQ and p.field_text == "Q"
    assert p.variables == ("x", "y")
    assert len(p.ideal) == 1 and len(p.ideal[0]) == 1
    assert repr(p.ideal[0][0]) == "-x^3 + y^2"
    assert p.group_maps[0][0] == "s"
    assert p.options == {"truncate": "4"}
    assert p.eps_order == 0


def test_parse_wild_node():
    text = "field F 2\nvars x y\nideal: x*y\ngen s: x -> y, y -> x\n"
    p = parse_problem(text)
    assert p.field == GF(2)
    assert repr(p.ideal[0][0]) == "x*y"


def test_parse_eps_lift():
    text = "field Q\nvars x y\nideal: y^2 - x^3 - eps*x\ngen s: y -> -y\n"
    p = parse_problem(text)
    assert p.eps_order == 1
    assert repr(p.ideal[0][0]) == "-x^3 + y^2"
    assert repr(p.ideal[0][1]) == "-x"


def test_parse_empty_ideal():
    p = parse_problem("field F 2\nvars x\nideal:\ngen t: x -> x + 1\n")
    assert p.ideal == []


def test_round_trip_through_renderer():
    """Rendering a parsed problem and parsing it again gives the same
    rendering: eps-coefficients go back into one polynomial in eps."""

    def canonical_text(p):
        lines = [f"field {p.field_text}", "vars " + " ".join(p.variables)]
        eps_ring = PolyRing(p.field, p.variables + (EPS_NAME,))
        rendered = []
        for coeffs in p.ideal:
            total = eps_ring.zero
            for t, c in enumerate(coeffs):
                total = total + eps_ring.from_terms({m + (t,): v for m, v in c.terms.items()})
            rendered.append(repr(total))
        lines.append("ideal: " + " ; ".join(rendered))
        for name, mapping in p.group_maps:
            images = ", ".join(f"{v} -> {mapping[v]!r}" for v in p.variables if v in mapping)
            lines.append(f"gen {name}: {images}")
        lines.extend(f"option {key} = {p.options[key]}" for key in sorted(p.options))
        return "\n".join(lines) + "\n"

    for text in (
        CUSP,
        "field F 2\nvars x y\nideal: x*y\ngen s: x -> y, y -> x\n",
        "field Q\nvars x y\nideal: y^2 - x^3 - eps*x\ngen s: y -> -y\n",
        "field F 2\nvars x\nideal:\ngen t: x -> x + 1\n",
    ):
        once = parse_problem(text)
        canon = canonical_text(once)
        twice = parse_problem(canon)
        assert canonical_text(twice) == canon


def test_errors_are_position_tagged():
    with pytest.raises(ProblemError) as err:
        parse_problem("field F 4\nvars x\nideal: x\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ProblemError) as err:
        parse_problem("field Q\nvars x\nideal: x + z\n")
    assert "line 3" in str(err.value)
    with pytest.raises(ProblemError):
        parse_problem("field Q\nvars x eps\nideal: x\n")
    with pytest.raises(ProblemError):
        parse_problem("field Q\nvars x\nideal: x\noption tuncate = 3\n")
    with pytest.raises(ProblemError):
        parse_problem("vars x\nfield Q\nideal: x\n")
    with pytest.raises(ProblemError):
        parse_problem("field Q\nvars x\n")
    with pytest.raises(ProblemError):
        parse_problem("field Q\nvars x\nideal: x\ngen s: y -> x\n")


def test_order_option():
    text = "field Q\nvars x\nideal: x\noption order = 2\n"
    assert parse_problem(text).eps_order == 2
    with pytest.raises(ProblemError):
        parse_problem("field Q\nvars x\nideal: x - eps^3\noption order = 1\n")
