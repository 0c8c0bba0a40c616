"""Line-oriented problem files for the command-line front end.

Grammar (one declaration per line, '#' comments):

    field Q | field F <p>
    vars <ident>+
    ideal: <poly> (; <poly>)*          # may be empty; eps allowed in lifts
    gen <name>: <var> -> <poly> (, <var> -> <poly>)*
    option <key> = <value>

Polynomials follow the canonical_render grammar; the reserved variable
``eps`` writes lifted generators over k[eps]/(eps^(m+1)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import GF, QQ, Field, FieldError
from .poly import ParseError, PolyRing, parse_polynomial


class ProblemError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


EPS_NAME = "eps"

_OPTION_KEYS = {"truncate", "ambient", "order", "bound"}


@dataclass
class ProblemFile:
    field: Field
    field_text: str
    variables: tuple
    ring: PolyRing
    ideal: list            # list of eps-coefficient lists [f0, f1, ...]
    group_maps: list       # list of (name, {var: Polynomial})
    options: dict
    eps_order: int


def _split_eps(poly, ring: PolyRing, eps_index: int):
    """Coefficients of eps^0, eps^1, ... as polynomials of the plain ring."""
    by_power: dict[int, dict] = {}
    for m, c in poly.terms.items():
        t = m[eps_index]
        plain = tuple(e for i, e in enumerate(m) if i != eps_index)
        by_power.setdefault(t, {})[plain] = c
    top = max(by_power) if by_power else 0
    return [
        ring.from_terms(by_power.get(t, {})) for t in range(top + 1)
    ]


def parse_problem(text: str) -> ProblemFile:
    field: Field | None = None
    field_text = ""
    variables: tuple | None = None
    ring: PolyRing | None = None
    eps_ring: PolyRing | None = None
    ideal: list = []
    saw_ideal = False
    group_maps: list = []
    options: dict = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "field":
            if field is not None:
                raise ProblemError("duplicate field declaration", lineno)
            parts = rest.split()
            if parts == ["Q"]:
                field, field_text = QQ, "Q"
            elif len(parts) == 2 and parts[0] == "F" and parts[1].isdigit():
                try:
                    field = GF(int(parts[1]))
                except FieldError as exc:
                    raise ProblemError(str(exc), lineno) from exc
                field_text = f"F {parts[1]}"
            else:
                raise ProblemError(f"bad field declaration {rest!r}", lineno)
        elif head == "vars":
            if variables is not None:
                raise ProblemError("duplicate vars declaration", lineno)
            names = rest.split()
            if not names:
                raise ProblemError("vars needs at least one name", lineno)
            if EPS_NAME in names:
                raise ProblemError(f"{EPS_NAME!r} is reserved", lineno)
            for n in names:
                if not (n[0].isalpha() or n[0] == "_") or not all(
                    ch.isalnum() or ch == "_" for ch in n
                ):
                    raise ProblemError(f"bad variable name {n!r}", lineno)
            if field is None:
                raise ProblemError("field must be declared before vars", lineno)
            variables = tuple(names)
            ring = PolyRing(field, variables)
            eps_ring = PolyRing(field, variables + (EPS_NAME,))
        elif line.startswith("ideal:") or line == "ideal:":
            if ring is None:
                raise ProblemError("vars must be declared before ideal", lineno)
            if saw_ideal:
                raise ProblemError("duplicate ideal declaration", lineno)
            saw_ideal = True
            body = line[len("ideal:"):].strip()
            if body:
                for chunk in body.split(";"):
                    chunk = chunk.strip()
                    if not chunk:
                        raise ProblemError("empty generator in ideal list", lineno)
                    try:
                        p = parse_polynomial(eps_ring, chunk)
                    except ParseError as exc:
                        raise ProblemError(str(exc), lineno) from exc
                    ideal.append(_split_eps(p, ring, eps_ring.nvars - 1))
        elif head == "gen":
            if ring is None:
                raise ProblemError("vars must be declared before gen", lineno)
            name, sep, images_text = rest.partition(":")
            name = name.strip()
            if not sep or not name:
                raise ProblemError("expected `gen <name>: <var> -> <poly>, ...`",
                                   lineno)
            mapping = {}
            for piece in images_text.split(","):
                piece = piece.strip()
                if not piece:
                    raise ProblemError("empty image in gen declaration", lineno)
                var, arrow, image_text = piece.partition("->")
                var = var.strip()
                if not arrow:
                    raise ProblemError("expected `<var> -> <poly>`", lineno)
                if var not in ring._var_index:
                    raise ProblemError(f"unknown variable {var!r}", lineno)
                if var in mapping:
                    raise ProblemError(f"duplicate image for {var!r}", lineno)
                try:
                    img = parse_polynomial(ring, image_text.strip())
                except ParseError as exc:
                    raise ProblemError(str(exc), lineno) from exc
                mapping[var] = img
            group_maps.append((name, mapping))
        elif head == "option":
            key, sep, value = rest.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not key or not value:
                raise ProblemError("expected `option <key> = <value>`", lineno)
            if key not in _OPTION_KEYS:
                raise ProblemError(f"unknown option {key!r}", lineno)
            options[key] = value
        else:
            raise ProblemError(f"unknown declaration {head!r}", lineno)

    if field is None:
        raise ProblemError("missing field declaration")
    if variables is None:
        raise ProblemError("missing vars declaration")
    if not saw_ideal:
        raise ProblemError("missing ideal declaration")

    eps_order = max((len(c) - 1 for c in ideal), default=0)
    if "order" in options:
        try:
            declared = int(options["order"])
        except ValueError as exc:
            raise ProblemError("option order must be an integer") from exc
        if declared < eps_order:
            raise ProblemError(
                f"option order = {declared} below the eps-degree {eps_order}"
            )
        eps_order = declared
    return ProblemFile(field, field_text, variables, ring, ideal, group_maps,
                       options, eps_order)
