"""Batch command-line front end.

Every command prints a deterministic plain-text report (or the JSON
form with --json) and exits 0 on success, 2 when a lifting step or
obstruction blocks, 3 on input errors.  All numbers are exact.

A command loads its problem file into a ``Workspace`` (presentation,
group closure and ambient, with ``Workspace.deformation`` building the
verified lift a file writes) and fills one ``Report``: each ``put``
sets a JSON field of ``report.schema.json`` together with its text
lines, and ``emit`` prints one form or the other.  Library errors and
malformed command lines reach ``main``, which maps them to exit 3 with
their message.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import combinations

from .ambient import (
    AffinePresentation,
    NotCompleteIntersectionError,
    VariableNameCollisionError,
    choose_ambient,
    derivations,
)
from .deform import (
    Deformation,
    DeformationError,
    DifferenceClass,
    EpsPoly,
    default_truncation,
    isomorphism_witness,
    lift_step,
    obstruction_space,
    shift_lift,
    tangent_spaces,
    verify_deformation,
)
from .fields import GF, FieldError
from .gaction import (
    ClosureBoundExceededError,
    NotInvertibleError,
    StabilityError,
    close_group,
)
from .poly import ParseError
from .problem import ProblemError, ProblemFile, parse_problem
from .ramify import RamifyError, TruncatedSeriesModule, local_ext1_invariants

EXIT_OK = 0
EXIT_OBSTRUCTED = 2
EXIT_INPUT = 3

# The largest different ``ramify`` accepts: its matrix cross-check holds
# d sparse rows, about 450 MiB at 10^6.
MAX_RAMIFY_DIFFERENT = 10**6

# The JSON report's fields, in the order of report.schema.json.
REPORT_FIELDS = (
    "command", "field", "group_order", "t0_dim", "t1_dim",
    "t1_equivariant_dim", "obstruction_dim", "certified", "lifts", "witness",
    "variables", "truncation", "ambient", "stable", "regular_sequence",
    "quotient_dimension", "t1_basis", "t1_equivariant_basis", "t1_infinite",
    "obstruction_classes", "steps", "ramify_value",
)


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser (its subparsers too) whose usage errors are
    input errors, not argparse's exit 2."""

    def error(self, message):
        raise InputError(message)


def _render_vector(vec) -> str:
    if len(vec) == 1:
        return repr(vec[0])
    return "(" + ", ".join(repr(p) for p in vec) + ")"


def _render_cocycle(c) -> str:
    parts = []
    for i in sorted(c.values):
        parts.append(f"g{i} -> {_render_vector(c.values[i])}")
    return "; ".join(parts) if parts else "0"


def _load_problem(path: str) -> ProblemFile:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_problem(text)
    except (ProblemError, ParseError) as exc:
        raise InputError(f"{path}: {exc}") from exc


class Workspace:
    """Presentation, group and ambient assembled from a problem file."""

    def __init__(self, problem: ProblemFile):
        self.problem = problem
        ring = problem.ring
        self.presentation = AffinePresentation.build(
            ring, [coeffs[0] for coeffs in problem.ideal])
        try:
            bound = int(problem.options.get("bound", 512))
        except ValueError as exc:
            raise InputError("option bound must be an integer") from exc
        maps = [m for _, m in problem.group_maps]
        try:
            self.group = close_group(maps, ring=ring, bound=bound)
        except (NotInvertibleError, ClosureBoundExceededError, ValueError) as exc:
            raise InputError(f"group closure: {exc}") from exc
        mode = problem.options.get("ambient", "auto")
        if mode not in ("auto", "original", "regular"):
            raise InputError(f"unknown ambient option {mode!r}")
        self.ambient = choose_ambient(self.presentation, self.group, mode)

    def truncation(self, override: int | None) -> int:
        """The slice bound: --truncate, else option truncate, else the default."""
        if override is not None:
            value, source = override, "--truncate"
        elif "truncate" in self.problem.options:
            try:
                value = int(self.problem.options["truncate"])
            except ValueError as exc:
                raise InputError("option truncate must be an integer") from exc
            source = "option truncate"
        else:
            return default_truncation(self.ambient)
        if value < 0:
            raise InputError(f"{source} must be non-negative, got {value}")
        return value

    def deformation(self, problem: ProblemFile, order: int) -> Deformation:
        """The verified deformation over the ambient, at the given order,
        whose generators have the eps coefficients written in ``problem``
        (this workspace's problem or one over the same variables)."""
        amb = self.ambient
        ring = self.problem.ring
        gens = [EpsPoly(amb.ring, order,
                        [amb.embed(ring.from_terms(c.terms)) for c in coeffs])
                for coeffs in problem.ideal]
        gens += [EpsPoly.constant(amb.ring, order, extra)
                 for extra in amb.pres.gens[len(problem.ideal):]]
        d = Deformation(amb, order, gens)
        verify_deformation(d)
        return d


class Report:
    """One command's answer: the JSON fields (null unless set) and the
    text lines, each field set together with its lines."""

    def __init__(self, command: str, ws: Workspace | None = None):
        self.fields = dict.fromkeys(REPORT_FIELDS)
        self.lines = []
        self.put("command", command, f"command: {command}")
        if ws is not None:
            problem = ws.problem
            self.put("field", problem.field_text, f"field: {problem.field_text}")
            self.put("variables", list(problem.variables),
                     "variables: " + " ".join(problem.variables))
            self.put("group_order", len(ws.group), f"group order: {len(ws.group)}")
            self.put("ambient", ws.ambient.kind, f"ambient: {ws.ambient.kind}")

    def put(self, key: str, value, *lines: str):
        if key not in self.fields:
            raise KeyError(f"{key!r} is not a report field")
        self.fields[key] = value
        self.lines.extend(lines)

    def text(self, *lines: str):
        """Lines that no JSON field carries."""
        self.lines.extend(lines)

    def emit(self, as_json: bool):
        print(json.dumps(self.fields, indent=2) if as_json else "\n".join(self.lines))


def cmd_check(args) -> int:
    ws = Workspace(_load_problem(args.problem))
    cert = ws.presentation.certificate
    report = Report("check", ws)
    report.put("stable", True, "stability: ok")
    report.put("regular_sequence", cert.regular,
               f"regular sequence: ok (dim {cert.quotient_dimension} = "
               f"{cert.nvars} - {cert.ngens})")
    report.put("quotient_dimension", cert.quotient_dimension)
    report.emit(args.json)
    return EXIT_OK


def cmd_tangent(args) -> int:
    ws = Workspace(_load_problem(args.problem))
    trunc = ws.truncation(args.truncate)
    rep = tangent_spaces(ws.ambient, trunc=trunc)
    t0_dim = derivations(ws.ambient, trunc)
    report = Report("tangent", ws)
    report.put("truncation", trunc, f"truncation: {trunc}")
    report.put("t0_dim", t0_dim,
               f"T0 invariant slice dim (deg <= {trunc}): {t0_dim}")
    report.put("t1_dim", rep.t1.dimension, f"T1 dim: {rep.t1.dimension}"
               if rep.t1.finite else f"T1 dim: infinite at bound {trunc}")
    report.put("t1_infinite", not rep.t1.finite)
    basis = [_render_vector(v) for v in rep.t1_basis_vectors]
    report.put("t1_basis", basis, "T1 basis: " + (", ".join(basis) or "-"))
    report.put("t1_equivariant_dim", rep.t1_equivariant_dim,
               f"T1_G dim: {rep.t1_equivariant_dim}")
    basis = [_render_vector(v) for v in rep.t1_equivariant_basis]
    report.put("t1_equivariant_basis", basis,
               "T1_G basis: " + (", ".join(basis) or "-"))
    report.put("certified", rep.certified, f"certified: {rep.certified}")
    report.emit(args.json)
    return EXIT_OK


def cmd_obstruction(args) -> int:
    ws = Workspace(_load_problem(args.problem))
    trunc = ws.truncation(args.truncate)
    obs = obstruction_space(ws.ambient, trunc=trunc)
    report = Report("obstruction", ws)
    report.put("truncation", trunc, f"truncation: {trunc}")
    report.put("obstruction_dim", obs.dimension, f"obstruction dim: {obs.dimension}")
    classes = [_render_cocycle(c) for c in obs.representatives]
    report.put("obstruction_classes", classes,
               *(f"class {k}: {c}" for k, c in enumerate(classes, start=1)))
    report.put("certified", obs.certified, f"certified: {obs.certified}")
    report.emit(args.json)
    return EXIT_OK if obs.dimension == 0 else EXIT_OBSTRUCTED


def cmd_lift(args) -> int:
    ws = Workspace(_load_problem(args.problem))
    trunc = ws.truncation(args.truncate)
    d = ws.deformation(ws.problem, ws.problem.eps_order)
    if args.order <= d.order:
        raise InputError(
            f"--order {args.order} does not exceed the input order {d.order}"
        )
    report = Report("lift", ws)
    report.put("truncation", trunc, f"truncation: {trunc}")
    steps = []
    while d.order < args.order:
        out = lift_step(d, trunc=trunc)
        steps.append(f"order {d.order} -> {d.order + 1}: "
                     + ("ok" if out.success else "obstructed"))
        if not out.success:
            break
        d = out.deformation
    report.put("steps", steps, *steps)
    if not out.success:
        obstruction = _render_cocycle(out.obstruction)
        report.put("obstruction_classes", [obstruction],
                   f"obstruction class: {obstruction}")
        report.put("certified", out.certified, f"certified: {out.certified}")
        report.emit(args.json)
        return EXIT_OBSTRUCTED
    lifts = [[repr(g) for g in d.gens]]
    if args.enumerate:
        basis = tangent_spaces(ws.ambient, trunc=trunc).t1_equivariant_basis
        for r in range(1, len(basis) + 1):
            for combo in combinations(range(len(basis)), r):
                vec = tuple(
                    sum((basis[i][j] for i in combo), ws.ambient.ring.zero)
                    for j in range(len(d.gens))
                )
                shifted = shift_lift(d, DifferenceClass(ws.ambient, vec))
                lifts.append([repr(g) for g in shifted.gens])
    report.put("lifts", lifts, f"lift to order {args.order}: " + ("; ".join(lifts[0]) or "-"),
               *(f"representative {k}: " + "; ".join(extra)
                 for k, extra in enumerate(lifts[1:], start=1)))
    report.put("certified", "exact", "certified: exact")
    report.emit(args.json)
    return EXIT_OK


def cmd_iso(args) -> int:
    ws = Workspace(_load_problem(args.problem))
    trunc = ws.truncation(args.truncate)
    p1 = ws.problem
    p2 = _load_problem(args.other)
    if p1.field != p2.field or p1.variables != p2.variables:
        raise InputError("problem files use different fields or variables")
    maps1 = [{v: repr(img) for v, img in m.items()} for _, m in p1.group_maps]
    maps2 = [{v: repr(img) for v, img in m.items()} for _, m in p2.group_maps]
    if maps1 != maps2:
        raise InputError("problem files declare different group actions")
    if len(p1.ideal) != len(p2.ideal):
        raise InputError("problem files present different numbers of generators")
    order = max(p1.eps_order, p2.eps_order)
    d1 = ws.deformation(p1, order)
    d2 = ws.deformation(p2, order)
    witness = isomorphism_witness(d1, d2, trunc=trunc)
    report = Report("iso", ws)
    report.put("truncation", trunc, f"truncation: {trunc}")
    if witness is None:
        report.put("witness", None, f"witness: none at slice {trunc}")
        report.put("certified", f"slice:{trunc}", f"certified: slice:{trunc}")
    else:
        report.put("witness", [repr(c) for c in witness.components],
                   "witness: " + _render_vector(witness.components))
        report.put("certified", "exact", "certified: exact")
    report.emit(args.json)
    return EXIT_OK


def cmd_ramify(args) -> int:
    if args.d > MAX_RAMIFY_DIFFERENT:
        raise InputError(f"--d {args.d} exceeds MAX_RAMIFY_DIFFERENT = {MAX_RAMIFY_DIFFERENT}")
    field = GF(args.p)
    value = local_ext1_invariants(args.d, args.m, field)
    module = TruncatedSeriesModule(args.d, (-(args.d + 1)) % args.m, args.m, field)
    matrix_value = module.invariant_count_by_matrix()
    if value != matrix_value:
        raise InputError("weight count disagrees with the matrix fixed space")
    report = Report("ramify")
    report.put("field", f"F {args.p}", f"field: F {args.p}")
    report.text(f"different: {args.d}", f"stabilizer order: {args.m}")
    report.put("ramify_value", value, f"invariant dim: {value}")
    report.text(f"matrix cross-check: {matrix_value}")
    report.put("certified", "exact", "certified: exact")
    report.emit(args.json)
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use."""
    parser = _Parser(
        prog="eqdeform",
        description="Equivariant deformation calculus for affine complete "
                    "intersections (exact arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, problem=True):
        if problem:
            p.add_argument("problem", help="problem file")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p_check = sub.add_parser("check", help="stability and regular-sequence check")
    add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_tan = sub.add_parser("tangent", help="T0_G, T1 and T1_G")
    add_common(p_tan)
    p_tan.add_argument("--truncate", type=int, default=None)
    p_tan.set_defaults(func=cmd_tangent)

    p_obs = sub.add_parser("obstruction", help="equivariant obstruction space")
    add_common(p_obs)
    p_obs.add_argument("--truncate", type=int, default=None)
    p_obs.set_defaults(func=cmd_obstruction)

    p_lift = sub.add_parser("lift", help="stepwise equivariant lifting")
    add_common(p_lift)
    p_lift.add_argument("--order", type=int, required=True)
    p_lift.add_argument("--truncate", type=int, default=None)
    p_lift.add_argument("--enumerate", action="store_true",
                        help="list representative lifts over the T1_G basis")
    p_lift.set_defaults(func=cmd_lift)

    p_iso = sub.add_parser("iso", help="isomorphism witness for two lifts")
    p_iso.add_argument("problem", help="first problem file")
    p_iso.add_argument("other", help="second problem file")
    p_iso.add_argument("--json", action="store_true")
    p_iso.add_argument("--truncate", type=int, default=None)
    p_iso.set_defaults(func=cmd_iso)

    p_ram = sub.add_parser("ramify", help="local ramification invariant count")
    p_ram.add_argument("--d", type=int, required=True, help="local different")
    p_ram.add_argument("--m", type=int, required=True, help="stabilizer order")
    p_ram.add_argument("--p", type=int, required=True, help="prime field")
    p_ram.add_argument("--json", action="store_true")
    p_ram.set_defaults(func=cmd_ramify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, ProblemError, ParseError, DeformationError, StabilityError,
            NotCompleteIntersectionError, VariableNameCollisionError, FieldError,
            RamifyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
