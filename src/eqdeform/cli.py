"""Batch command-line front end.

Every command prints a deterministic plain-text report (or the JSON
form with --json) and exits 0 on success, 2 when a lifting step or
obstruction blocks, 3 on input errors.  All numbers are exact.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations

from .ambient import (
    AffinePresentation,
    NotCompleteIntersectionError,
    choose_ambient,
)
from .deform import (
    ArtinianBase,
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
    verify_stability,
)
from .poly import ParseError
from .problem import ProblemError, ProblemFile, parse_problem
from .ramify import RootOfUnityError, TruncatedSeriesModule, local_ext1_invariants

EXIT_OK = 0
EXIT_OBSTRUCTED = 2
EXIT_INPUT = 3


class InputError(Exception):
    pass


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
        base_gens = []
        for coeffs in problem.ideal:
            base_gens.append(coeffs[0])
        try:
            self.presentation = AffinePresentation.build(ring, base_gens)
        except NotCompleteIntersectionError as exc:
            raise InputError(str(exc)) from exc
        try:
            bound = int(problem.options.get("bound", 512))
        except ValueError as exc:
            raise InputError("option bound must be an integer") from exc
        maps = [m for _, m in problem.group_maps]
        try:
            self.group = close_group(maps, ring=ring, bound=bound)
        except (NotInvertibleError, ClosureBoundExceededError, ValueError) as exc:
            raise InputError(f"group closure: {exc}") from exc
        if not verify_stability(self.presentation.gb, self.group):
            raise InputError("the group does not stabilize the ideal")
        mode = problem.options.get("ambient", "auto")
        if mode not in ("auto", "original", "regular"):
            raise InputError(f"unknown ambient option {mode!r}")
        try:
            self.ambient = choose_ambient(self.presentation, self.group, mode)
        except (StabilityError, NotCompleteIntersectionError) as exc:
            raise InputError(str(exc)) from exc

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

    def deformation(self) -> Deformation:
        """The deformation written in the file (order 0 when eps-free)."""
        amb = self.ambient
        order = self.problem.eps_order
        gens = []
        for coeffs in self.problem.ideal:
            lifted = [amb.embed(c) for c in coeffs]
            gens.append(EpsPoly(amb.ring, order, lifted))
        for extra in amb.pres.gens[len(self.problem.ideal):]:
            gens.append(EpsPoly.constant(amb.ring, order, extra))
        try:
            d = Deformation(amb, ArtinianBase(order, amb.ring.field), tuple(gens))
            check = verify_deformation(d)
        except DeformationError as exc:
            raise InputError(str(exc)) from exc
        if not check.ok:
            raise InputError("; ".join(check.failures))
        return d


def _base_report(command: str, ws: Workspace | None) -> dict:
    report = {
        "command": command,
        "field": None,
        "group_order": None,
        "t0_dim": None,
        "t1_dim": None,
        "t1_equivariant_dim": None,
        "obstruction_dim": None,
        "certified": None,
        "lifts": None,
        "witness": None,
        "variables": None,
        "truncation": None,
        "ambient": None,
        "stable": None,
        "regular_sequence": None,
        "quotient_dimension": None,
        "t1_basis": None,
        "t1_equivariant_basis": None,
        "t1_infinite": None,
        "obstruction_classes": None,
        "steps": None,
        "ramify_value": None,
    }
    if ws is not None:
        report["field"] = ws.problem.field_text
        report["variables"] = list(ws.problem.variables)
        report["group_order"] = len(ws.group)
        report["ambient"] = ws.ambient.kind
    return report


def _emit(report: dict, lines: list, as_json: bool):
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


def _common_lines(report: dict) -> list:
    lines = [f"command: {report['command']}"]
    if report["field"] is not None:
        lines.append(f"field: {report['field']}")
    if report["variables"] is not None:
        lines.append("variables: " + " ".join(report["variables"]))
    if report["group_order"] is not None:
        lines.append(f"group order: {report['group_order']}")
    if report["ambient"] is not None:
        lines.append(f"ambient: {report['ambient']}")
    return lines


def cmd_check(args) -> int:
    ws = Workspace(_load_problem(args.problem))
    cert = ws.presentation.certificate
    report = _base_report("check", ws)
    report["stable"] = True
    report["regular_sequence"] = cert.regular
    report["quotient_dimension"] = cert.quotient_dimension
    lines = _common_lines(report)
    lines.append("stability: ok")
    lines.append(
        f"regular sequence: ok (dim {cert.quotient_dimension} = "
        f"{cert.nvars} - {cert.ngens})"
    )
    _emit(report, lines, args.json)
    return EXIT_OK


def cmd_tangent(args) -> int:
    ws = Workspace(_load_problem(args.problem))
    trunc = ws.truncation(args.truncate)
    rep = tangent_spaces(ws.presentation, ws.group, amb=ws.ambient, trunc=trunc)
    report = _base_report("tangent", ws)
    report["truncation"] = trunc
    report["t0_dim"] = rep.t0_dim
    report["t1_dim"] = rep.t1.dimension
    report["t1_infinite"] = not rep.t1.finite
    report["t1_basis"] = [_render_vector(v) for v in rep.t1_basis_vectors]
    report["t1_equivariant_dim"] = rep.t1_equivariant_dim
    report["t1_equivariant_basis"] = [
        _render_vector(v) for v in rep.t1_equivariant_basis
    ]
    report["certified"] = rep.certified
    lines = _common_lines(report)
    lines.append(f"truncation: {trunc}")
    lines.append(f"T0 invariant slice dim (deg <= {trunc}): {rep.t0_dim}")
    if rep.t1.finite:
        lines.append(f"T1 dim: {rep.t1.dimension}")
    else:
        lines.append(f"T1 dim: infinite at bound {trunc}")
    lines.append("T1 basis: " + (", ".join(report["t1_basis"]) or "-"))
    lines.append(f"T1_G dim: {rep.t1_equivariant_dim}")
    lines.append(
        "T1_G basis: " + (", ".join(report["t1_equivariant_basis"]) or "-")
    )
    lines.append(f"certified: {rep.certified}")
    _emit(report, lines, args.json)
    return EXIT_OK


def cmd_obstruction(args) -> int:
    ws = Workspace(_load_problem(args.problem))
    trunc = ws.truncation(args.truncate)
    obs = obstruction_space(ws.presentation, ws.group, amb=ws.ambient, trunc=trunc)
    report = _base_report("obstruction", ws)
    report["truncation"] = trunc
    report["obstruction_dim"] = obs.dimension
    report["certified"] = obs.certified
    report["obstruction_classes"] = [_render_cocycle(c) for c in obs.representatives]
    lines = _common_lines(report)
    lines.append(f"truncation: {trunc}")
    lines.append(f"obstruction dim: {obs.dimension}")
    for k, c in enumerate(obs.representatives, start=1):
        lines.append(f"class {k}: {_render_cocycle(c)}")
    lines.append(f"certified: {obs.certified}")
    _emit(report, lines, args.json)
    return EXIT_OK if obs.dimension == 0 else EXIT_OBSTRUCTED


def cmd_lift(args) -> int:
    ws = Workspace(_load_problem(args.problem))
    trunc = ws.truncation(args.truncate)
    d = ws.deformation()
    if args.order <= d.order:
        raise InputError(
            f"--order {args.order} does not exceed the input order {d.order}"
        )
    report = _base_report("lift", ws)
    report["truncation"] = trunc
    steps = []
    obstructed = None
    while d.order < args.order:
        out = lift_step(d, trunc=trunc)
        if out.success:
            steps.append(f"order {d.order} -> {d.order + 1}: ok")
            d = out.deformation
        else:
            steps.append(f"order {d.order} -> {d.order + 1}: obstructed")
            obstructed = out
            break
    report["steps"] = steps
    lines = _common_lines(report)
    lines.append(f"truncation: {trunc}")
    lines.extend(steps)
    if obstructed is not None:
        report["certified"] = obstructed.certified
        report["obstruction_classes"] = [_render_cocycle(obstructed.obstruction)]
        lines.append(f"obstruction class: {_render_cocycle(obstructed.obstruction)}")
        lines.append(f"certified: {obstructed.certified}")
        _emit(report, lines, args.json)
        return EXIT_OBSTRUCTED
    lifts = [[repr(g) for g in d.gens]]
    if args.enumerate:
        rep = tangent_spaces(ws.presentation, ws.group, amb=ws.ambient, trunc=trunc)
        basis = rep.t1_equivariant_basis
        for r in range(1, len(basis) + 1):
            for combo in combinations(range(len(basis)), r):
                vec = tuple(
                    sum((basis[i][j] for i in combo), ws.ambient.ring.zero)
                    for j in range(len(d.gens))
                )
                shifted = shift_lift(d, DifferenceClass(ws.ambient, vec))
                lifts.append([repr(g) for g in shifted.gens])
    report["lifts"] = lifts
    report["certified"] = "exact"
    lines.append(f"lift to order {args.order}: " + "; ".join(lifts[0]))
    if args.enumerate:
        for k, extra in enumerate(lifts[1:], start=1):
            lines.append(f"representative {k}: " + "; ".join(extra))
    lines.append("certified: exact")
    _emit(report, lines, args.json)
    return EXIT_OK


def cmd_iso(args) -> int:
    ws1 = Workspace(_load_problem(args.problem))
    trunc = ws1.truncation(args.truncate)
    p1 = ws1.problem
    p2 = _load_problem(args.other)
    if p1.field != p2.field or p1.variables != p2.variables:
        raise InputError("problem files use different fields or variables")
    maps1 = [{v: repr(img) for v, img in m.items()} for _, m in p1.group_maps]
    maps2 = [{v: repr(img) for v, img in m.items()} for _, m in p2.group_maps]
    if maps1 != maps2:
        raise InputError("problem files declare different group actions")
    if len(p1.ideal) != len(p2.ideal):
        raise InputError("problem files present different numbers of generators")
    d1 = ws1.deformation()
    # transport the second lift into the first workspace's ambient
    amb = ws1.ambient
    order = max(p1.eps_order, p2.eps_order)
    if d1.order < order:
        d1 = Deformation(
            amb, ArtinianBase(order, amb.ring.field),
            tuple(g.lift(order) for g in d1.gens),
        )
    gens2 = []
    for coeffs in p2.ideal:
        lifted = [amb.embed(p1.ring.from_terms(c.terms)) for c in coeffs]
        gens2.append(EpsPoly(amb.ring, order, lifted))
    for extra in amb.pres.gens[len(p2.ideal):]:
        gens2.append(EpsPoly.constant(amb.ring, order, extra))
    try:
        d2 = Deformation(amb, ArtinianBase(order, amb.ring.field), tuple(gens2))
        check = verify_deformation(d2)
    except DeformationError as exc:
        raise InputError(str(exc)) from exc
    if not check.ok:
        raise InputError("; ".join(check.failures))
    try:
        witness = isomorphism_witness(d1, d2, trunc=trunc)
    except DeformationError as exc:
        raise InputError(str(exc)) from exc
    report = _base_report("iso", ws1)
    report["truncation"] = trunc
    lines = _common_lines(report)
    lines.append(f"truncation: {trunc}")
    if witness is None:
        report["witness"] = None
        report["certified"] = f"slice:{trunc}"
        lines.append(f"witness: none at slice {trunc}")
        lines.append(f"certified: slice:{trunc}")
    else:
        report["witness"] = [repr(c) for c in witness.components]
        report["certified"] = "exact"
        lines.append("witness: " + _render_vector(witness.components))
        lines.append("certified: exact")
    _emit(report, lines, args.json)
    return EXIT_OK


def cmd_ramify(args) -> int:
    try:
        field = GF(args.p)
    except FieldError as exc:
        raise InputError(str(exc)) from exc
    try:
        value = local_ext1_invariants(args.d, args.m, field)
        module = TruncatedSeriesModule(args.d, (-(args.d + 1)) % args.m,
                                       args.m, field)
        matrix_value = module.invariant_count_by_matrix()
    except (RootOfUnityError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    report = _base_report("ramify", None)
    report["field"] = f"F {args.p}"
    report["ramify_value"] = value
    report["certified"] = "exact"
    lines = [
        "command: ramify",
        f"field: F {args.p}",
        f"different: {args.d}",
        f"stabilizer order: {args.m}",
        f"invariant dim: {value}",
        f"matrix cross-check: {matrix_value}",
        "certified: exact",
    ]
    if value != matrix_value:
        raise InputError("weight count disagrees with the matrix fixed space")
    _emit(report, lines, args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ProblemError, ParseError, DeformationError, StabilityError,
            NotCompleteIntersectionError, FieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
