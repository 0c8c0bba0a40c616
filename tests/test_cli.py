import json
import re
import time
from pathlib import Path

import pytest

import eqdeform.cli
import oracles
from eqdeform.ambient import NormalModule
from eqdeform.cli import Workspace, main
from eqdeform.cohomology import Cocycle
from eqdeform.deform import LiftOutcome
from eqdeform.problem import parse_problem

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

GOLDEN_CASES = [
    (["check", "problems/cusp_q.prob"], "check_cusp.txt", 0),
    (["tangent", "problems/cusp_q.prob"], "tangent_cusp.txt", 0),
    (["tangent", "problems/node_q.prob"], "tangent_node.txt", 0),
    (["obstruction", "problems/node_f2.prob", "--truncate", "4"],
     "obstruction_node_f2.txt", 2),
    (["lift", "problems/node_q.prob", "--order", "2"], "lift_node.txt", 0),
    (["lift", "problems/cusp_q.prob", "--order", "1", "--enumerate"],
     "lift_cusp_enum.txt", 0),
    (["lift", "problems/line_f2.prob", "--order", "3"], "lift_line_f2.txt", 0),
    (["iso", "problems/cusp_lift_zero.prob", "problems/cusp_lift_x.prob"],
     "iso_cusp_none.txt", 0),
    (["ramify", "--d", "1", "--m", "2", "--p", "5"], "ramify_1_2_5.txt", 0),
    (["tangent", "problems/cusp_q.prob", "--json"], "tangent_cusp.json", 0),
    (["obstruction", "problems/node_f2.prob", "--truncate", "4", "--json"],
     "obstruction_node_f2.json", 2),
    (["check", "problems/cusp_q.prob", "--json"], "check_cusp.json", 0),
    (["lift", "problems/node_q.prob", "--order", "2", "--json"],
     "lift_node.json", 0),
    (["lift", "problems/cusp_q.prob", "--order", "1", "--enumerate", "--json"],
     "lift_cusp_enum.json", 0),
    (["iso", "problems/cusp_lift_zero.prob", "problems/cusp_lift_x.prob", "--json"],
     "iso_cusp_none.json", 0),
    (["iso", "problems/cusp_lift_zero.prob", "problems/cusp_lift_zero.prob",
      "--json"], "iso_cusp_self.json", 0),
    (["ramify", "--d", "1", "--m", "2", "--p", "5", "--json"],
     "ramify_1_2_5.json", 0),
]


def run_cli(argv, capsys, cwd_args=True):
    argv = [str(ROOT / a) if isinstance(a, str) and a.startswith("problems/") else a
            for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv,golden,expected_code", GOLDEN_CASES)
def test_golden_outputs(argv, golden, expected_code, capsys):
    code, out, _err = run_cli(argv, capsys)
    assert code == expected_code
    expected = (GOLDEN / golden).read_text()
    assert out == expected


@pytest.mark.parametrize("argv,golden,expected_code", GOLDEN_CASES)
def test_byte_identical_reruns(argv, golden, expected_code, capsys):
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 and out1 == out2


def _schema():
    import importlib.resources as resources

    with resources.files("eqdeform").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


JSON_COMMANDS = [
    ["check", "problems/cusp_q.prob", "--json"],
    ["tangent", "problems/cusp_q.prob", "--json"],
    ["tangent", "problems/node_f2.prob", "--json"],
    ["obstruction", "problems/node_f2.prob", "--truncate", "4", "--json"],
    ["obstruction", "problems/cusp_q.prob", "--json"],
    ["lift", "problems/node_q.prob", "--order", "2", "--json"],
    ["lift", "problems/cusp_q.prob", "--order", "1", "--enumerate", "--json"],
    ["iso", "problems/cusp_lift_zero.prob", "problems/cusp_lift_x.prob", "--json"],
    ["iso", "problems/cusp_lift_zero.prob", "problems/cusp_lift_zero.prob", "--json"],
    ["ramify", "--d", "1", "--m", "2", "--p", "5", "--json"],
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_json_reports_validate(argv, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = _schema()
    code, out, _ = run_cli(argv, capsys)
    assert code in (0, 2)
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["command"] == argv[0]


def test_report_fields_follow_the_schema():
    assert list(eqdeform.cli.REPORT_FIELDS) == list(_schema()["properties"])


# How each scalar JSON field reads in the text report: a line pattern
# whose group is the rendered value, and the rendering of the JSON value.
TEXT_OF_FIELD = {
    "command": (r"command: (.+)", str),
    "field": (r"field: (.+)", str),
    "group_order": (r"group order: (\d+)", str),
    "ambient": (r"ambient: (.+)", str),
    "truncation": (r"truncation: (\d+)", str),
    "t0_dim": (r"T0 invariant slice dim \(deg <= \d+\): (\d+)", str),
    "t1_dim": (r"T1 dim: (\d+)", str),
    "t1_infinite": (r"T1 dim: (infinite) at bound \d+|T1 dim: \d+()",
                    lambda v: "infinite" if v else ""),
    "t1_equivariant_dim": (r"T1_G dim: (\d+)", str),
    "obstruction_dim": (r"obstruction dim: (\d+)", str),
    "certified": (r"certified: (.+)", str),
    "stable": (r"stability: (ok)", lambda v: "ok" if v else "failed"),
    "regular_sequence": (r"regular sequence: (ok) .*",
                         lambda v: "ok" if v else "failed"),
    "quotient_dimension": (r"regular sequence: ok \(dim (\d+) = .*", str),
    "ramify_value": (r"invariant dim: (\d+)", str),
}


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_text_and_json_agree(argv, capsys):
    code_json, out_json, _ = run_cli(argv, capsys)
    code_text, out_text, _ = run_cli([a for a in argv if a != "--json"], capsys)
    assert code_json == code_text
    report = json.loads(out_json)
    lines = out_text.splitlines()
    scalars = {k: v for k, v in report.items()
               if v is not None and not isinstance(v, list)}
    assert set(scalars) <= set(TEXT_OF_FIELD)
    for key, value in scalars.items():
        pattern, render = TEXT_OF_FIELD[key]
        shown = [m.group(m.lastindex) for m in map(
            re.compile(pattern).fullmatch, lines) if m is not None]
        assert shown == [render(value)], (key, value, shown)


def test_json_values_cusp(capsys):
    code, out, _ = run_cli(["tangent", "problems/cusp_q.prob", "--json"], capsys)
    report = json.loads(out)
    assert report["t1_dim"] == 2
    assert report["t1_equivariant_dim"] == 2
    assert report["t1_basis"] == ["1", "x"]
    assert report["certified"] == "exact"
    assert report["group_order"] == 2


def test_json_values_obstruction(capsys):
    code, out, _ = run_cli(
        ["obstruction", "problems/node_f2.prob", "--truncate", "4", "--json"], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["obstruction_dim"] == 1
    assert report["certified"] == "slice:4"


def _generating_sets(text, product):
    """The problem text with its gen lines in reverse order, and with the
    redundant generator ``product`` (a product of two others) added."""
    lines = text.splitlines()
    at = [k for k, line in enumerate(lines) if line.startswith("gen ")]
    reordered = list(lines)
    for k, line in zip(at, reversed([lines[k] for k in at])):
        reordered[k] = line
    redundant = lines[:at[-1] + 1] + [product] + lines[at[-1] + 1:]
    return ["\n".join(reordered) + "\n", "\n".join(redundant) + "\n"]


KLEIN_PRODUCT = "gen st: a -> d, d -> a, b -> c, c -> b"


@pytest.mark.parametrize("name,truncate,product,obstruction_dim", [
    ("klein_f2", 2, KLEIN_PRODUCT, 6),
    ("d4_f2", 8, "gen st: x -> y + 1, y -> x", 5),
], ids=["klein_f2", "d4_f2"])
def test_dimensions_do_not_depend_on_the_generating_set(name, truncate, product,
                                                        obstruction_dim, tmp_path, capsys):
    """Element indices may move with the gen lines, so the dimensions are
    compared, not the class text."""
    text = (ROOT / "bench" / "problems" / f"{name}.prob").read_text(encoding="utf-8")
    path = tmp_path / f"{name}.prob"

    def dimensions(text):
        path.write_text(text, encoding="utf-8")
        out = []
        for command, key in (("obstruction", "obstruction_dim"),
                             ("tangent", "t1_equivariant_dim")):
            _, report, _ = run_cli([command, str(path), "--truncate", str(truncate),
                                    "--json"], capsys)
            out.append(json.loads(report)[key])
        return out

    expected = dimensions(text)
    assert expected[0] == obstruction_dim
    for variant in _generating_sets(text, product):
        assert dimensions(variant) == expected


def test_lift_does_not_depend_on_the_generating_set(tmp_path, capsys):
    """The one bench lift whose defect needs a coboundary solve."""
    text = (ROOT / "bench" / "problems" / "klein_twist_f2.prob").read_text(encoding="utf-8")
    path = tmp_path / "klein_twist_f2.prob"
    for variant in [text, *_generating_sets(text, KLEIN_PRODUCT)]:
        path.write_text(variant, encoding="utf-8")
        code, _, _ = run_cli(["lift", str(path), "--order", "2", "--truncate", "2"], capsys)
        assert code == 0


def test_exit_code_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text("field F 4\nvars x\nideal: x\n")
    code, out, err = run_cli(["check", str(bad)], capsys)
    assert code == 3 and "not prime" in err
    unstable = tmp_path / "unstable.prob"
    unstable.write_text("field Q\nvars x y\nideal: x\ngen s: x -> y, y -> x\n")
    code, _, err = run_cli(["check", str(unstable)], capsys)
    assert code == 3 and "stabilize" in err
    missing = tmp_path / "missing.prob"
    code, _, err = run_cli(["check", str(missing)], capsys)
    assert code == 3
    notreg = tmp_path / "notreg.prob"
    notreg.write_text("field Q\nvars x y\nideal: x ; x\n")
    code, _, err = run_cli(["check", str(notreg)], capsys)
    assert code == 3 and "regular sequence" in err
    noneq = tmp_path / "noneq.prob"
    noneq.write_text("field Q\nvars x y\nideal: x*y + eps*x\ngen s: x -> y, y -> x\n")
    for argv in (["lift", str(noneq), "--order", "2"], ["iso", str(noneq), str(noneq)]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, "")
        assert err == "error: equivariance: eps^1 coefficient is not in the base ideal\n"


@pytest.mark.parametrize("text,dims", [
    ("field Q\nvars x y\nideal: 0\n", "2, expected 1"),
    ("field F 3\nvars x y\nideal: x*y; 0\n", "1, expected 0"),
    ("field Q\nvars x\nideal: 0\n", "1, expected 0"),
], ids=["zero_plane", "zero_after_xy", "zero_line"])
def test_a_zero_generator_fails_the_count_with_its_true_dimension(text, dims, tmp_path,
                                                                  capsys):
    """A zero generator adds to the expected codimension but not to the
    ideal, so the dimension count rejects it with the quotient's real
    dimension."""
    prob = tmp_path / "zero.prob"
    prob.write_text(text)
    code, out, err = run_cli(["check", str(prob)], capsys)
    assert (code, out) == (3, "")
    assert err == ("error: generators are not a regular sequence: "
                   f"quotient dimension {dims}\n")


@pytest.mark.parametrize("argv", [
    ["check"], ["tangent"], ["obstruction"], ["lift", "--order", "2"],
], ids=lambda a: a[0])
def test_colliding_ambient_names_are_an_input_error(argv, tmp_path, capsys):
    """x_g1 is also the regular-representation name of x at element 1."""
    prob = tmp_path / "collide.prob"
    prob.write_text("field F 2\nvars x x_g1\nideal:\ngen s: x -> x + 1\n")
    code, out, err = run_cli([argv[0], str(prob), *argv[1:]], capsys)
    assert code == 3 and out == ""
    assert "ambient variable names collide" in err


@pytest.mark.parametrize("argv", [
    ["tangent", "problems/node_f2.prob", "--truncate", "-1"],
    ["obstruction", "problems/node_f2.prob", "--truncate", "-5"],
    ["lift", "problems/node_q.prob", "--order", "2", "--truncate", "-1"],
    ["iso", "problems/cusp_lift_zero.prob", "problems/cusp_lift_x.prob",
     "--truncate", "-1"],
], ids=lambda a: a[0])
def test_negative_truncation_is_an_input_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert "--truncate must be non-negative" in err


@pytest.mark.parametrize("argv,message", [
    (["tangent"], "the following arguments are required: problem"),
    (["obstruction", "problems/node_f2.prob", "--truncate", "abc"],
     "argument --truncate: invalid int value: 'abc'"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    (["lift", "problems/node_q.prob"], "the following arguments are required: --order"),
    (["check", "problems/cusp_q.prob", "--verbose"], "unrecognized arguments: --verbose"),
], ids=["no_problem", "truncate_abc", "unknown_command", "no_order", "unknown_option"])
def test_a_malformed_command_line_is_an_input_error(argv, message, capsys):
    """argparse's usage errors exit 3 like every other input error, with
    one error line on stderr and nothing on stdout, not argparse's 2,
    which is the obstructed exit."""
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tangent", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: eqdeform tangent")


def test_the_parser_is_built_once():
    """main builds its parser on the first call and reuses it."""
    eqdeform.cli.build_parser.cache_clear()
    main(["ramify", "--d", "1", "--m", "2", "--p", "5"])
    main(["ramify", "--d", "1", "--m", "2", "--p", "5", "--json"])
    assert eqdeform.cli.build_parser.cache_info().misses == 1


def test_negative_truncate_option_is_an_input_error(tmp_path, capsys):
    prob = tmp_path / "neg.prob"
    prob.write_text((ROOT / "problems/node_f2.prob").read_text()
                    + "option truncate = -2\n")
    code, _, err = run_cli(["tangent", str(prob)], capsys)
    assert code == 3 and "option truncate must be non-negative" in err


def test_large_exponent_check_and_lift(tmp_path, capsys):
    prob = tmp_path / "power.prob"
    prob.write_text("field Q\nvars x\nideal: x^3000\ngen s: x -> -x\n")
    code, out, _ = run_cli(["check", str(prob)], capsys)
    assert code == 0 and "regular sequence: ok" in out
    code, out, _ = run_cli(["lift", str(prob), "--order", "2"], capsys)
    assert code == 0 and "certified: exact" in out


def test_iso_witness_round_trip(tmp_path, capsys):
    # build d2 from d1 by an honest flow and expect an exact witness
    code, out, _ = run_cli(
        ["iso", "problems/cusp_lift_zero.prob", "problems/cusp_lift_zero.prob",
         "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["witness"] == ["0", "0"]
    assert report["certified"] == "exact"


def test_lift_enumerate_matches_torsor(capsys):
    code, out, _ = run_cli(
        ["lift", "problems/cusp_q.prob", "--order", "1", "--enumerate", "--json"],
        capsys)
    report = json.loads(out)
    assert len(report["lifts"]) == 4  # 2^dim T1_G combinations with 0/1 coefficients
    assert report["lifts"][0] == ["-x^3 + y^2"]


def test_console_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "eqdeform.cli", "ramify",
         "--d", "1", "--m", "2", "--p", "5"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 0
    assert (GOLDEN / "ramify_1_2_5.txt").read_text() == proc.stdout


def test_ambient_option(tmp_path, capsys):
    forced = tmp_path / "cusp_regular.prob"
    forced.write_text(
        "field Q\nvars x y\nideal: y^2 - x^3\ngen s: y -> -y\n"
        "option ambient = regular\n"
    )
    code, out, _ = run_cli(["tangent", str(forced), "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ambient"] == "regular"
    assert report["t1_dim"] == 2 and report["t1_equivariant_dim"] == 2


def _obstructed_step(d, trunc=None):
    """A lift step that reports an obstruction class, as no shipped input does."""
    values = {i: (d.amb.pres.nf(d.amb.ring.var("x")),) for i in d.amb.action.indices()}
    return LiftOutcome(False, None, Cocycle(NormalModule(d.amb), values),
                       f"slice:{trunc}")


def test_lift_obstructed_branch(monkeypatch, capsys):
    monkeypatch.setattr(eqdeform.cli, "lift_step", _obstructed_step)
    argv = ["lift", "problems/node_q.prob", "--order", "2"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 2 and "obstruction class: g1 -> x" in out.splitlines()
    assert out == (GOLDEN / "lift_node_obstructed.txt").read_text()
    code, out, _ = run_cli(argv + ["--json"], capsys)
    assert code == 2
    assert out == (GOLDEN / "lift_node_obstructed.json").read_text()
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(json.loads(out), _schema())


@pytest.mark.parametrize("text", [
    "field Q\nvars x\nideal:\ngen s: x -> -x\n",
    "field F 2\nvars x\nideal:\ngen s: x -> x + 1\n",
], ids=["original", "regular"])
def test_rank_zero_lift_and_iso(text, tmp_path, capsys):
    prob = tmp_path / "empty.prob"
    prob.write_text(text)
    for argv in (["lift", str(prob), "--order", "2", "--json"],
                 ["iso", str(prob), str(prob), "--json"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["certified"] == "exact"
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(report, _schema())


EDGE_INPUTS = {
    "empty_ideal_original": "field Q\nvars x\nideal:\ngen s: x -> -x\n",
    "empty_ideal_regular": "field F 2\nvars x\nideal:\ngen s: x -> x + 1\n",
    "no_gen": "field Q\nvars x y\nideal: x*y\n",
    "unit_ideal": "field Q\nvars x\nideal: 1\ngen s: x -> -x\n",
    "bound_zero": "field Q\nvars x y\nideal: x*y\ngen s: x -> y, y -> x\n"
                  "option bound = 0\n",
    "ambient_foo": "field Q\nvars x\nideal: x\ngen s: x -> -x\n"
                   "option ambient = foo\n",
    "not_invertible": "field Q\nvars x\nideal: x\ngen s: x -> 0\n",
    "infinite_order": "field Q\nvars x\nideal:\ngen t: x -> x + 1\n",
}


@pytest.mark.parametrize("name", [*EDGE_INPUTS, "unreadable"])
def test_edge_inputs_never_raise(name, tmp_path):
    if name == "unreadable":
        prob = tmp_path  # a directory cannot be read as a problem file
    else:
        prob = tmp_path / f"{name}.prob"
        prob.write_text(EDGE_INPUTS[name])
    for argv in (["check", str(prob)], ["tangent", str(prob)],
                 ["obstruction", str(prob)], ["lift", str(prob), "--order", "3"],
                 ["iso", str(prob), str(prob)]):
        assert main(argv) in (0, 2, 3), argv


@pytest.mark.parametrize("first,second", [
    ("problems/cusp_q.prob", "problems/cusp_lift_x.prob"),
    ("problems/cusp_lift_x.prob", "problems/cusp_q.prob"),
], ids=["lower_first", "higher_first"])
def test_iso_with_mismatched_eps_orders(first, second, capsys):
    code, out, _ = run_cli(["iso", first, second], capsys)
    assert code == 0 and "witness: none at slice 6" in out.splitlines()


def test_tangent_on_the_regular_ambient_of_a_plane(tmp_path, capsys):
    """T0_G is the invariant-derivation slice alone: on the 16-variable
    regular ambient of this order-8 group no syzygy module is built."""
    text = ("field F 2\nvars x y\nideal:\n"
            "gen g0: y -> y + 1\ngen g1: x -> y, y -> x\n")
    prob = tmp_path / "plane.prob"
    prob.write_text(text)
    code, out, err = run_cli(["tangent", str(prob), "--json"], capsys)
    assert code == 0, err
    report = json.loads(out)
    amb = Workspace(parse_problem(text)).ambient
    assert amb.kind == "regular" and amb.ring.nvars == 16
    expected = oracles.invariant_vector_slice(amb, report["truncation"], tangent=True)
    assert report["t0_dim"] == len(expected)
    assert report["t1_dim"] == 0


def test_check_on_a_48_variable_regular_ambient(tmp_path, capsys):
    """(Z/2)^3 swapping a<->b, c<->d and e<->f has no free variable orbit,
    so its ambient is regular, with 48 variables; the basis and the
    certificate there come from the six-variable presentation."""
    prob = tmp_path / "z2cube.prob"
    prob.write_text("field F 2\nvars a b c d e f\nideal: a*b + c*d + e*f\n"
                    "gen s: a -> b, b -> a\ngen t: c -> d, d -> c\n"
                    "gen u: e -> f, f -> e\n")
    start = time.perf_counter()
    code, out, err = run_cli(["check", str(prob)], capsys)
    elapsed = time.perf_counter() - start
    assert code == 0, err
    lines = out.splitlines()
    assert "ambient: regular" in lines
    assert "regular sequence: ok (dim 5 = 6 - 1)" in lines
    assert elapsed < 1.0
