"""The scale instances: larger groups and ambients than the shipped
problems, pinned to their recorded stdout and exit code.

They cover |G| = 6, 8 and 16, regular ambients of 18 and 48 variables
and original ambients of 8 and 16, so the group calculus read off the
generators (the table, the twists, the cocycles) goes two or three
Cayley-tree edges deep; and a lift a hundred orders deep whose
certificate divides a nonzero residual at every order.  The problem texts are written here and put
into a temporary directory, so the shipped problem set is unchanged.
"""

from pathlib import Path

import pytest

from eqdeform.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

S3 = "gen r: x -> y, y -> z, z -> x\ngen s: x -> y, y -> x\n"
Z2_CUBE = "".join(
    f"gen {name}: " + ", ".join(f"{a} -> {b}, {b} -> {a}" for a, b in pairs) + "\n"
    for name, pairs in (("s", ("ab", "cd", "ef", "gh")),
                        ("t", ("ac", "bd", "eg", "fh")),
                        ("u", ("ae", "bf", "cg", "dh"))))
Z2_CUBE_PAIRS = "".join(f"gen {name}: {a} -> {b}, {b} -> {a}\n"
                        for name, (a, b) in zip("stu", ("ab", "cd", "ef")))
Z2_4 = "".join(
    f"gen g{i}: " + ", ".join(f"x{v} -> x{v ^ 1 << i}" for v in range(16)) + "\n"
    for i in range(4))

SCALE_PROBLEMS = {
    "s3_f3": "field F 3\nvars x y z\nideal: x + y + z\n" + S3,
    "s3_sym_f2": "field F 2\nvars x y z\nideal: x*y + y*z + z*x\n" + S3,
    "z2cube_free": "field F 2\nvars a b c d e f g h\nideal: a*b + c*d + e*f + g*h\n"
                   + Z2_CUBE,
    "z2cube": "field F 2\nvars a b c d e f\nideal: a*b + c*d + e*f\n" + Z2_CUBE_PAIRS,
    # klein_f2 with a first-order lift that needs a coboundary correction
    # at order 2 and has nonzero stage residuals at every order after it
    "klein_twist_f2": "field F 2\nvars a b c d\n"
                      "ideal: a*b + c*d + eps*a^2*b + eps*a*c*d + eps\n"
                      "gen s: a -> b, b -> a, c -> d, d -> c\n"
                      "gen t: a -> c, c -> a, b -> d, d -> b\n",
    "z2_4_free": "field F 2\nvars " + " ".join(f"x{v}" for v in range(16))
                 + "\nideal: " + " + ".join(f"x{2 * k}*x{2 * k + 1}" for k in range(8))
                 + "\n" + Z2_4,
}

# (command, problem, further arguments, golden stdout, exit code)
SCALE_CASES = [
    ("obstruction", "s3_f3", ["--truncate", "2"], "scale_obstruction_s3_f3_t2.txt", 0),
    ("tangent", "s3_sym_f2", [], "scale_tangent_s3_sym_f2.txt", 0),
    ("tangent", "z2cube_free", ["--truncate", "2"], "scale_tangent_z2cube_free_t2.txt", 0),
    ("obstruction", "z2cube_free", ["--truncate", "2"],
     "scale_obstruction_z2cube_free_t2.txt", 2),
    ("obstruction", "z2_4_free", ["--truncate", "2"],
     "scale_obstruction_z2_4_free_t2.txt", 2),
    ("obstruction", "z2_4_free", ["--truncate", "3"],
     "scale_obstruction_z2_4_free_t3.txt", 2),
    ("lift", "s3_sym_f2", ["--order", "3"], "scale_lift_s3_sym_f2_o3.txt", 0),
    ("lift", "z2cube_free", ["--order", "4"], "scale_lift_z2cube_free_o4.txt", 0),
    ("tangent", "z2cube", ["--truncate", "1"], "scale_tangent_z2cube_t1.txt", 0),
    ("lift", "klein_twist_f2", ["--order", "100", "--truncate", "2"],
     "scale_lift_klein_twist_f2_o100_t2.txt", 0),
]


@pytest.mark.parametrize("command,name,extra,golden,code", SCALE_CASES,
                         ids=[g[len("scale_"):-len(".txt")] for *_, g, _ in SCALE_CASES])
def test_scale_instances_match_their_goldens(tmp_path, capsys, command, name, extra,
                                             golden, code):
    path = tmp_path / f"{name}.prob"
    path.write_text(SCALE_PROBLEMS[name], encoding="utf-8")
    assert main([command, str(path), *extra]) == code
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")
