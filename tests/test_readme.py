"""The README's library example runs and agrees with the CLI goldens."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def _golden_fields(name):
    lines = (GOLDEN / name).read_text().splitlines()
    return dict(line.split(": ", 1) for line in lines if ": " in line)


def test_the_library_example_matches_the_cusp_goldens():
    (code,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    tangent = _golden_fields("tangent_cusp.txt")
    assert scope["t0_dim"] == int(tangent["T0 invariant slice dim (deg <= 6)"])
    report = scope["report"]
    assert report.t1.dimension == int(tangent["T1 dim"])
    assert report.t1_equivariant_dim == int(tangent["T1_G dim"])
    lift = _golden_fields("lift_cusp_enum.txt")
    (key,) = [k for k in lift if k.startswith("lift to order ")]
    d = scope["d"]
    assert d.order == int(key.removeprefix("lift to order "))
    assert repr(d.gens[0]) == lift[key]
