"""The benchmark's own tests.

    python3 -m pytest bench/test_bench.py

They check the expected outputs the benchmark compares against, using
sources independent of eqdeform where one exists; that tracing
changes no output and that every wrapper is reached; and that the
command prints exactly the metrics BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from eqdeform.poly import partial  # noqa: E402
from eqdeform.problem import parse_problem  # noqa: E402
from oracles import module_quotient_slice_dim  # noqa: E402

# Workloads on which each layer's metrics should move (the layer's main
# effect); every traced function of the layer must be called there.
MAIN_EFFECT = {
    "linalg": ("wild_fp", "tame_q"),
    "cohomology": ("wild_fp",),
    "ambient": ("wild_fp", "tame_q"),
    "deform": ("lift_deep",),
    "poly": ("lift_deep",),
    "gaction": ("lift_deep",),
    "problem": tuple(WORKLOADS),
    "cli": tuple(WORKLOADS),
    "ramify": ("tame_q",),
}
# On tame_q, linalg works through rref and kernel_basis only: solve and
# SpanBuilder run under the slice and iso routes, which the tame commands
# never take (cohomology.slice_of_normal_module must stay at 0 there).
NOT_REACHED = {("linalg.solve", "tame_q"), ("linalg.SpanBuilder.add", "tame_q")}


def expected_text(op) -> str:
    return (ROOT / op.expected).read_text(encoding="utf-8")


def field_value(text: str, key: str) -> str:
    match = re.search(rf"^{re.escape(key)}: (.*)$", text, re.M)
    assert match, f"no {key!r} line"
    return match.group(1)


def own_ops(command: str):
    return [op for ops in WORKLOADS.values() for op in ops
            if op.command == command and op.expected.startswith("bench/")]


# --- expected outputs against independent sources -------------------------

def t1_oracle(path: str) -> int:
    """dim T1 = dim P/(f, df) of a hypersurface, by coefficient linear
    algebra on a degree window wide enough for the quotient to settle."""
    problem = parse_problem((ROOT / path).read_text(encoding="utf-8"))
    ring = problem.ring
    (f,) = [coeffs[0] for coeffs in problem.ideal]
    relations = [(partial(f, i),) for i in range(len(ring.variables))]
    return module_quotient_slice_dim(ring, 1, relations, [f], f.degree() + 4)


@pytest.mark.parametrize("op", [op for op in own_ops("tangent")
                                if "line_f2" not in op.name],
                         ids=lambda op: op.name)
def test_t1_dimension_matches_oracle(op):
    text = expected_text(op)
    assert int(field_value(text, "T1 dim")) == t1_oracle(op.argv[1])


def test_tame_obstruction_vanishes_exactly():
    (op,) = [op for op in own_ops("obstruction") if "cubic_q" in op.name]
    text = expected_text(op)
    assert field_value(text, "obstruction dim") == "0"
    assert field_value(text, "certified") == "exact"
    assert op.code == 0


def weight_count(d: int, m: int) -> int:
    """Basis elements t^i e*, 0 <= i < d, of weight i - (d + 1) = 0 mod m."""
    r = (d + 1) % m
    return 0 if r >= d else (d - 1 - r) // m + 1


@pytest.mark.parametrize("op", [op for ops in WORKLOADS.values() for op in ops
                                if op.command == "ramify"],
                         ids=lambda op: op.name)
def test_ramify_count_is_closed_form(op):
    d, m = int(op.argv[2]), int(op.argv[4])
    text = expected_text(op)
    assert int(field_value(text, "invariant dim")) == weight_count(d, m)
    assert int(field_value(text, "matrix cross-check")) == weight_count(d, m)


def test_cyc3_obstruction_dimension_is_one():
    (op,) = [op for op in own_ops("obstruction") if "cyc3_f3" in op.name]
    assert field_value(expected_text(op), "obstruction dim") == "1"
    assert op.code == 2


def test_shifted_cusp_lift_has_a_witness():
    (op,) = [op for op in own_ops("iso") if "cusp_lift_shift" in op.name]
    text = expected_text(op)
    assert field_value(text, "witness").startswith("(")
    assert field_value(text, "certified") == "exact"


# --- tracing ------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_main():
    return run.import_cli()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pass_matches_untraced_and_reaches_every_layer(workload, cli_main):
    runner = run.Runner(workload, seed=0, main=cli_main)
    tracer = tracing.Tracer()
    runner.run_pass()
    traced = runner.run_pass(tracer)
    # both passes matched the same expected bytes, so they are identical
    assert runner.failures == []
    assert runner.attempted == 2 * len(WORKLOADS[workload])

    summary = tracing.SpanSummary()
    summary.add(tracer.spans)
    for module, qualname in tracing.TARGETS:
        name = f"{module}.{qualname}"
        if (workload in MAIN_EFFECT.get(module, ())
                and (name, workload) not in NOT_REACHED):
            assert summary.by_name.get(name, {}).get("calls", 0) > 0, name

    # each workload stresses the layers it was chosen for
    share = {layer: s / traced["wall"] for layer, s in summary.by_layer.items()}
    if workload == "wild_fp":
        assert share["linalg"] + share["cohomology"] > 0.5
    elif workload == "tame_q":
        assert summary.under.get("linalg", 0.0) / traced["wall"] > 0.5
        assert "cohomology.slice_of_normal_module" not in summary.by_name
    else:
        assert sum(share.get(layer, 0.0) for layer in
                   ("deform", "poly", "gaction", "groebner")) > 0.5
        assert share.get("linalg", 0.0) < 0.05


def test_tracer_uninstall_restores_every_name(cli_main):
    import eqdeform.cohomology
    import eqdeform.linalg

    before = (eqdeform.cohomology.solve, eqdeform.linalg.SpanBuilder.add)
    tracer = tracing.Tracer()
    tracer.install()
    assert eqdeform.cohomology.solve is not before[0]
    assert eqdeform.cohomology.solve is eqdeform.linalg.solve
    tracer.uninstall()
    assert (eqdeform.cohomology.solve, eqdeform.linalg.SpanBuilder.add) == before


# --- the command's contract ---------------------------------------------

def bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lift_deep",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_declared_metrics(trace, key):
    declared = {m["name"]: m["unit"] for m in bench_json()[key]}
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in bench_json()["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program():
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
