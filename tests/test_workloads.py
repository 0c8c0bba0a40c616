"""The benchmark's own expected outputs, checked in the tier-1 suite.

``bench/workloads.py`` lists the benchmark's CLI operations.  Those whose
expected stdout lives under ``bench/expected/`` are not golden tests, so
without this module only a benchmark run would see them change.  Each is
run once through ``eqdeform.cli.main`` from the repository root, and its
stdout bytes and exit code are compared, as ``bench/run.py`` does."""

import runpy
from pathlib import Path

import pytest

from eqdeform.cli import main

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["WORKLOADS"]
OPS = [op for ops in WORKLOADS.values() for op in ops
       if op.expected.startswith("bench/expected/")]


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_bench_expected_outputs(op, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = main(list(op.argv))
    out = capsys.readouterr().out
    assert code == op.code
    assert out.encode("utf-8") == (ROOT / op.expected).read_bytes()
