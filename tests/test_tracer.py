"""The benchmark tracer's targets, checked in the tier-1 suite.

``bench/tracer.py`` wraps eqdeform callables by name, so deleting or
renaming one breaks every traced benchmark run, and one that the CLI
stops calling reads 0 in the benchmark's layer metrics.  It is loaded
here the way ``tests/test_workloads.py`` loads ``bench/workloads.py``."""

import importlib
import runpy
import sys
from pathlib import Path

from eqdeform.cli import main  # imports every module the tracer patches

ROOT = Path(__file__).resolve().parent.parent
TRACER = runpy.run_path(str(ROOT / "bench" / "tracer.py"))
WORKLOADS = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["WORKLOADS"]


def _resolve(module: str, qualname: str):
    obj = importlib.import_module("eqdeform." + module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _names() -> dict:
    """Every name the tracer may patch: module globals and the traced
    methods and constructors on their classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "eqdeform" or name.startswith("eqdeform."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
    for module, qualname in TRACER["TARGETS"]:
        owner_name, _, attr = qualname.rpartition(".")
        if not owner_name:
            owner, attr = _resolve(module, qualname), "__init__"
            if not isinstance(owner, type):
                continue
        else:
            owner = _resolve(module, owner_name)
        out[(owner, attr)] = owner.__dict__[attr]
    return out


def test_every_target_is_an_eqdeform_callable():
    for module, qualname in TRACER["TARGETS"]:
        assert callable(_resolve(module, qualname)), f"{module}.{qualname}"


def test_install_and_uninstall_restore_every_name():
    before = _names()
    tracer = TRACER["Tracer"]()
    tracer.install()
    try:
        during = _names()
        changed = {key for key, value in before.items() if during[key] is not value}
        assert ("eqdeform.ambient", "derivations") in changed
        assert ("eqdeform.cli", "derivations") in changed
    finally:
        tracer.uninstall()
    after = _names()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _missed_targets(workload: str, *modules: str) -> list:
    """The traced targets in ``modules`` that the workload's operations,
    run from the repository root with their exit codes checked, never
    call; the caller chdirs there and empties the captured output."""
    tracer = TRACER["Tracer"]()
    tracer.install()
    try:
        for op in WORKLOADS[workload]:
            assert main(list(op.argv)) == op.code, op.name
    finally:
        tracer.uninstall()
    called = {span[0] for span in tracer.spans}
    return [f"{mod}.{qualname}" for mod, qualname in TRACER["TARGETS"]
            if mod in modules and f"{mod}.{qualname}" not in called]


def test_lift_deep_reaches_every_deform_target(monkeypatch, capsys):
    """The lift_deep operations call every traced ``deform`` function, so
    the CLI path still runs the certificates (``verify_deformation``,
    ``certify_equivariance``)."""
    monkeypatch.chdir(ROOT)
    assert _missed_targets("lift_deep", "deform") == []
    capsys.readouterr()


def test_wild_fp_reaches_every_cohomology_target(monkeypatch, capsys):
    """The wild_fp operations call every traced ``cohomology`` function,
    so the CLI path still builds G-module slices and runs H^0, Z^1, H^1
    and the coboundary solve on them."""
    monkeypatch.chdir(ROOT)
    assert _missed_targets("wild_fp", "cohomology") == []
    capsys.readouterr()


def test_wild_fp_reaches_every_ambient_target(monkeypatch, capsys):
    """The wild_fp operations call every traced ``ambient`` and
    ``gaction`` function, ``GroupAction.apply`` included, so the slices
    still act through ``NormalModule.act`` and its bench counters stay
    live."""
    monkeypatch.chdir(ROOT)
    assert _missed_targets("wild_fp", "ambient", "gaction") == []
    capsys.readouterr()
