"""Every function, method and class in ``src/eqdeform`` has a reader in
the library or the bench harness.

A routine that only tests call belongs in ``tests/oracles.py`` or in its
test, not in the library that every run compiles.  A name counts as read
when it occurs anywhere in ``src/eqdeform`` or ``bench/*.py`` other than
its own ``def``/``class`` line: as a ``Name``, as an attribute, as a part
of a dotted string constant, or as a qualified name in the ``TARGETS``
of ``bench/tracer.py`` (``("linalg", "rref")``,
``("cohomology", "GModuleSlice.express")``).  A one-word string such as
the JSON key ``"t1_dim"`` reads nothing.  A method or property is read
only as an attribute or in one of those strings: a local variable or
parameter of the same name does not read it.  Dunders are called by the
language, and a method overriding one of a class outside the package
(such as ``argparse.ArgumentParser.error``) by that class, so neither is
checked.

An instance attribute stored in ``src/eqdeform`` is read only when it is
loaded as an attribute in ``src/eqdeform`` or ``bench/*.py``, or named in
one of those strings: storing it again does not read it.
"""

import ast
import importlib
import re
from pathlib import Path

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")
ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "eqdeform").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

ALLOWED = {
    # the README's library example starts a lift from it
    "initial",
    # acceptance criterion 9 checks the module Groebner engine through it
    "module_kernel",
    # acceptance criterion 6 compares T1 through two ambients by it
    "t1_dim",
    # acceptance criterion 8 takes the tame local different from it
    "tame_different",
}


def _parse():
    return {path: ast.parse(path.read_text(), str(path)) for path in SOURCES + BENCH}


def _string_reads(trees):
    """The names that the dotted string constants and the ``TARGETS``
    qualified names of ``bench/tracer.py`` read."""
    tracer = trees[ROOT / "bench" / "tracer.py"]
    (targets,) = [node.value for node in tracer.body if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", "") == "TARGETS"]
    qualnames = {name for _, name in ast.literal_eval(targets)}
    return {part for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and (DOTTED.fullmatch(node.value) or node.value in qualnames)
            for part in node.value.split(".")}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _foreign_overrides(path, tree):
    """The method nodes of the module's classes that override a method of
    a base class defined outside the package."""
    module = importlib.import_module(f"eqdeform.{path.stem}")
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            foreign = {name for base in getattr(module, node.name).__mro__[1:]
                       if not base.__module__.startswith("eqdeform") for name in vars(base)}
            out.update(f for f in node.body
                       if isinstance(f, ast.FunctionDef) and f.name in foreign)
    return out


def _definitions(trees):
    """(name, where, is a method) for each checked definition."""
    out = []
    for path, tree in trees.items():
        if path not in SOURCES:
            continue
        foreign = _foreign_overrides(path, tree)
        methods = {f for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for f in node.body}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not _is_dunder(node.name) and node not in foreign):
                out.append((node.name, f"{path.relative_to(ROOT)}:{node.lineno}",
                            node in methods))
    return out


def _occurrences(trees):
    """(names read as a ``Name``, names read as an attribute or in a
    string)."""
    names, attributes = set(), _string_reads(trees)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def unread_definitions():
    """(name, where) for each definition whose name is read nowhere."""
    trees = _parse()
    names, attributes = _occurrences(trees)
    return sorted((name, where) for name, where, method in _definitions(trees)
                  if name not in attributes and (method or name not in names))


def unread_attributes():
    """(name, where) for each instance attribute stored in src/eqdeform
    and never loaded."""
    trees = _parse()
    loaded, stored = _string_reads(trees), {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
                elif path in SOURCES and not _is_dunder(node.attr):
                    stored.setdefault(node.attr, f"{path.relative_to(ROOT)}:{node.lineno}")
    return sorted((name, where) for name, where in stored.items() if name not in loaded)


def test_every_library_definition_has_a_reader():
    unread = [(name, where) for name, where in unread_definitions()
              if name not in ALLOWED]
    assert not unread, "defined in src/eqdeform, read nowhere in src/ or bench/: " \
        + ", ".join(f"{name} ({where})" for name, where in unread)


def test_the_allowlist_names_only_unread_definitions():
    unread = {name for name, _ in unread_definitions()}
    assert ALLOWED <= unread, f"no longer unread, drop from ALLOWED: {ALLOWED - unread}"


def test_every_stored_attribute_is_read():
    unread = unread_attributes()
    assert not unread, "stored in src/eqdeform, loaded nowhere in src/ or bench/: " \
        + ", ".join(f"{name} ({where})" for name, where in unread)
