"""Imports of the package: every third-party one is a declared dependency,
and no module reaches into another's private names."""

import ast
import pathlib
import re
import sys
import warnings

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def test_every_third_party_import_of_the_package_is_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {_normalized(re.match(r"[A-Za-z0-9_.-]+", dep).group())
                for dep in project["dependencies"]}
    imported = set()
    for path in (ROOT / "src" / "latticelab").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = {name for name in imported
                   if name not in sys.stdlib_module_names and name != "latticelab"}
    assert third_party >= {"numpy", "orjson"}
    assert {_normalized(name) for name in third_party} <= declared


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_a_private_name_of_another():
    """A name with a leading underscore belongs to its module: no latticelab
    module imports one from another (``from .serialize import _int``) or
    reads one off another (``serialize._ints``)."""
    package = ROOT / "src" / "latticelab"
    modules = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()  # the names this module binds to a latticelab module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level == 1 or (node.module or "").split(".")[0] == "latticelab"):
                for alias in node.names:
                    if node.module in (None, "latticelab") and alias.name in modules:
                        bound.add(alias.asname or alias.name)
                    elif _private(alias.name):
                        found.append(f"{path.name}:{node.lineno} imports {alias.name}")
            elif isinstance(node, ast.Import):
                bound.update(alias.asname for alias in node.names
                             if alias.asname and alias.name.startswith("latticelab."))
        found += [f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in bound and _private(node.attr)]
    assert found == []


def test_a_deprecation_raised_from_the_package_fails_its_test():
    """pyproject's filterwarnings makes a DeprecationWarning attributed to a
    latticelab module an error."""
    with pytest.raises(DeprecationWarning, match="an old route"):
        warnings.warn_explicit("an old route", DeprecationWarning, "metric.py", 1,
                               module="latticelab.metric")
    filters = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))[
        "tool"]["pytest"]["ini_options"]["filterwarnings"]
    assert "error::DeprecationWarning:latticelab" in filters
