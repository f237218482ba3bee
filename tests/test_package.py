"""Guards on the package as a whole: no empty modules, no exception
class without a raiser, no console script that does not import."""

import ast
import importlib
import inspect
import pkgutil
import tomllib
from pathlib import Path

import pytest

import tubeharm
from tubeharm import errors

PACKAGE_DIR = Path(tubeharm.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _modules():
    return [info.name for info in pkgutil.iter_modules([str(PACKAGE_DIR)])]


@pytest.mark.parametrize("name", _modules())
def test_module_nonempty(name):
    assert (PACKAGE_DIR / f"{name}.py").read_text().strip(), f"{name}.py is empty"


def _raised_names():
    names = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    raised = _raised_names()
    classes = [
        name for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.TubeharmError) and cls is not errors.TubeharmError
    ]
    assert classes
    assert [name for name in classes if name not in raised] == []


def test_console_scripts_import():
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
