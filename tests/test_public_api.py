"""Every exported name, and every public method, property or field of an
exported class, has a user besides the tests."""

import functools
import inspect
import math
import re
from pathlib import Path

import pytest

import ridgelaw
from ridgelaw._value import Value

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ridgelaw"
# where a public name may be used: the package's own modules, the README,
# and the acceptance criteria
USERS = sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "__init__.py") + [
    ROOT / "README.md",
    ROOT / "tests" / "test_acceptance.py",
]
LINES = [line for path in USERS for line in path.read_text().splitlines()]


@pytest.mark.parametrize("name", ridgelaw.__all__)
def test_exported_name_is_used_outside_its_definition(name):
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    users = [line for line in LINES if word.search(line) and not definition.match(line)]
    assert users, f"{name} is exported but only tests use it"


def _public_members():
    """(class, member) for each public method, property or field an exported class defines."""
    kinds = (property, functools.cached_property, classmethod, staticmethod)
    for name in ridgelaw.__all__:
        cls = getattr(ridgelaw, name)
        if inspect.isclass(cls):
            for attr, member in vars(cls).items():
                if not attr.startswith("_") and (inspect.isfunction(member) or isinstance(member, kinds)):
                    yield name, attr
            if issubclass(cls, Value):
                for field in cls._fields:
                    if not field.startswith("_"):
                        yield name, field


@pytest.mark.parametrize("cls, attr", sorted(_public_members()))
def test_public_member_is_used_outside_its_definition(cls, attr):
    access = re.compile(rf"\.{re.escape(attr)}\b")
    assert any(access.search(line) for line in LINES), f"{cls}.{attr} is public but only tests use it"


def test_readme_library_sketch_runs(capsys):
    """The README's python block runs against the current API and prints a tiny r2."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    r2 = float(capsys.readouterr().out)
    assert math.isfinite(r2) and r2 < 1e-9, r2
