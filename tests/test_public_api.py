"""Every exported name, and every public method, property or dataclass field
of an exported class, has a user besides the tests."""

import dataclasses
import functools
import inspect
import re
from pathlib import Path

import pytest

import ridgelaw

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
    """(class, member) for each public method, property or dataclass field an exported class defines."""
    kinds = (property, functools.cached_property, classmethod, staticmethod)
    for name in ridgelaw.__all__:
        cls = getattr(ridgelaw, name)
        if inspect.isclass(cls):
            for attr, member in vars(cls).items():
                if not attr.startswith("_") and (inspect.isfunction(member) or isinstance(member, kinds)):
                    yield name, attr
            if dataclasses.is_dataclass(cls):
                for field in dataclasses.fields(cls):
                    if not field.name.startswith("_"):
                        yield name, field.name


@pytest.mark.parametrize("cls, attr", sorted(_public_members()))
def test_public_member_is_used_outside_its_definition(cls, attr):
    access = re.compile(rf"\.{re.escape(attr)}\b")
    assert any(access.search(line) for line in LINES), f"{cls}.{attr} is public but only tests use it"
