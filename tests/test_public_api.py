"""Every exported name has a user besides the tests of its own module."""

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
