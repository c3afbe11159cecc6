"""No check in the package lives in an ``assert``: ``python -O`` strips them,
so a certifying check there would silently stop running."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dp1"


def assert_statements(tree: ast.AST) -> list:
    """The line of each ``assert`` statement in the tree."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_has_no_assert(path):
    assert assert_statements(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []


def test_guard_sees_every_assert():
    src = (
        "assert x\n"
        "def f(y):\n"
        "    if y:\n"
        "        assert y > 0, 'positive'\n"
        "    return [z for z in y]\n"
        "class C:\n"
        "    def g(self):\n"
        "        assert (self, 'tuple')\n"
        "raise AssertionError('not an assert statement')\n"
        "assertion = 'assert in a string'\n"
    )
    assert assert_statements(ast.parse(src)) == [1, 4, 8]
