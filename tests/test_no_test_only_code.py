"""Every module-level function and class of the package is used by the
package: code that only the tests call belongs in the tests, as a reference.

The check is by name: a definition counts as used when its name appears, as a
name or an attribute, anywhere in ``src/dp1`` outside its own definition.  A
recursive call is no use, and an import alone is none either.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dp1"

# Definitions kept although the package does not call them:
# - cubic.theta, which the tests and scripts/worked_example.py call, until
#   ROADMAP item 7 moves it to the tests;
# - cubic.tangent_point, which the benchmark's tracer wraps by name.
ALLOWED = {"cubic.theta", "cubic.tangent_point"}


def names_used(node: ast.AST) -> Counter:
    """How often each name appears in the tree, as a name or an attribute."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def unused_definitions(trees: dict) -> list:
    """"module.name" for each module-level function or class of the trees
    (module name to parsed source) whose name appears in none of them outside
    its own definition."""
    total = sum((names_used(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if (total - names_used(node))[node.name] == 0:
                    unused.append(f"{module}.{node.name}")
    return sorted(unused)


def package_trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_package_has_no_test_only_code():
    assert set(unused_definitions(package_trees())) == ALLOWED


def test_guard_sees_every_unused_definition():
    first = (
        "import os\n"
        "def used(x):\n"
        "    return helper(x)\n"
        "def helper(x):\n"
        "    return x\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "class Unused:\n"
        "    def method(self):\n"
        "        return Unused()\n"
        "async def coroutine():\n"
        "    pass\n"
        "def imported_only():\n"
        "    pass\n"
    )
    second = (
        "from .first import imported_only, used\n"
        "import first\n"
        "VALUE = used(first.Attr)\n"
        "class Attr:\n"
        "    pass\n"
        "def note():\n"
        "    'used in a string'\n"
    )
    trees = {"first": ast.parse(first), "second": ast.parse(second)}
    assert unused_definitions(trees) == [
        "first.Unused", "first.coroutine", "first.imported_only", "first.recursive",
        "second.note",
    ]
