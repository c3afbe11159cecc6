"""Every module-level function and class of the package, and every method
of its classes but the dunder ones, is used by the package: code that only
the tests call belongs in the tests, as a reference.

The check is by name: a definition counts as used when its name appears, as a
name or an attribute, anywhere in ``src/dp1`` outside its own definition.  A
recursive call is no use, and an import alone is none either.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dp1"

# Definitions kept although the package does not call them:
# - cubic.tangent_point, which the benchmark's tracer wraps by name.
ALLOWED = {"cubic.tangent_point"}


def names_used(node: ast.AST) -> Counter:
    """How often each name appears in the tree, as a name or an attribute."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module):
    """("name" or "Class.method", node) for each module-level function or
    class of the tree and each method of its classes not named __…__."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, FUNCTIONS) and not sub.name.startswith("__"):
                    yield f"{node.name}.{sub.name}", sub


def unused_definitions(trees: dict) -> list:
    """"module.name" for each definition of the trees (module name to parsed
    source) whose name appears in none of them outside its own definition."""
    total = sum((names_used(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            if (total - names_used(node))[node.name] == 0:
                unused.append(f"{module}.{qualname}")
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
        "class Used:\n"
        "    def __init__(self):\n"
        "        self.called()\n"
        "    def called(self):\n"
        "        pass\n"
        "    def unused(self):\n"
        "        return self.unused()\n"
        "    @property\n"
        "    def read(self):\n"
        "        return Used().read\n"
        "async def coroutine():\n"
        "    pass\n"
        "def imported_only():\n"
        "    pass\n"
    )
    second = (
        "from .first import imported_only, used\n"
        "import first\n"
        "VALUE = used(first.Attr), first.Used()\n"
        "class Attr:\n"
        "    pass\n"
        "def note():\n"
        "    'used in a string'\n"
    )
    trees = {"first": ast.parse(first), "second": ast.parse(second)}
    assert unused_definitions(trees) == [
        "first.Unused", "first.Unused.method", "first.Used.read", "first.Used.unused",
        "first.coroutine", "first.imported_only", "first.recursive", "second.note",
    ]
