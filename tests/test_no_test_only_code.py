"""Every module-level function and class of the package, and every method
of its classes but the dunder ones, is used by the package: code that only
the tests call belongs in the tests, as a reference.

The check is by name: a definition counts as used when its name appears, as a
name or an attribute, anywhere in ``src/dp1`` outside its own definition.  A
recursive call is no use, and an import alone is none either.  Nor is an
attribute of an imported standard-library module: ``math.gcd`` does not use
``poly.gcd``.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dp1"

# Definitions kept although the package does not call them, each wrapped by
# name by the benchmark's tracer (perfbench/tracer.py):
# - cubic.tangent_point, which goes with ROADMAP item 7;
# - poly.gcd, which goes with ROADMAP item 2's benchmark change.
ALLOWED = {"cubic.tangent_point", "poly.gcd"}


def stdlib_modules(tree: ast.AST) -> set:
    """The names that ``import`` statements of the tree bind to modules of
    the standard library."""
    return {alias.asname or alias.name.partition(".")[0]
            for sub in ast.walk(tree) if isinstance(sub, ast.Import)
            for alias in sub.names if alias.name.partition(".")[0] in sys.stdlib_module_names}


def names_used(node: ast.AST, skipped: set) -> Counter:
    """How often each name appears in the tree, as a name or an attribute;
    an attribute of a name in ``skipped`` does not count."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            if not (isinstance(sub.value, ast.Name) and sub.value.id in skipped):
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
    skipped = {module: stdlib_modules(tree) for module, tree in trees.items()}
    total = sum((names_used(tree, skipped[module]) for module, tree in trees.items()), Counter())
    unused = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            if (total - names_used(node, skipped[module]))[node.name] == 0:
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
        "def getcwd():\n"
        "    pass\n"
        "def join():\n"
        "    pass\n"
    )
    second = (
        "from .first import imported_only, used\n"
        "import first\n"
        "import os, os.path as osp\n"
        "VALUE = used(first.Attr), first.Used(), os.getcwd(), osp.join()\n"
        "class Attr:\n"
        "    pass\n"
        "def note():\n"
        "    'used in a string'\n"
    )
    trees = {"first": ast.parse(first), "second": ast.parse(second)}
    assert unused_definitions(trees) == [
        "first.Unused", "first.Unused.method", "first.Used.read", "first.Used.unused",
        "first.coroutine", "first.getcwd", "first.imported_only", "first.join",
        "first.recursive", "second.note",
    ]


def test_every_allowed_definition_is_a_tracer_target():
    # read with ast, so that the benchmark's own files stay as they are
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body if isinstance(node, ast.AnnAssign)
                   and isinstance(node.target, ast.Name) and node.target.id == "TARGETS")
    assert ALLOWED <= {entry.elts[0].value for entry in targets.elts}
