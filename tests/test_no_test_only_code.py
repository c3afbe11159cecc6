"""Every module-level function and class of the package, and every method
of its classes but the dunder ones, is used by the package: code that only
the tests call belongs in the tests, as a reference.

The first check is by name: a definition counts as used when its name
appears, as a name or an attribute, anywhere in ``src/dp1`` outside its own
definition.  A recursive call is no use, and an import alone is none either.
Nor is an attribute of an imported standard-library module: ``math.gcd`` does
not use ``poly.gcd``.

The second check is by trace, and also sees dunder methods and what operators
reach: the commands of ``tests/test_cli.py`` run under ``sys.settrace`` in a
fresh interpreter, and every function of the package, nested ones and dunders
included, must be entered, at import or by a command.  Class bodies and
module-level code are no functions.

A third check, by name again, finds no module of the package reading another
module's private name (``_name``): what one module uses of another is
public.  All three checks need only pytest.
"""

import ast
import json
import os
import subprocess
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
# Functions that no command of tests/test_cli.py enters: the two above and
# UniPoly.__mul__, a tracer target that goes with ROADMAP item 2 as well.
NOT_ENTERED = ALLOWED | {"poly.UniPoly.__mul__"}


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


def package_modules(tree: ast.Module, package: set) -> dict:
    """Name -> package module, for each name that an import of the tree binds
    to a module of the package: ``from . import m``, ``from dp1 import m``
    and ``import dp1.m as n``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.module and node.level == 1 \
                or isinstance(node, ast.ImportFrom) and node.module == "dp1":
            for alias in node.names:
                if alias.name in package:
                    bound[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module = alias.name.removeprefix("dp1.")
                if alias.asname and module in package:
                    bound[alias.asname] = module
    return bound


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(trees: dict) -> list:
    """"module: other._name" for each read of another package module's
    private name (one starting with a single underscore), as an attribute of
    a name bound to that module or through ``from .other import _name``."""
    found = []
    for module, tree in trees.items():
        bound = package_modules(tree, set(trees))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "dp1"
                                                     or (node.module or "").startswith("dp1.")):
                other = (node.module or "").removeprefix("dp1.")
                found += [f"{module}: {other}.{alias.name}"
                          for alias in node.names if is_private(alias.name)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in bound and is_private(node.attr)):
                found.append(f"{module}: {bound[node.value.id]}.{node.attr}")
    return sorted(found)


def test_package_reads_no_private_name_of_another_module():
    assert private_reads(package_trees()) == []


def test_guard_sees_every_private_read():
    first = (
        "import os\n"
        "def _helper():\n"
        "    return os._exit, _helper\n"
        "class Public:\n"
        "    def __init__(self):\n"
        "        self._own = __name__\n"
    )
    second = (
        "from . import first, third as t\n"
        "from .first import _helper, Public\n"
        "from dp1.third import _other\n"
        "import dp1.first as f\n"
        "import os\n"
        "VALUE = first._helper(), t._hidden, f._helper, first.Public, first.__name__\n"
        "OTHER = os._exit, Public()._own, first.Public._attr\n"
    )
    third = "from .first import Public\n"
    trees = {"first": ast.parse(first), "second": ast.parse(second), "third": ast.parse(third)}
    assert private_reads(trees) == [
        "second: first._helper", "second: first._helper", "second: first._helper",
        "second: third._hidden", "second: third._other",
    ]
    assert private_reads({"first": ast.parse(first), "third": ast.parse(third)}) == []


def tracer_targets() -> set:
    """"module.attribute" for each entry of TARGETS in perfbench/tracer.py,
    read with ast, so that the benchmark's own files stay as they are."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body if isinstance(node, ast.AnnAssign)
                   and isinstance(node.target, ast.Name) and node.target.id == "TARGETS")
    return {f"{entry.elts[1].value}.{entry.elts[2].value}" for entry in targets.elts}


def test_every_allowed_definition_is_a_tracer_target():
    assert ALLOWED <= tracer_targets()
    assert NOT_ENTERED <= tracer_targets()


def functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, first line, name) for each function and lambda of the
    tree, nested ones included; the first line is that of the first
    decorator, as in the function's code object."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (*FUNCTIONS, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            yield f"{prefix}{name}", first, name
            yield from functions(node, f"{prefix}{name}.")
        elif isinstance(node, ast.ClassDef):
            yield from functions(node, f"{prefix}{node.name}.")
        else:
            yield from functions(node, prefix)


def test_guard_sees_every_function():
    src = (
        "def plain():\n"
        "    def inner():\n"
        "        return [x for x in ()]\n"
        "    return inner\n"
        "class C:\n"
        "    VALUE = 1\n"
        "    @property\n"
        "    @staticmethod\n"
        "    def read():\n"
        "        pass\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "    class Inner:\n"
        "        async def run(self):\n"
        "            pass\n"
        "KEY = lambda v: v\n"
    )
    assert list(functions(ast.parse(src))) == [
        ("plain", 1, "plain"), ("plain.inner", 2, "inner"), ("C.read", 7, "read"),
        ("C.__eq__", 11, "__eq__"), ("C.Inner.run", 14, "run"), ("<lambda>", 16, "<lambda>"),
    ]


# Records the code object of every call from the start, dp1's imports
# included, runs pytest with the arguments after the first, and writes
# (file, first line, name) of each code object entered to the first.
TRACED_RUN = """
import json, sys
entered = set()
sys.settrace(lambda frame, event, arg: entered.add(frame.f_code))
import pytest
code = pytest.main(sys.argv[2:])
sys.settrace(None)
with open(sys.argv[1], "w") as fh:
    json.dump([(c.co_filename, c.co_firstlineno, c.co_name) for c in entered], fh)
sys.exit(code)
"""


def test_cli_tests_enter_every_function(tmp_path):
    out = tmp_path / "entered.json"
    argv = [sys.executable, "-c", TRACED_RUN, str(out), str(ROOT / "tests" / "test_cli.py"),
            "-q", "-p", "no:cacheprovider", "--noconftest"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    entered = {(os.path.realpath(f), line, name) for f, line, name in json.loads(out.read_text())}
    missed = [f"{path.stem}.{qualname}"
              for path in sorted(PACKAGE.glob("*.py"))
              for qualname, line, name in functions(ast.parse(path.read_text(encoding="utf-8")))
              if (os.path.realpath(path), line, name) not in entered]
    assert set(missed) == NOT_ENTERED
