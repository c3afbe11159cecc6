"""dp1 computes in integers and Fraction only; no floating point in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dp1"
FLOAT_MATH = {"sqrt", "log", "exp"}


def float_uses(tree: ast.AST) -> list:
    """(line, what) for each float or complex literal, each use of the name
    ``float`` and each ``math.sqrt``, ``math.log`` or ``math.exp``.

    This reads the syntax only: it cannot see a float made by dividing two
    ints with ``/``, which is why exact code divides Fractions or uses ``//``.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names if a.name in FLOAT_MATH]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_has_no_floating_point(path):
    assert float_uses(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []


def test_guard_sees_each_kind_of_float():
    src = "x = 0.5\ny = float(x)\nz = math.sqrt(2)\nfrom math import log\nw = 2j\nv = 7 // 2\n"
    assert sorted(float_uses(ast.parse(src))) == [
        (1, "literal 0.5"), (2, "float"), (3, "math.sqrt"), (4, "math.log"), (5, "literal 2j")]
