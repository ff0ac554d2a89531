"""Only `linalg` multiplies integer rows: every other sblq module calls
`linalg._dots` for the product and `linalg._meet` for the span meet, so a
faster integer product has one place to go in."""

import ast
from pathlib import Path

import sblq

PACKAGE = Path(sblq.__file__).parent


def _uses_of_mul(source):
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            found += [f"from operator import {a.name}" for a in node.names if a.name == "mul"]
        elif (isinstance(node, ast.Attribute) and node.attr == "mul"
              and isinstance(node.value, ast.Name) and node.value.id == "operator"):
            found.append("operator.mul")
    if "sum(map(mul" in source:
        found.append("sum(map(mul")
    return found


def test_only_linalg_multiplies_integer_rows():
    uses = {path.name: _uses_of_mul(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert uses.pop("linalg.py") == ["from operator import mul", "sum(map(mul"]
    assert {name: found for name, found in uses.items() if found} == {}


def test_the_guard_sees_each_form():
    assert _uses_of_mul("import operator\nx = operator.mul(2, 3)\n") == ["operator.mul"]
    assert _uses_of_mul("from operator import add, mul as m\n") == [
        "from operator import mul"]
    assert _uses_of_mul("y = sum(map(mul, a, b))\n") == ["sum(map(mul"]
    assert _uses_of_mul("from operator import add\ny = sum(map(add, a, b))\n") == []
