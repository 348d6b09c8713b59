"""Source-level checks on the package."""

import ast
from pathlib import Path

import wproj

MODULES = sorted(Path(wproj.__file__).parent.glob("*.py"))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"weights.py", "cohom.py", "classify.py", "strata.py"}


def test_no_assert_statements():
    # `python -O` strips assert statements, so runtime checks must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
