"""Source-level checks on the package."""

import ast
from pathlib import Path

import wproj

PACKAGE = Path(wproj.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


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


def test_only_python_sources():
    # a second kernel (.pyx, generated .c, built .so) comes back only through a
    # reviewed change with its own tests, never as a stray file
    others = [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".py"
    ]
    assert others == []
