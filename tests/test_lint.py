"""Source-level checks on the package."""

import ast
import os
import subprocess
import sys
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


# a census whose stand-in kernel moves (2, 2) to another homotopy class, splitting (1, 1)'s class
SPLIT_CLASS = """
import sys
from wproj import _kernels_py, classify
pair = _kernels_py.canonical_pair
_kernels_py.canonical_pair = lambda v: (pair(v)[0], (1, 2)) if v == (2, 2) else pair(v)
try:
    classify.census(1, 3)
except AssertionError as exc:
    print(sys.flags.optimize, exc)
"""


def test_same_results_under_python_O():
    # -O strips assert statements, so every check must survive it as an explicit raise
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONOPTIMIZE", "WPROJ_CENSUS_LIMIT")}
    env["PYTHONPATH"] = str(PACKAGE.parent)

    def run(*args):
        result = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
        return result.returncode, result.stdout, result.stderr

    codes = []
    for argv in (
        ["compare", "1,2,3,4", "1,1,2,12"],
        ["invariants", "8,12,18,30"],
        ["lens", "2", "1,1,2"],
        ["census", "--dim", "2", "--max-weight", "6"],
        ["normalize", "0"],
        ["census", "--dim", "3", "--max-weight", "500"],
    ):
        optimized = run("-O", "-m", "wproj", *argv)
        assert optimized == run("-m", "wproj", *argv)
        codes.append(optimized[0])
    assert codes == [0, 0, 0, 0, 2, 3]
    assert run("-O", "-c", SPLIT_CLASS) == (0, "1 homeomorphism class (1, 1) split across homotopy classes\n", "")
