import doctest
from pathlib import Path

import pytest

import wproj.classify
import wproj.cohom
import wproj.numth
import wproj.strata
import wproj.weights


@pytest.mark.parametrize(
    "module",
    [wproj.numth, wproj.weights, wproj.cohom, wproj.strata, wproj.classify],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_examples():
    result = doctest.testfile(str(Path(__file__).parent.parent / "README.md"), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0
