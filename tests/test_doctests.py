"""Run the docstring examples of every polydepth module."""

import doctest
import importlib
import pkgutil

import pytest

import polydepth

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(polydepth.__path__, "polydepth.")
)


@pytest.mark.parametrize("name", ["polydepth", *MODULES])
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
