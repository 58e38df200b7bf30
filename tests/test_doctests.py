"""Doctests embedded in the library modules, and the package's public names."""
import doctest

import pytest

import toruscert
import toruscert.fatgraph
import toruscert.homology
import toruscert.perms


@pytest.mark.parametrize(
    "module",
    [toruscert.fatgraph, toruscert.homology, toruscert.perms],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_public_names_resolve():
    # a stale export breaks only ``from toruscert import *``
    missing = [name for name in toruscert.__all__ if not hasattr(toruscert, name)]
    assert missing == []
