"""Every module's declared public surface exists.

Tools that wrap the public functions look each name in ``__all__`` up with
``getattr``, so a name left behind by a deletion breaks them at run time.
"""

import importlib
import pkgutil

import pytest

import catalan_stanley

MODULES = [
    info.name for info in pkgutil.iter_modules(catalan_stanley.__path__, "catalan_stanley.")
]


def test_modules_found():
    assert "catalan_stanley.stats" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
