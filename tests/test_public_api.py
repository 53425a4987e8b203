"""Every module's declared public surface exists, and the package's matches it.

Tools that wrap the public functions look each name in ``__all__`` up with
``getattr``, so a name left behind by a deletion breaks them at run time,
and a name the package re-exports but its module leaves out of ``__all__``
goes unwrapped.
"""

import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest

import catalan_stanley
from catalan_stanley import errors

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


def _reexports():
    return sorted(
        name
        for name, obj in vars(catalan_stanley).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    )


def test_reexports_found():
    assert "sample_trees" in _reexports()


@pytest.mark.parametrize("name", _reexports())
def test_reexport_in_defining_module_all(name):
    module = importlib.import_module(getattr(catalan_stanley, name).__module__)
    assert name in getattr(module, "__all__", ())


def test_library_does_not_import_mpmath():
    # mpmath is a test oracle only; its process-wide precision must not be
    # a dependency of any module.  A fresh interpreter keeps this test's
    # own imports out of sys.modules.
    imports = "; ".join(f"import {name}" for name in ["catalan_stanley", *MODULES])
    package_root = os.path.dirname(os.path.dirname(catalan_stanley.__file__))
    env = {**os.environ, "PYTHONPATH": package_root}
    result = subprocess.run(
        [sys.executable, "-c", f"{imports}; import sys; print('mpmath' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout == "False\n"


@pytest.mark.parametrize("name", errors.__all__)
def test_errors_pickle_whole(name):
    # an error raised in a worker process reaches the caller through pickle
    cls = getattr(errors, name)
    error = cls("bad", 3) if cls is errors.TreeParseError else cls("bad")
    copy = pickle.loads(pickle.dumps(error))
    assert (type(copy), str(copy), copy.args) == (cls, str(error), error.args)
    if cls is errors.TreeParseError:
        assert (str(copy), copy.offset) == ("bad (offset 3)", 3)
