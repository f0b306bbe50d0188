"""The public surface: every exported name resolves.

A profiler that wraps a module's public functions looks each name in its
__all__ up with getattr, so a stale entry would break it before any work.
"""

import importlib
import pkgutil

import pytest

import magmon

MODULES = sorted(m.name for m in pkgutil.iter_modules(magmon.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"magmon.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_all_resolves():
    assert [n for n in magmon.__all__ if not hasattr(magmon, n)] == []
