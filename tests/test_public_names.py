"""Every name a covertsense module exports resolves.

A traced benchmark run looks up each name of each module's ``__all__``, so
a stale entry left behind when a function is removed would crash it.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import covertsense

MODULES = sorted(info.name for info in pkgutil.iter_modules(covertsense.__path__))


def test_every_submodule_is_listed():
    assert set(covertsense._SUBMODULES) <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"covertsense.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), exported
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, missing
