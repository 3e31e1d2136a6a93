"""The public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import pstrata

MODULES = ["pstrata"] + [f"pstrata.{m.name}" for m in pkgutil.iter_modules(pstrata.__path__)
                         if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_padic_exports_its_normal_forms():
    from pstrata import padic

    assert {"hermite_rows", "hermite_insert", "smith_rows"} <= set(padic.__all__)
