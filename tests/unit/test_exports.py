"""Every package's public names resolve.

The ``jpeg2000``, ``design``, ``casestudy`` and ``kernel`` packages
resolve their exports on first use (``repro._lazy``), so a stale entry in
an export table would otherwise fail only when something first uses it.
"""

import importlib
import pkgutil

import pytest

import repro


def _packages():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            names.append(info.name)
    return names


@pytest.mark.parametrize("package", _packages())
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    listed = set(dir(module))
    for name in exported:
        assert getattr(module, name) is not None, f"{package}.{name}"
        assert name in listed, f"{package}.{name} missing from dir()"
