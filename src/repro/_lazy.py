"""Lazy package exports: a package's public names load on first use.

An ``__init__`` that imported its submodules eagerly would make every
``import repro.<package>.<module>`` pay for the whole package (numpy,
the decoder, the simulator), however little the caller needs.  The
``jpeg2000``, ``design``, ``casestudy`` and ``kernel`` packages instead
declare ``{name: module}`` and install the PEP 562 hooks this returns::

    __getattr__, __dir__ = lazy_exports(__name__, {"Event": ".event"})

``from repro.kernel import Event`` then imports ``repro.kernel.event``
on first use and caches the value on the package.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict):
    """``(__getattr__, __dir__)`` for *package*, whose *exports* map each
    public name to the module defining it (relative to *package*)."""

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
