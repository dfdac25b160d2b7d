"""Lazy package namespaces (PEP 562): a submodule loads on first use.

A package declares which names each submodule exports and binds what
:func:`lazy_exports` returns::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "engine": ("Simulator", "Event"),
        "units": ("units",),          # a name equal to its key: the submodule
    })

so ``import repro`` costs nothing beyond its own ``__init__`` files, and
``from repro.analysis import table1`` loads only the modules ``table1``
needs.  The first access imports the owning submodule and caches the
value in the package's globals, so later lookups never reach here.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``'s namespace."""
    owner = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        loaded = importlib.import_module(f"{package}.{module}")
        value = loaded if name == module else getattr(loaded, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owner.keys())

    return list(owner), __getattr__, __dir__
