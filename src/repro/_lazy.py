"""Lazy package exports: a public name is imported on first use.

A package init lists which submodule defines each of its public names
and installs the pair of PEP 562 hooks :func:`lazy_exports` returns::

    __getattr__, __dir__ = lazy_exports(globals(), {
        ".client": ("ServeClient", "client_backend"),
        ".service": ("ResultService",),
    })

``import repro.serve`` then loads nothing but the init, and
``repro.serve.ServeClient`` or ``from repro.serve import ServeClient``
imports :mod:`repro.serve.client` the first time the name is asked for.
The value is cached in the package's globals, so later lookups are plain
attribute reads, and an attribute set on the package (a test's or a
tracer's patch) is what every later lookup sees until it is removed.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(namespace: dict, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` hooks of the package whose globals
    are ``namespace``; ``exports`` maps a relative submodule name to the
    public names it defines.

    An unknown name raises :class:`AttributeError`, so ``from package
    import submodule`` still falls back to importing the submodule.
    """
    package = namespace["__name__"]
    home = {name: module for module, names in exports.items()
            for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
