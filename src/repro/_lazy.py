"""Package-root names resolved on first access (PEP 562).

A package's ``__init__`` lists the names it re-exports and the
submodule each comes from; nothing is imported until a name is read.
So ``import repro.engine.store`` loads the store, not the worker pool,
and a planning or warm-replay process never imports the simulator.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(namespace: dict, exports: Dict[str, Sequence[str]],
                 ) -> Tuple[List[str], Callable[[str], object],
                            Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package whose globals
    are ``namespace``.

    ``exports`` maps a module, named relative to the package as in a
    ``from .module import`` statement, to the names the package
    re-exports from it.  A name resolves on its first read and is then
    kept in the package's globals, so later reads are plain attribute
    lookups.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return sorted(origin), __getattr__, __dir__
