"""PEP 562 lazy re-exports for package ``__init__`` modules.

A package that re-exports names from its submodules would otherwise
import all of them (and numpy, through the simulator) the moment any
one submodule is touched.  With :func:`lazy_exports` the package
namespace stays empty until a name is asked for; the first access
imports the submodule that defines it and binds the name in the
package, so later lookups never come back here.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a module path to the names the package re-exports
    from it.  An unknown name raises :class:`AttributeError`, which is
    also what lets ``from package import submodule`` fall through to
    importing the submodule.
    """
    home = {name: module for module, names in exports.items()
            for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__
