"""Package exports that import their module on first access (PEP 562).

A package ``__init__`` that imports every submodule makes each
``import repro.<package>.<module>`` pay for all of them, because Python
runs the package ``__init__`` first.  With :func:`lazy_exports` the
package names its exports instead, and an exported name imports its
module the first time it is read: ``from repro.ecc import
HammingSECDED``, ``repro.ecc.HammingSECDED``, ``__all__`` and ``dir()``
keep working.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each exported name to the submodule, relative to
    ``package``, that defines it.  A name is imported once, then kept
    in the package's namespace.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(f"{package}.{exports[name]}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
