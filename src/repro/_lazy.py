"""Lazy package surface (PEP 562): a package ``__init__`` is a table.

Every package ``__init__.py`` under :mod:`repro` is a docstring plus::

    __getattr__, __dir__, __all__ = lazy(__name__, {"Name": "repro.pkg.module", ...})

so importing a package (which importing any of its modules does first)
loads nothing, and a public name's defining module loads on first use.
A resolved name is cached in the package namespace, so ``__getattr__``
runs once per name. This module imports nothing from :mod:`repro`.
"""

import sys
from importlib import import_module
from types import ModuleType
from typing import Any, Callable, Dict, List, Sequence, Tuple


class _Package(ModuleType):
    """A table name stays the object even when a submodule shares it.

    The import system binds every loaded submodule on its parent, which
    would turn ``experiments.replicate`` (the function, as the eager
    ``from .replicate import replicate`` made it) into the module for
    whoever imported ``repro.experiments.replicate`` first. That bind is
    dropped, so the name still resolves through ``__getattr__``.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if not (isinstance(value, ModuleType) and name in self.__lazy__):
            super().__setattr__(name, value)


def lazy(
    package: str, table: Dict[str, str], submodules: Sequence[str] = ()
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps each public name to the module that defines it;
    ``submodules`` are public names that are the submodule itself
    (``repro.verify.explore`` is the model-checker package, not the
    function of the same name inside it).
    """
    module = sys.modules[package]
    namespace = module.__dict__
    namespace["__lazy__"] = table
    module.__class__ = _Package
    public = [*table, *submodules]

    def __getattr__(name: str) -> Any:
        if name in table:
            value = getattr(import_module(table[name]), name)
        elif name in submodules:
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *public})

    return __getattr__, __dir__, public
