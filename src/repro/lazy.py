"""Lazy package exports (PEP 562).

A package ``__init__`` that imports every submodule it re-exports makes
``import repro.<pkg>.<leaf>`` pay for the whole package: regenerating
the figures from a warm result cache would load the schemes, the window
file and the kernel only to read cached reports.  Instead each package
declares where its public names live and resolves a name on first
access::

    _exports = LazyExports(__name__, {
        "repro.core.costs": ("CostModel", "PAPER_TABLE2"),
        "repro.metrics.report": ("SCHEMA_VERSION as RUN_REPORT_VERSION",),
    })
    __all__ = ["CostModel", "PAPER_TABLE2", "RUN_REPORT_VERSION"]
    __getattr__ = _exports.resolve
    __dir__ = _exports.names

A resolved object is stored in the package namespace, so later lookups
are plain attribute reads and return the identical object.  Submodules
not yet imported are reachable as attributes too, as they were when the
package imported them eagerly.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Dict, List, Mapping, Sequence, Tuple


class LazyExports:
    """The public names of one package and the modules defining them.

    ``exports`` maps a defining module to its names, each written as in
    an import statement: ``"Name"``, or ``"attr as Name"`` to export
    ``attr`` under another name.
    """

    def __init__(self, package: str,
                 exports: Mapping[str, Sequence[str]]) -> None:
        self.package = package
        self._where: Dict[str, Tuple[str, str]] = {}
        for module, names in exports.items():
            for entry in names:
                attr, __, public = entry.partition(" as ")
                self._where[public or attr] = (module, attr)

    def resolve(self, name: str) -> Any:
        """The package's ``__getattr__``: import the defining module of
        ``name`` and cache the object in the package namespace."""
        if name in self._where:
            module, attr = self._where[name]
            value = getattr(import_module(module), attr)
        else:
            value = self._submodule(name)
        setattr(sys.modules[self.package], name, value)
        return value

    def _submodule(self, name: str) -> Any:
        fullname = "%s.%s" % (self.package, name)
        if not name.startswith("__"):
            try:
                return import_module(fullname)
            except ModuleNotFoundError as exc:
                if exc.name != fullname:
                    raise
        raise AttributeError("module %r has no attribute %r"
                             % (self.package, name))

    def names(self) -> List[str]:
        """The package's ``__dir__``: its defined names plus every
        export."""
        namespace = vars(sys.modules[self.package])
        return sorted(set(namespace) | set(self._where))
