"""Deferred module imports.

The package registers each of its compute modules through
:func:`lazy_import`, and those that compute with arrays bind numpy the
same way.  A command therefore compiles and executes only the modules
it touches: ``--version`` runs none of them, ``dicke n0`` runs ``dicke``
alone, and only commands that compute with arrays load numpy.  A
deferred module still sits in ``sys.modules`` from the start, so code
that looks it up there finds it; its first attribute access executes it.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def lazy_import(name: str) -> ModuleType:
    """The module ``name``, executed on its first attribute access.

    Follows the ``importlib.util.LazyLoader`` recipe of the importlib
    documentation; a module that is already imported is returned as is.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"no module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
