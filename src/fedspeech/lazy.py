"""Modules whose code runs on first use.

Only the federated commands (``fl-plan``, ``fl-sim``, ``validate``) compute
on arrays, so the modules they share with the cost-model queries import
numpy as ``from .lazy import np``: ``analyze``, ``memory``, ``predict-time``
and ``forecast`` never run numpy's import.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def lazy_import(name: str) -> ModuleType:
    """The module ``name``, whose code runs on its first attribute access
    (the ``importlib.util.LazyLoader`` recipe). A module already imported is
    returned as it is; one that is not installed raises ``ImportError`` here."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = lazy_import("numpy")
