"""Lazy package exports (PEP 562): a package names what it exports, a process
loads what it touches.

Each ``__init__.py`` of :mod:`repro` hands :func:`lazy_exports` one table,
``{"submodule": ("Name", ...)}``, in place of a ``from .submodule import ...``
block and a hand-kept ``__all__``.  Nothing is imported until a name is first
read; the submodule is then imported and the value stored in the package
namespace (so ``__getattr__`` is not asked twice), and
``from pkg import Name``, ``from pkg import *`` and ``dir(pkg)`` behave as if
the package had imported everything.  An empty tuple exports the submodule
itself (``repro.core``).

What this costs: a name missing from a table is an ``AttributeError`` at first
use, not an ``ImportError`` when the package loads —
``tests/integration/test_import_graph.py`` resolves every exported name.
"""

import sys


def load(name):
    """Import and return the module ``name``.

    Through ``__import__``, the ``import`` statement's own path: ``python -X
    importtime`` lists these loads, and does not list ``importlib.import_module``'s.
    """
    __import__(name)
    return sys.modules[name]


def lazy_exports(package, table):
    """``(__getattr__, __dir__, __all__)`` for the package named ``package``."""
    home = {name: sub for sub, names in table.items() for name in names or (sub,)}
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        sub = home.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = load(f"{package}.{sub}")
        value = namespace[name] = module if name == sub else getattr(module, name)
        return value

    def __dir__():
        return sorted(namespace.keys() | home)

    return __getattr__, __dir__, list(home)
