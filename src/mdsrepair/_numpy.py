"""NumPy, imported for the array routes only, on first use.

Parsing, the element arithmetic, ``verify_mds``, the scalar element rank
for p = 2 and clique repair run on ints and lists, so ``list-codes``,
``verify``, ``report``, ``clique`` and ``selftest`` on GF(2^m) codes never
need NumPy, whose import costs more than the rest of the command.  Search,
the batch scoring, the explicit-matrix route and the odd-p rank tables do.

``np`` is this package's one handle on NumPy.  It is the loaded module when
something imported NumPy already; otherwise it is a lazy module
(``importlib.util.LazyLoader``) that executes NumPy on its first attribute
access and becomes a plain module after that, so array code keeps its
module-level ``np`` at no cost per call.  Nothing may read an attribute of
``np`` at import time.

The array tables are lazy only so that NumPy stays unloaded, and ``table``
builds every one of them; ``freeze`` makes arrays read-only.
"""

import importlib.util
import sys


def _lazy_import(name: str):
    """``sys.modules[name]``, installed as a lazy module when not loaded."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")


def freeze(value, copy: bool = False):
    """``value`` with each NumPy array in it, or in a tuple of it, read-only:
    marked in place, or with ``copy`` copied first unless read-only already."""
    if isinstance(value, tuple):
        return tuple(freeze(item, copy) for item in value)
    if getattr(getattr(value, "flags", None), "writeable", False):
        value = value.copy() if copy else value
        value.setflags(write=False)
    return value


def table(build):
    """A property whose value ``build(self)`` computes on first read and
    ``freeze`` marks read-only, kept in the ``_tables`` dict that the
    instance's constructor creates.  Unlike ``functools.cached_property``,
    this adds no attribute to the instance, which on CPython 3.11 makes every
    later attribute read about 3x slower.  What ``build`` raises propagates.
    """
    name = build.__name__

    def get(self):
        try:
            return self._tables[name]
        except KeyError:
            value = self._tables[name] = freeze(build(self))
            return value

    return property(get, doc=build.__doc__)
