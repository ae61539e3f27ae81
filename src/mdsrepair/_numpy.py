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
