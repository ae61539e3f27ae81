"""Bundled codes and repair schemes shipped as package data.

Three codes are included:

* ``rs53``  -- (5,3) Reed-Solomon over GF(2^4), normalized parity matrix,
  with the published 10-bit repair schemes for all three nodes;
* ``rs64``  -- (6,4) Reed-Solomon over GF(2^4), with the published 12-bit
  GF(2) schemes for nodes 1 and 4 (nodes 2 and 3 reach 12 bits by lifting
  their clique schemes);
* ``fb1410`` -- the (14,10) Reed-Solomon code over GF(2^8) deployed in
  HDFS-RAID, with the published random-search schemes for all ten nodes
  (mean 64.2 bits against the naive 80).
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from .codes import CodeSpec
from .errors import ParseError
from .repair import RepairScheme, scheme_from_json

BUNDLED_CODES = ("rs53", "rs64", "fb1410")

# published repair bandwidth (bits) of each bundled scheme
GOLDEN_TOTAL_BITS = {
    "rs53": {1: 10, 2: 10, 3: 10},
    "rs64": {1: 12, 4: 12},
    "fb1410": {1: 65, 2: 64, 3: 64, 4: 64, 5: 63,
               6: 64, 7: 64, 8: 65, 9: 65, 10: 64},
}


def _data():
    return resources.files("mdsrepair") / "data"


@lru_cache(maxsize=None)
def bundled_code(name: str) -> CodeSpec:
    if name not in BUNDLED_CODES:
        raise KeyError(f"unknown bundled code {name!r}; have {BUNDLED_CODES}")
    with (_data() / "codes" / f"{name}.json").open() as f:
        return CodeSpec.from_json(json.load(f))


def bundled_scheme(code_name: str, node: int) -> RepairScheme:
    path = _data() / "schemes" / code_name / f"node{node}.json"
    try:
        with path.open() as f:
            obj = json.load(f)
    except FileNotFoundError:
        raise KeyError(f"no bundled scheme for {code_name} node {node}")
    return scheme_from_json(obj, bundled_code(code_name))


def bundled_schemes(code_name: str) -> dict:
    """All bundled schemes for a code, keyed by failed node."""
    return {node: bundled_scheme(code_name, node)
            for node in sorted(GOLDEN_TOTAL_BITS[code_name])}


def bundled_scheme_dir(code_name: str) -> str:
    """Filesystem path of the bundled scheme directory (for the CLI)."""
    return str(_data() / "schemes" / code_name)


def load_code(name_or_path: str) -> CodeSpec:
    """Resolve a --code argument: a bundled name or a JSON file path."""
    if name_or_path in BUNDLED_CODES:
        return bundled_code(name_or_path)
    try:
        with open(name_or_path) as f:
            obj = json.load(f)
    except FileNotFoundError:
        raise ParseError(
            f"{name_or_path!r} is neither a bundled code {BUNDLED_CODES} "
            f"nor a readable file")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{name_or_path}: invalid JSON: {exc}")
    return CodeSpec.from_json(obj)


def load_scheme(path: str, code: CodeSpec | None = None) -> RepairScheme:
    """Load a scheme file; the code may be given explicitly, named by the
    file (bundled names only), or inlined in the file.

    A scheme's inline code or bundled code name must agree with the given
    code on (n, k, field, parity); names are compared only for a name that
    is not bundled.  A scheme without a "code" entry takes the given code.
    """
    try:
        with open(path) as f:
            obj = json.load(f)
    except FileNotFoundError:
        raise ParseError(f"scheme file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object")
    entry = obj.get("code")
    if isinstance(entry, dict):
        own = CodeSpec.from_json(entry)
    elif entry in BUNDLED_CODES:
        own = bundled_code(entry)
    elif isinstance(entry, str):
        if code is None:
            raise ParseError(f"{path}: unknown code name {entry!r}; pass --code")
        if entry != code.name:
            raise ParseError(
                f"{path}: scheme is for code {entry!r}, not {code.name!r}")
        own = code
    else:
        own = code
    if code is None:
        code = own
    elif ((own.n, own.k, own.field, own.parity)
          != (code.n, code.k, code.field, code.parity)):
        raise ParseError(f"{path}: scheme is for {own!r}, not {code!r}")
    return scheme_from_json(obj, code)
