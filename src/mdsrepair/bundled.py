"""Bundled codes and repair schemes, and the one reader of code and scheme
files.

Three codes are included:

* ``rs53``  -- (5,3) Reed-Solomon over GF(2^4), normalized parity matrix,
  with the published 10-bit repair schemes for all three nodes;
* ``rs64``  -- (6,4) Reed-Solomon over GF(2^4), with the published 12-bit
  GF(2) schemes for nodes 1 and 4 (nodes 2 and 3 reach 12 bits by lifting
  their clique schemes);
* ``fb1410`` -- the (14,10) Reed-Solomon code over GF(2^8) deployed in
  HDFS-RAID, with the published random-search schemes for all ten nodes
  (mean 64.2 bits against the naive 80).

Every JSON input, bundled or given on the command line, is read here:
``load_code`` resolves a code, ``load_scheme`` resolves a scheme's code and
checks it against the given one, and ``load_schemes`` reads a scheme
directory, one ``node*.json`` file per failed node.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from .codes import CodeSpec
from .errors import MissingScheme, ParseError
from .repair import RepairScheme, scheme_from_json

BUNDLED_CODES = ("rs53", "rs64", "fb1410")

# published repair bandwidth (bits) of each bundled scheme
GOLDEN_TOTAL_BITS = {
    "rs53": {1: 10, 2: 10, 3: 10},
    "rs64": {1: 12, 4: 12},
    "fb1410": {1: 65, 2: 64, 3: 64, 4: 64, 5: 63,
               6: 64, 7: 64, 8: 65, 9: 65, 10: 64},
}


def _data() -> Path:
    return Path(__file__).parent / "data"


def _read_json(path, missing: str | None = None) -> dict:
    """The JSON object in a file; ParseError (``missing`` if given) for a
    missing file, invalid JSON or a value that is not an object."""
    try:
        with open(path) as f:
            obj = json.load(f)
    except FileNotFoundError:
        raise ParseError(missing or f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return obj


@lru_cache(maxsize=None)
def bundled_code(name: str) -> CodeSpec:
    if name not in BUNDLED_CODES:
        raise KeyError(f"unknown bundled code {name!r}; have {BUNDLED_CODES}")
    return CodeSpec.from_json(_read_json(_data() / "codes" / f"{name}.json"))


def bundled_scheme(code_name: str, node: int) -> RepairScheme:
    schemes = bundled_schemes(code_name)
    if node not in schemes:
        raise KeyError(f"no bundled scheme for {code_name} node {node}")
    return schemes[node]


def bundled_schemes(code_name: str) -> dict:
    """All bundled schemes for a code, keyed by failed node."""
    return {scheme.failed: scheme for _, scheme in
            load_schemes(bundled_scheme_dir(code_name), bundled_code(code_name))}


def bundled_scheme_dir(code_name: str) -> str:
    """Filesystem path of the bundled scheme directory (for the CLI)."""
    return str(_data() / "schemes" / code_name)


def load_code(name_or_path: str) -> CodeSpec:
    """Resolve a --code argument: a bundled name or a JSON file path."""
    if name_or_path in BUNDLED_CODES:
        return bundled_code(name_or_path)
    return CodeSpec.from_json(_read_json(
        name_or_path, f"{name_or_path!r} is neither a bundled code "
                      f"{BUNDLED_CODES} nor a readable file"))


def load_scheme(path: str, code: CodeSpec | None = None) -> RepairScheme:
    """Load a scheme file; the code may be given explicitly, named by the
    file (bundled names only), or inlined in the file.

    A scheme's inline code or bundled code name must agree with the given
    code on (n, k, field, parity); names are compared only for a name that
    is not bundled.  A scheme without a "code" entry takes the given code.
    """
    obj = _read_json(path, f"scheme file not found: {path}")
    entry = obj.get("code")
    if isinstance(entry, dict):
        own = CodeSpec.from_json(entry)
    elif entry in BUNDLED_CODES:
        own = bundled_code(entry)
    elif code is None:
        raise ParseError(f"{path}: unknown code name {entry!r}; pass --code")
    elif entry is not None and entry != code.name:
        raise ParseError(
            f"{path}: scheme is for code {entry!r}, not {code.name!r}")
    else:
        own = code
    if code is None:
        code = own
    elif ((own.n, own.k, own.field, own.parity)
          != (code.n, code.k, code.field, code.parity)):
        raise ParseError(f"{path}: scheme is for {own!r}, not {code!r}")
    return scheme_from_json(obj, code)


def load_schemes(directory: str, code: CodeSpec) -> list:
    """The (path, scheme) pairs of a directory's node*.json files, in
    ascending failed-node order; ParseError for a second scheme of a node."""
    found = {}
    for path in sorted(Path(directory).glob("node*.json")):
        scheme = load_scheme(str(path), code)
        if scheme.failed in found:
            raise ParseError(f"{found[scheme.failed][0]} and {path} are both "
                             f"schemes for node {scheme.failed}")
        found[scheme.failed] = (path, scheme)
    if not found:
        raise MissingScheme(
            f"no node*.json scheme files in {directory}; expected schemes for "
            f"nodes {', '.join(str(i) for i in range(1, code.k + 1))}")
    return [found[node] for node in sorted(found)]
