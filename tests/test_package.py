"""Package-wide guards: every exported name resolves, no check in the
package is an ``assert`` (``python -O`` would drop it), every function
the benchmark tracer wraps still exists under its traced name, and the
README's library example runs."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import mdsrepair

PACKAGE = Path(mdsrepair.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def test_all_names_resolve():
    missing = [name for name in mdsrepair.__all__ if not hasattr(mdsrepair, name)]
    assert not missing


def test_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found


def test_tracing_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # a method counts only where its class defines it, not inherited
    missing = []
    for short, attrs in tracing.TARGETS.items():
        module = importlib.import_module(f"mdsrepair.{short}")
        for attr in attrs:
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if not callable(getattr(owner, "__dict__", {}).get(name)):
                missing.append(f"{short}.{attr}")
    assert tracing.TARGETS and not missing


def test_readme_quick_start():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
