"""Package-wide guards: every exported name resolves, no check in the
package is an ``assert`` (``python -O`` would drop it), no module builds
code at run time, only ``_numpy`` marks arrays read-only, only
``FieldSpec.__contains__`` compares an element's field, only ``gf`` names
an element rank kernel, every function
the benchmark tracer wraps still exists
under its traced name, the README's library example runs, and only the
array routes execute NumPy."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mdsrepair
from mdsrepair.bundled import bundled_scheme_dir

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


def test_only_numpy_module_sets_flags():
    # _numpy.freeze and _numpy.table own making arrays read-only
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "_numpy.py":
            tree = ast.parse(path.read_text(), str(path))
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr == "setflags"]
    assert not found


def _field_comparisons(node, scope=""):
    """(qualified scope, line) of every ``==``, ``!=``, ``is`` or ``is not``
    comparison with a ``.field`` attribute among its operands."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = f"{scope}.{node.name}" if scope else node.name
    if (isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Eq, ast.NotEq, ast.Is, ast.IsNot))
                    for op in node.ops)
            and any(isinstance(operand, ast.Attribute) and operand.attr == "field"
                    for operand in (node.left, *node.comparators))):
        yield scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _field_comparisons(child, scope)


def test_only_contains_compares_fields():
    # ``x in field`` decides membership; SubfieldSpec.__eq__ compares the
    # fields of two subfields, not of an element
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for scope, line in _field_comparisons(tree):
            found.setdefault(scope, []).append(f"{path.name}:{line}")
    assert set(found) == {"FieldSpec.__contains__", "SubfieldSpec.__eq__"}, found


def test_only_gf_names_an_element_kernel():
    # SubfieldSpec chooses the element rank kernel by p, so no other module
    # names one, in an expression or an import; linalg defines them
    kernel = re.compile(r"bit_rank\w*|bit_echelon_batch|bit_extend_batch|zech_\w*")
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in ("gf.py", "linalg.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.name if isinstance(node, ast.alias) else "")
                if kernel.fullmatch(name):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found


def test_no_code_generation():
    # the value classes share plain methods: no module imports dataclasses,
    # which writes each class's methods as source, or calls exec/eval/compile
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("exec", "eval", "compile")):
                modules = [node.func.id]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in modules
                      if name in ("dataclasses", "exec", "eval", "compile")]
    assert not found


def test_cli_import_loads_no_code_generator():
    # the modules loaded by importing the CLI, against those loaded before
    probe = ("import sys; before = set(sys.modules); import mdsrepair.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    loaded = proc.stdout.split()
    assert "mdsrepair.cli" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)


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


# runs ``main(argv)``, or a bare ``import mdsrepair`` without arguments, and
# prints its exit status and the numpy submodules loaded by then: NumPy's
# own import loads them, the lazy ``numpy`` entry alone loads none
PROBE = """\
import json, sys
if sys.argv[1:]:
    from mdsrepair.cli import main
    status = main(sys.argv[1:])
else:
    import mdsrepair
    status = None
print(json.dumps([status, sorted(m for m in sys.modules if m.startswith("numpy."))]))
"""


def _probe(cwd, *argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    [], ["list-codes"], ["verify", "--code", "fb1410", "--scheme", "{fb1410}", "--json"],
    ["report", "--code", "fb1410"], ["clique", "--code", "rs64"], ["selftest"]],
    ids=["import", "list-codes", "verify", "report", "clique", "selftest"])
def test_scalar_commands_never_execute_numpy(tmp_path, argv):
    scheme_dir = bundled_scheme_dir("fb1410")
    status, loaded = _probe(tmp_path, *(a.format(fb1410=scheme_dir) for a in argv))
    assert status in (None, 0) and loaded == []


def test_search_loads_numpy_and_writes_the_same_scheme(tmp_path):
    status, loaded = _probe(tmp_path, "search", "--code", "fb1410", "--node", "2",
                            "--mode", "random", "--samples", "300", "--seed", "5",
                            "--out", "s.json")
    assert status == 0 and loaded
    # the frozen winner of this seed, in the file format search has always written
    expected = {"code": "fb1410", "s": 1, "failed": 2,
                "elements": [[0, 248], [0, 171], [99, 96], [45, 192]]}
    assert (tmp_path / "s.json").read_text() == json.dumps(expected, indent=1) + "\n"
