"""The package root: public names are imported from their modules."""

import ast
import subprocess
import sys
from pathlib import Path

import arsc


def test_import_loads_no_submodule():
    # `import arsc` re-exports nothing, so it must load none of arsc's modules
    src = str(Path(arsc.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import arsc; "
            "print(sorted(m for m in sys.modules if m.startswith('arsc.')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_mac_module_defines_only_the_selection_code():
    # the scalar MAC model is the tests' oracle (mac_model), not library code:
    # arsc.mac defines BITWIDTHS and AccuracySelect, and the rest is imports
    src = str(Path(arsc.__file__).resolve().parents[1])
    code = f"""
import inspect, sys
sys.path.insert(0, {src!r})
import arsc.cli, arsc.mac as m
print(sorted(n for n, v in vars(m).items() if not n.startswith("_") and not inspect.ismodule(v)
             and getattr(v, "__module__", m.__name__) == m.__name__))
print("mac_model" in sys.modules)
"""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout == "['AccuracySelect', 'BITWIDTHS']\nFalse\n"


def test_modules_import_no_private_name():
    # a module reaches another's code only through its public names
    found = []
    for path in sorted(Path(arsc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("arsc")):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []
