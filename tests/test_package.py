"""The package root: public names are imported from their modules."""

import ast
import subprocess
import sys
from pathlib import Path

import arsc
from test_traced_names import _traced

ARSC = Path(arsc.__file__).parent


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
    for path in sorted(ARSC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("arsc")):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def _definitions(tree):
    """(name, statement) of each public name a module's tree defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def _arsc_imports(tree):
    """(local name, (module, name)) of each name a tree imports from an arsc module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.level or node.module.startswith("arsc.")):
            module = f"arsc.{node.module}" if node.level else node.module
            yield from ((a.asname or a.name, (module, a.name)) for a in node.names)


def test_every_public_name_has_a_reader():
    # a public top-level name of arsc is read by library code outside its own
    # definition, imported by the acceptance criteria, wrapped by the benchmark
    # tracer or, for a cmd_*, dispatched to by cli.main; else only tests call it
    trees = {f"arsc.{p.stem}": ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(ARSC.glob("*.py"))}
    read = set(_traced())
    acceptance = Path(__file__).with_name("test_acceptance.py").read_text(encoding="utf-8")
    read.update(source for _, source in _arsc_imports(ast.parse(acceptance)))
    read.update(("arsc.cli", "cmd_" + node.args[0].value.replace("-", "_"))
                for node in ast.walk(trees["arsc.cli"]) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute) and node.func.attr == "add_parser")
    for module, tree in trees.items():
        own, imported = dict(_definitions(tree)), dict(_arsc_imports(tree))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
                continue
            if node.id in own:
                if not own[node.id].lineno <= node.lineno <= own[node.id].end_lineno:
                    read.add((module, node.id))
            elif node.id in imported:
                read.add(imported[node.id])
    unread = [f"{module}.{name}" for module, tree in trees.items()
              for name, _ in _definitions(tree) if (module, name) not in read]
    assert unread == []
