"""The package root: public names are imported from their modules."""

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
