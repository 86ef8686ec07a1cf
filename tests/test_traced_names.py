"""Every function the benchmark tracer wraps exists in its arsc module.

The tracer looks the names up at run time, so a renamed or deleted
function would otherwise surface only as a failed traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, name) for _, module, names in tracer.TRACED for name in names]


@pytest.mark.parametrize("module,name", _traced())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
