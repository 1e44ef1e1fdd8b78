"""The names the benchmark's tracer wraps must exist in schrodg.

`perfbench/tracer.py` reports a removed target as missing, and
`perfbench/smoke.py` then fails its per-layer metric check; this test
catches a renamed or deleted target without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines the tables; installs nothing
    return tracer.TARGETS


@pytest.mark.parametrize("layer, module_name, qualname", _targets())
def test_trace_target_resolves(layer, module_name, qualname):
    obj = importlib.import_module(module_name)
    for attr in qualname.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)
