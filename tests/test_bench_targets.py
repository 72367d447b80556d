"""The benchmark's span tracer wraps hvol functions by attribute name.

A rename or deletion on the hvol side would only show when the benchmark
runs with tracing on; here every target must resolve.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    # the tracer imports only the standard library (hvol itself only when installed)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=lambda target: target[0])
def test_target_resolves(target):
    _name, module, attr, cls, _observe = target
    # the benchmark's workloads import these submodules before the tracer installs
    owner = importlib.import_module(f"hvol.{module}")
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))
