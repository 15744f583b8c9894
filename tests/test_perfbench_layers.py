"""The traced benchmark's hook list still matches the package.

``perfbench/tracing.py`` wraps the names in ``LAYERS`` by looking them up on
their ``qevents`` module, and hooks a class through its own ``__init__`` or
``__post_init__``.  A rename in ``src/`` that leaves a stale name there fails
here, not only when the traced benchmark runs.  The file is read, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
TRACED = [(layer, name) for layer, names in tracing.LAYERS.items() for name in names]


@pytest.mark.parametrize("layer, name", TRACED, ids=[f"{l}.{n}" for l, n in TRACED])
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"qevents.{layer}")
    if "." in name:
        cls_name, attr = name.split(".")
        # wrapped as a classmethod through its underlying function
        assert isinstance(vars(getattr(module, cls_name))[attr], classmethod)
        return
    obj = getattr(module, name)
    if isinstance(obj, type):
        assert "__post_init__" in vars(obj) or "__init__" in vars(obj)
    else:
        assert callable(obj)


@pytest.mark.parametrize("kernel", tracing.KERNELS)
def test_traced_kernel_resolves(kernel):
    assert callable(getattr(np.linalg, kernel))


def test_memory_spans_are_traced_names():
    assert set(tracing.MEMORY) <= {f"{layer}.{name}" for layer, name in TRACED}
