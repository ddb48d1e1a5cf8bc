"""Every function the benchmark's tracer wraps must exist in the package.

`perfbench/layers.py` names the traced stages as (module, class, function)
and the tracer looks each one up in the owner's namespace; a stage that a
refactor renames or inlines would drop out of the per-layer metrics without
an error (the run's `trace_missing` list would just grow).
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()
TRACED = layers.TIMED + layers.COUNTED + layers.ENTRY + layers.HOOKED


@pytest.mark.parametrize("module, cls, fn", TRACED,
                         ids=[".".join(p for p in t if p) for t in TRACED])
def test_traced_name_resolves(module, cls, fn):
    mod = importlib.import_module(f"prismal.{module}")
    owner = vars(mod)[cls] if cls else mod
    assert callable(vars(owner).get(fn))
