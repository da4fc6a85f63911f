"""The traced benchmark wraps program functions by name; they must all exist."""
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))    # layers.py imports tracer
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = layers.targets()
    assert targets
    for owner, attribute, span, _ in targets:
        assert callable(getattr(owner, attribute, None)), span
