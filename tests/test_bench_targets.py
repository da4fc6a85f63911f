"""The benchmark's code calls program functions by name; it must keep working."""
import importlib.util
import sys
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


class _OneCall:
    """Stands in for pytest-benchmark's fixture: runs the body once."""

    def __init__(self):
        self.extra_info = {}
        self.calls = 0

    def __call__(self, fn, *args, **kwargs):
        self.calls += 1
        return fn(*args, **kwargs)


def _parametrized_calls(fn):
    calls = [{}]
    for mark in getattr(fn, "pytestmark", []):
        assert mark.name == "parametrize" and "," not in mark.args[0], mark
        calls = [dict(c, **{mark.args[0]: v}) for c in calls for v in mark.args[1]]
    return calls


def test_every_microbench_body_runs_once():
    # bench_kernels.py puts src/ and perfbench/ on sys.path and imports
    # perfbench's own modules; all of that is undone afterwards.
    saved_path = list(sys.path)
    added = ("perfbench_bench_kernels", "layers", "tracer")
    saved_modules = {name: sys.modules.get(name) for name in added}
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_bench_kernels", PERFBENCH / "microbench" / "bench_kernels.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        bodies = [getattr(bench, n) for n in dir(bench) if n.startswith("test_")]
        assert len(bodies) >= 9
        for body in bodies:
            for kwargs in _parametrized_calls(body):
                benchmark = _OneCall()
                body(benchmark, **kwargs)
                assert benchmark.calls == 1, body.__name__
                assert set(benchmark.extra_info) == {"flop_computed", "bytes_computed"}
    finally:
        sys.path[:] = saved_path
        for name, module in saved_modules.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
