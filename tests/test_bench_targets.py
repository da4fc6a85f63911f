"""The benchmark's code calls program functions by name; it must keep working.

It also derives per-layer metrics from which span sits under which: the
training loops' ``*.self_s``, the probe time and
``prototype_inputs.useful_ratio`` all read span parents.
"""
import contextlib
import importlib.util
import io
import sys
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

from protoad import cli, pipeline
from protoad.config import preset
from protoad.evalharness import clustering_pool

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(monkeypatch):
    """perfbench's ``tracer`` and ``layers`` modules, unloaded after the test."""
    modules = []
    for name in ("tracer", "layers"):     # layers.py imports tracer
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        modules.append(module)
    return modules


def test_every_traced_target_resolves_to_a_callable(monkeypatch):
    _, layers = _perfbench(monkeypatch)
    targets = layers.targets()
    assert targets
    for owner, attribute, span, _ in targets:
        assert callable(getattr(owner, attribute, None)), span


def _batches(rows, batch_size, min_rows):
    return rows // batch_size + (rows % batch_size >= min_rows)


def test_training_spans_sit_directly_under_their_loop(monkeypatch):
    tracer_module, layers = _perfbench(monkeypatch)
    rc = preset("smoke")                   # ELSA+: the shift head trains too
    tracer = tracer_module.Tracer("protoad")
    tracer.op = "run"
    tracer.install(layers.targets())
    try:
        pipeline.run_single(rc)
    finally:
        tracer.uninstall()

    spans, NAME, PARENT = tracer.spans, tracer_module.NAME, tracer_module.PARENT
    under = defaultdict(list)              # parent span name -> child span indices
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            under[spans[span[PARENT]][NAME]].append(i)
    pre, ft = (Counter(spans[i][NAME] for i in under[loop])
               for loop in ("pretrain.pretrain_loop", "evalharness.finetune_loop"))

    train = pipeline.build_splits(rc).train
    pre_batches = rc.pretrain_epochs * _batches(len(clustering_pool(train)),
                                                rc.pretrain_batch, 2)
    ft_batches = rc.finetune_epochs * _batches(len(train), rc.finetune_batch, 1)
    for name in ("encoder.forward", "pretrain.contrastive_loss",
                 "objective.loss_shift", "encoder.backward"):
        assert pre[name] == pre_batches, name
    for name in ("objective.energy_score_grad", "objective.loss_by_name",
                 "objective.loss_shift", "encoder.backward"):
        assert ft[name] == ft_batches, name
    # One contrastive_loss per batch, each right after its batch's forward:
    # the probe time counts any other contrastive_loss as probe work.
    losses = [i for i, span in enumerate(spans)
              if span[NAME] == "pretrain.contrastive_loss"]
    assert len(losses) == pre_batches
    siblings = under["pretrain.pretrain_loop"]
    for i in losses:
        assert spans[siblings[siblings.index(i) - 1]][NAME] == "encoder.forward"


def test_score_cli_direct_calls_run_on_a_cli_checkpoint(monkeypatch, tmp_path):
    # The workload's pretrain_auroc hands pipeline.pretrain_uniformity_baseline
    # a duck-typed context: only split.train, split.test and pretrained.params.
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "perfbench_workloads", workloads)
    spec.loader.exec_module(workloads)
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    prefix, pre_ckpt, ckpt = (str(tmp_path / name)
                              for name in ("data", "pretrain.ckpt", "finetune.ckpt"))
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["gen-data", "--preset", "smoke", "--out", prefix],
                     ["pretrain", "--preset", "smoke", "--data", prefix, "--out", pre_ckpt],
                     ["finetune", "--checkpoint", pre_ckpt, "--data", prefix,
                      "--out", ckpt]):
            assert cli.main(argv) == 0, argv[0]
    state = SimpleNamespace(workdir=str(tmp_path), prefix=prefix, pre_ckpt=pre_ckpt,
                            ckpt=ckpt)
    assert 0.0 <= workloads.ScoreCliWorkload.pretrain_auroc(state) <= 1.0
    assert workloads.ScoreCliWorkload().save_probe(state) == []


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
