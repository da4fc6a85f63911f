import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import pytest

import protoad
from protoad import data, pipeline
from protoad.config import preset
from protoad.data import ValidationError
from protoad.mathcore import NumericError
from protoad.pipeline import build_splits, run_grid, run_single


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    code = ("import sys, protoad.cli, protoad.pipeline; "
            "sys.exit('concurrent.futures.process' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(protoad.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_grid_cells_do_not_depend_on_worker_count():
    serial = run_grid(preset("smoke"), 2, 1, workers=1)
    pooled = run_grid(preset("smoke"), 2, 1, workers=2)
    assert pooled["cells"] == serial["cells"]
    assert pooled["mean_auroc"] == serial["mean_auroc"]


@pytest.mark.parametrize("workers, pool_size", [(1, None), (2, 2), (64, 12)])
def test_grid_pool_starts_no_more_workers_than_cells(monkeypatch, workers, pool_size):
    # The pool forks all its workers up front, so 64 workers for 12 cells
    # would start 52 idle processes. The fake pool starts none.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(pipeline, "_grid_cell", lambda cell: {"final_auroc": 0.5})
    report = run_grid(preset("smoke"), workers=workers)
    assert len(report["cells"]) == 12
    assert sizes == ([] if pool_size is None else [pool_size])


@pytest.mark.parametrize("shape, needle", [
    ({"n_normal_configs": 0}, "n_normal_configs must be >= 1, got 0"),
    ({"n_anomaly_mixes": 0}, "n_anomaly_mixes must be between 1 and anomaly_classes=3, got 0"),
    ({"n_anomaly_mixes": 4}, "n_anomaly_mixes must be between 1 and anomaly_classes=3, got 4"),
])
def test_grid_shape_is_checked_before_any_cell(monkeypatch, shape, needle):
    entered = []
    monkeypatch.setattr(pipeline, "_grid_cell", entered.append)
    with pytest.raises(ValidationError, match=needle):
        run_grid(preset("smoke"), **shape)
    assert not entered


def test_s3_splits_build_each_pool_once(monkeypatch):
    # The main pool plus one auxiliary and one outlier pool.
    built = []
    original = data.Pool.__post_init__
    monkeypatch.setattr(data.Pool, "__post_init__",
                        lambda pool: (built.append(pool), original(pool)))
    build_splits(preset("smoke").replace(scenario="s3"))
    assert len(built) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_elsa_plus_pretraining_raises():
    # A step of 1e30 blows the weights up; the next forward pass sees it.
    with pytest.raises(NumericError, match="a feature norm is zero or not finite"):
        run_single(preset("smoke").replace(pretrain_lr=1e30))
