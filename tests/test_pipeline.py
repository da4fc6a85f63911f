import os
import subprocess
import sys
from pathlib import Path

import pytest

import protoad
from protoad import data
from protoad.config import preset
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
