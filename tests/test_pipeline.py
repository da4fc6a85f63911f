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


@pytest.mark.parametrize("shape, needle", [
    ({"n_normal_configs": 0}, "n_normal_configs must be >= 1, got 0"),
    ({"n_anomaly_mixes": 0}, "n_anomaly_mixes must be between 1 and anomaly_classes=3, got 0"),
    ({"n_anomaly_mixes": 4}, "n_anomaly_mixes must be between 1 and anomaly_classes=3, got 4"),
    ({"n_normal_configs": 0, "n_anomaly_mixes": 0}, "n_normal_configs must be >= 1, got 0; "
     "n_anomaly_mixes must be between 1 and anomaly_classes=3, got 0"),
    # Other keys replace configuration fields: one error names both kinds of rule.
    ({"pretrain_lr": 0.0, "n_normal_configs": 0},
     "pretrain stage: lr must be positive, got 0.0; n_normal_configs must be >= 1, got 0"),
    ({"anomaly_classes": "3", "n_anomaly_mixes": 2}, "anomaly_classes must be int, got '3'$"),
    # A size is an int and never a bool; a mistyped one is named for its type only.
    ({"n_normal_configs": 2.5, "n_anomaly_mixes": 1}, "^n_normal_configs must be int, got 2.5$"),
    ({"n_normal_configs": 1, "n_anomaly_mixes": "2"}, "^n_anomaly_mixes must be int, got '2'$"),
    ({"n_normal_configs": True, "n_anomaly_mixes": 1}, "^n_normal_configs must be int, got True$"),
])
def test_grid_shape_is_checked_before_any_cell(monkeypatch, shape, needle):
    entered = []
    monkeypatch.setattr(pipeline, "_grid_cell", entered.append)
    sizes = {key: value for key, value in shape.items() if key.startswith("n_")}
    rc = preset("smoke").replace(**{key: shape[key] for key in shape.keys() - sizes.keys()})
    with pytest.raises(ValidationError, match=needle):
        run_grid(rc, **sizes)
    assert not entered


@pytest.mark.parametrize("ks, seeds", [([8, 0], [0]), ([8], [0, -1]), ([0, -1], [0]),
                                       ([2.5, True, "a", 8], [0]), ([8], [2.5, True, "a", 1]),
                                       ([0], [-1])])
def test_prototype_sweep_checks_every_count_and_seed_before_pretraining(monkeypatch,
                                                                         ks, seeds):
    prepared = []
    monkeypatch.setattr(pipeline, "prepare", prepared.append)
    with pytest.raises(ValidationError) as info:
        pipeline.prototype_count_sweep(preset("smoke"), ks, seeds)
    assert not prepared
    message = str(info.value)
    for values, name, least in ((ks, "n_prototypes", 1), (seeds, "seed", 0)):
        for v in values:    # every bad count and seed is named, and no good one
            named = (f"{name} must be >= {least}, got {v}" in message
                     or f"{name} must be int, got {v!r}" in message)
            assert named == (type(v) is not int or v < least), (v, message)


def test_prototype_sweep_checks_each_count_against_the_shift_slots(monkeypatch):
    # Every (seed, count) row is a configuration: under ELSA+, 6 prototypes do
    # not fill 4 shift slots, so the sweep stops before any pre-training.
    prepared = []
    monkeypatch.setattr(pipeline, "prepare", prepared.append)
    with pytest.raises(ValidationError,
                       match="n_prototypes must be a multiple of the 4 shift slots, got 6"):
        pipeline.prototype_count_sweep(preset("smoke"), [8, 6], [0, 1])
    assert not prepared


@pytest.mark.parametrize("driver, args, trainer, needles", [
    ("run_pollution_sweep", (preset("smoke"), [1.5, 2.0]), "run_single",
     ["gamma_p below 1, got 1.5", "gamma_p below 1, got 2.0"]),
    ("run_ablation", (preset("smoke"), [("bad", "elsa"), ("energy", "worse")]), "prepare",
     ["score_name must be one of", "got 'bad'", "loss_name must be one of", "got 'worse'"]),
    # With no rows the driver's own configuration is checked.
    ("prototype_count_sweep", (preset("smoke").replace(pretrain_lr=0.0), [8], []), "prepare",
     ["pretrain stage: lr must be positive, got 0.0"]),
    ("run_pollution_sweep", (preset("smoke").replace(pretrain_lr=0.0), []), "run_single",
     ["pretrain stage: lr must be positive, got 0.0"]),
    # A field that every row overrides is still checked where it trains:
    # the ablation pre-trains under its own configuration.
    ("run_ablation", (preset("smoke").replace(score_name="bad"), [("energy", "elsa")]),
     "prepare", ["score_name must be one of", "got 'bad'"]),
])
def test_drivers_name_every_bad_row_before_training(monkeypatch, driver, args, trainer,
                                                    needles):
    entered = []
    monkeypatch.setattr(pipeline, trainer, lambda *a, **k: entered.append(a))
    with pytest.raises(ValidationError) as info:
        getattr(pipeline, driver)(*args)
    assert not entered
    for needle in needles:
        assert needle in str(info.value), str(info.value)


def test_ablation_with_no_pairs_pretrains_nothing(monkeypatch):
    prepared = []
    monkeypatch.setattr(pipeline, "prepare", prepared.append)
    assert pipeline.run_ablation(preset("smoke"), []) == []
    assert not prepared


def test_grid_mixes_split_the_pool_classes_by_index(monkeypatch):
    # Reference: every non-zero class of the cell's own pool, dealt out to the
    # mixes by index modulo the mix count.
    recorded = []
    monkeypatch.setattr(pipeline, "build_splits",
                        lambda rc, anomaly_classes=None: recorded.append((rc, anomaly_classes)))
    monkeypatch.setattr(pipeline, "prepare", lambda rc, split=None: None)
    monkeypatch.setattr(pipeline, "finetune_and_eval", lambda ctx: (None, {"final_auroc": 0.5}))
    for n_classes in range(1, 10):
        rc = preset("smoke").replace(anomaly_classes=n_classes)
        for n_mixes in range(1, n_classes + 1):
            recorded.clear()
            run_grid(rc, 1, n_mixes)
            assert len(recorded) == n_mixes
            for j, (cell_rc, mix) in enumerate(recorded):
                pool = data.generate(cell_rc.synthetic_spec())
                anomaly = sorted(int(c) for c in pool.classes() if c != 0)
                assert mix == [c for i, c in enumerate(anomaly) if i % n_mixes == j], \
                    (n_classes, n_mixes, j)


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
