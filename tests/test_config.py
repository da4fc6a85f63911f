import dataclasses
import json
import re

import pytest

from protoad.augment import WeakAugConfig
from protoad.config import PRESETS, ConfigError, RunConfig, preset
from protoad.data import ScenarioConfig, SyntheticSpec, ValidationError
from protoad.encoder import EncoderDims
from protoad.evalharness import FinetuneConfig
from protoad.pretrain import PretrainConfig


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_dict_round_trip(name):
    rc = preset(name).replace(tau=0.3)
    assert RunConfig.from_dict(rc.to_dict()) == rc


def test_json_file_round_trip(tmp_path):
    rc = preset("smoke").replace(seed=11, within_spread=0.55)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(rc.to_dict()))
    assert RunConfig.from_json_file(path) == rc


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys: \\['nope'\\]"):
        RunConfig.from_dict({"tau": 0.5, "nope": 1})


def test_presets_are_valid_and_independent_copies():
    for name in PRESETS:
        assert preset(name).validated().violations() == []
    preset("smoke").seed = 99
    assert preset("smoke").seed == PRESETS["smoke"].seed


def test_violations_list_every_problem():
    # Run-level rules do not stop the stage builds: all four problems are listed.
    rc = RunConfig(gamma_l=1.5, n_ensemble=0, mode="bogus", pretrain_batch=1)
    problems = rc.violations()
    assert len(problems) == 4
    for needle in ("scenario stage: gamma_l", "n_ensemble", "mode must be one of",
                   "pretrain stage: batch_size must be >= 2, got 1"):
        assert sum(needle in p for p in problems) == 1, needle
    with pytest.raises(ConfigError) as info:
        rc.validated()
    for p in problems:
        assert p in str(info.value)


STAGE_OBJECTS = [
    (SyntheticSpec, {"input_dim": 0, "samples_per_class": 0, "within_spread": 2.0},
     ["input_dim must be positive, got 0", "samples_per_class must be >= 1, got 0",
      "within_spread must satisfy 0 <= within_spread < cluster_spread, got 2.0 and 1.0"]),
    (ScenarioConfig, {"scenario": "s1", "gamma_l": 1.5, "gamma_p": 0.5},
     ["gamma_l must lie in [0, 1], got 1.5",
      "scenario s1 forbids contamination (gamma_p must be 0), got 0.5"]),
    (EncoderDims, {"input": 0, "shifts": 0},
     ["encoder dim input must be positive, got 0",
      "encoder dim shifts must be positive, got 0"]),
    (WeakAugConfig, {"noise_sigma": -1.0}, ["noise_sigma must be >= 0, got -1.0"]),
    (PretrainConfig, {"epochs": -1, "batch_size": 1, "lr": 0.0, "tau": 0.0},
     ["epochs must be >= 0, got -1", "batch_size must be >= 2, got 1",
      "lr must be positive, got 0.0", "tau must be positive, got 0.0"]),
    (FinetuneConfig, {"epochs": -1, "batch_size": 0, "lr": 0.0, "tau": 0.0,
                      "loss_name": "bogus"},
     ["epochs must be >= 0, got -1", "batch_size must be >= 1, got 0",
      "lr must be positive, got 0.0", "tau must be positive, got 0.0",
      "loss_name must be one of ('elsa', 'naive', 'deepsad'), got 'bogus'"]),
]


@pytest.mark.parametrize("stage, changes, expected", STAGE_OBJECTS,
                         ids=[stage.__name__ for stage, _, _ in STAGE_OBJECTS])
def test_stage_object_names_every_failing_rule_in_order(stage, changes, expected):
    with pytest.raises(ValidationError) as info:
        stage(**changes)
    assert str(info.value) == "; ".join(expected)


@pytest.mark.parametrize("changes, expected", [
    ({"pretrain_epochs": -1, "pretrain_lr": 0.0},
     ["pretrain stage: epochs must be >= 0, got -1; lr must be positive, got 0.0"]),
    ({"samples_per_class": 0, "input_dim": 0},
     ["data stage: input_dim must be positive, got 0; samples_per_class must be >= 1, got 0",
      "encoder stage: encoder dim input must be positive, got 0"]),
    ({"finetune_batch": 0, "finetune_lr": 0.0},
     ["finetune stage: batch_size must be >= 1, got 0; lr must be positive, got 0.0"]),
])
def test_each_stage_entry_names_every_failing_rule_of_its_stage(changes, expected):
    assert RunConfig(**changes).violations() == expected


@pytest.mark.parametrize("mode, k, expected", [
    ("elsa", 1, []), ("elsa", 6, []), ("elsa_plus", 4, []), ("elsa_plus", 8, []),
    ("elsa_plus", 6, ["n_prototypes must be a multiple of the 4 shift slots, got 6"]),
    ("elsa_plus", 2, ["n_prototypes must be a multiple of the 4 shift slots, got 2"]),
])
def test_prototype_count_must_fill_every_shift_slot(mode, k, expected):
    # Any count that fills the slots is valid, whether or not ln(k/S) > 1/tau.
    assert RunConfig(mode=mode, n_prototypes=k).violations() == expected


def test_validated_returns_a_valid_config_unchanged():
    rc = RunConfig()
    assert rc.validated() is rc


def test_unknown_preset_raises():
    with pytest.raises(ConfigError, match="unknown preset 'nope'"):
        preset("nope")



@pytest.mark.parametrize("changes", [{"tau": 0.0}, {"tau": -1.0},
                                     {"tau": 0.0, "n_prototypes": 4}])
def test_non_positive_score_tau_is_listed_not_raised(changes):
    # Pre-training and scoring share the one temperature: each stage reports a
    # bad value once, and no rule ties the prototype count to it.
    assert RunConfig(**changes).violations() == \
        [f"{stage} stage: tau must be positive, got {changes['tau']}"
         for stage in ("pretrain", "finetune")]


@pytest.mark.parametrize("overrides, expected", [
    ({"pretrain_tau": None, "score_tau": None}, ["pretrain", "finetune"]),
    ({"pretrain_tau": None}, ["pretrain", "finetune"]),
    ({"score_tau": None}, ["pretrain", "finetune"]),
])
def test_bad_tau_is_listed_once_whichever_overrides_are_set(overrides, expected):
    # The overrides were retired: a file carrying them is refused by key name
    # alone, and without them each stage reports the one bad tau once.
    data = RunConfig(tau=-1.0).to_dict()
    with pytest.raises(ConfigError,
                       match=re.escape(f"unknown config keys: {sorted(overrides)}")):
        RunConfig.from_dict({**data, **overrides})
    assert RunConfig.from_dict(data).violations() == \
        [f"{stage} stage: tau must be positive, got -1.0" for stage in expected]


def test_every_training_config_field_is_reachable():
    # Every mapped RunConfig value differs from the matching training default.
    rc = RunConfig(pretrain_epochs=3, pretrain_batch=16, pretrain_lr=0.01, tau=0.3,
                   finetune_epochs=4, finetune_batch=8, finetune_lr=0.01,
                   loss_name="deepsad", seed=1)
    for built in (rc.pretrain_config(), rc.finetune_config()):
        default = type(built)()
        kept = [f.name for f in dataclasses.fields(built)
                if getattr(built, f.name) == getattr(default, f.name)]
        assert kept == [], type(built).__name__


@pytest.mark.parametrize("changes, needle", [
    ({"tau": float("nan")}, "tau must be a finite float, got nan"),
    ({"tau": float("inf")}, "tau must be a finite float, got inf"),
    ({"gamma_p": -float("inf")}, "gamma_p must be a finite float, got -inf"),
    ({"within_spread": float("inf")}, "within_spread must be a finite float, got inf"),
    ({"pretrain_lr": 10 ** 400}, "pretrain_lr must be a finite float"),
])
def test_non_finite_float_fields_are_type_violations(changes, needle):
    problems = RunConfig(**changes).violations()
    assert len(problems) == 1 and problems[0].startswith(needle), problems


def test_wrong_types_are_listed_before_value_checks():
    # Without the type check, "tau <= 0" would raise TypeError on a string.
    rc = RunConfig(within_spread="0.65", tau="0.5", n_prototypes=8.0)
    assert rc.violations() == [
        "within_spread must be float, got '0.65'",
        "n_prototypes must be int, got 8.0",
        "tau must be float, got '0.5'",
    ]
    with pytest.raises(ConfigError, match="tau must be float"):
        rc.validated()
