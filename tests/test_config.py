import json

import pytest

from protoad.config import PRESETS, ConfigError, RunConfig, preset


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_dict_round_trip(name):
    rc = preset(name).replace(pretrain_tau=0.3, refresh_period=2)
    d = rc.to_dict()
    assert isinstance(d["weak_jitter"], list)
    assert RunConfig.from_dict(d) == rc


def test_json_file_round_trip(tmp_path):
    rc = preset("smoke").replace(seed=11, weak_jitter=(0.8, 1.2))
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
    rc = RunConfig(gamma_l=1.5, n_ensemble=0, mode="bogus")
    problems = rc.violations()
    assert len(problems) == 3
    for needle in ("gamma_l", "n_ensemble", "mode must be one of"):
        assert sum(needle in p for p in problems) == 1, needle
    with pytest.raises(ConfigError) as info:
        rc.validated()
    for p in problems:
        assert p in str(info.value)


def test_validated_returns_a_valid_config_unchanged():
    rc = RunConfig()
    assert rc.validated() is rc


def test_unknown_preset_raises():
    with pytest.raises(ConfigError, match="unknown preset 'nope'"):
        preset("nope")



@pytest.mark.parametrize("changes", [{"score_tau": 0.0}, {"tau": 0.0}, {"tau": -1.0}])
def test_non_positive_score_tau_is_listed_not_raised(changes):
    problems = RunConfig(**changes).violations()
    name = next(iter(changes))
    assert [p for p in problems if p.startswith(name)] == \
        [f"{name} must be positive, got {changes[name]}"]
    assert not any("ln(n_prototypes)" in p for p in problems)
