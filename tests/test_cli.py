import contextlib
import io
import json

import pytest

from protoad import cli
from protoad.config import ConfigError, preset


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)


def _args(*flags):
    return cli.build_parser().parse_args(["gen-data", "--out", "unused", *flags])


def test_resolve_config_file_beats_checkpoint_snapshot(tmp_path):
    snapshot = preset("smoke").replace(seed=11, tau=0.75).to_dict()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(preset("smoke").replace(seed=5).to_dict()))
    rc = cli.resolve_config(_args("--config", str(path)), base=snapshot)
    assert rc.seed == 5
    assert rc.tau == 0.5
    # Without a file the snapshot replaces the (default) preset whole.
    rc = cli.resolve_config(_args(), base=snapshot)
    assert (rc.tau, rc.samples_per_class) == (0.75, 80)


def test_resolve_config_set_beats_its_flag():
    rc = cli.resolve_config(_args("--preset", "smoke", "--tau", "0.6", "--set", "tau=0.7"))
    assert rc.tau == 0.7
    rc = cli.resolve_config(_args("--preset", "smoke", "--seed", "2", "--set", "seed=9"))
    assert rc.seed == 9


def test_resolve_config_env_seed_only_without_flag(monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "21")
    assert cli.resolve_config(_args("--preset", "smoke")).seed == 21
    assert cli.resolve_config(_args("--preset", "smoke", "--seed", "4")).seed == 4


def test_resolve_config_unknown_key_raises():
    with pytest.raises(ConfigError, match="nope"):
        cli.resolve_config(_args("--set", "nope=1"))


def test_unknown_set_key_exits_with_validation_code(tmp_path):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["gen-data", "--preset", "smoke", "--set", "nope=1",
                         "--out", str(tmp_path / "data")])
    assert code == 3
    assert "unknown config keys: ['nope']" in err.getvalue()
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag, value, key, expected", [
    ("--seed", "7", "seed", 7),
    ("--tau", "0.6", "tau", 0.6),
    ("--gamma-l", "0.2", "gamma_l", 0.2),
    ("--gamma-p", "0.1", "gamma_p", 0.1),
    ("--scenario", "s3", "scenario", "s3"),
    ("--mode", "elsa", "mode", "elsa"),
    ("--prototypes", "12", "n_prototypes", 12),
    ("--loss", "deepsad", "loss_name", "deepsad"),
    ("--score", "cosine", "score_name", "cosine"),
    ("--c-mode", "appendix", "c_mode", "appendix"),
    ("--pretrain-epochs", "2", "pretrain_epochs", 2),
    ("--finetune-epochs", "5", "finetune_epochs", 5),
    ("--samples-per-class", "40", "samples_per_class", 40),
    ("--input-dim", "12", "input_dim", 12),
    ("--n-ensemble", "3", "n_ensemble", 3),
    ("--ensemble-mode", "embeddings", "ensemble_mode", "embeddings"),
])
def test_dedicated_flag_sets_its_config_key(flag, value, key, expected):
    assert getattr(preset("smoke"), key) != expected
    rc = cli.resolve_config(_args("--preset", "smoke", flag, value))
    assert getattr(rc, key) == expected
