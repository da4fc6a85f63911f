import contextlib
import io
import json

import numpy as np
import pytest

from protoad import cli
from protoad import encoder as enc
from protoad import objective as obj
from protoad.checkpoint import load_checkpoint, save_checkpoint
from protoad.config import ConfigError, preset
from protoad.data import Dataset, read_dataset, write_dataset, write_framed
from protoad.pipeline import build_splits
from protoad.prototypes import PrototypeSet

from oracles import score_lines_by_json


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


def test_resolve_config_non_integer_env_seed_exits_with_validation_code(monkeypatch,
                                                                       tmp_path):
    monkeypatch.setenv(cli.ENV_SEED, "abc")
    with pytest.raises(ConfigError, match="PROTOAD_SEED must be an integer, got 'abc'"):
        cli.resolve_config(_args("--preset", "smoke"))
    code, err = _main(["gen-data", "--preset", "smoke", "--out", str(tmp_path / "data")])
    assert code == 3 and "PROTOAD_SEED" in err, err
    assert not list(tmp_path.iterdir())


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


# ------------------------------------------------------------ score lines

def test_score_lines_equal_json_dumps():
    ids = [0, 7, 12, 3, 99, 10 ** 12]
    scores = [-0.0, 3.0, 1e-300, 1e300, 2.5e-7, 2.7725887222397811]
    assert cli._score_lines(ids, scores) == score_lines_by_json(ids, scores)
    assert cli._score_lines([], []) == []


# ------------------------------------------------------ repeated main calls

def test_repeated_main_calls_share_one_parser_and_no_state(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    first, second = tmp_path / "a", tmp_path / "b"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen-data", "--preset", "smoke", "--seed", "1",
                         "--set", "tau=0.6", "--out", str(first)]) == 0
        assert cli.main(["gen-data", "--preset", "smoke", "--seed", "2",
                         "--out", str(second)]) == 0
    a = json.loads((tmp_path / "a.config.json").read_text())
    b = json.loads((tmp_path / "b.config.json").read_text())
    assert (a["seed"], a["tau"]) == (1, 0.6)
    assert (b["seed"], b["tau"]) == (2, preset("smoke").tau)
    assert cli.build_parser().parse_args(["gen-data", "--out", "x"]).set == []


# -------------------------------------------------------------- exit codes

def _main(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    return code, err.getvalue()


def _checkpoint(tmp_path):
    rc = preset("smoke")
    path = tmp_path / "init.ckpt"
    save_checkpoint(path, config=rc.to_dict(), epoch=0, params=rc.initial_params())
    return str(path)


@pytest.mark.parametrize("argv", [[], ["score"], ["score", "--input", "x.ds"],
                                  ["eval", "--scores", "s.jsonl"]])
def test_missing_arguments_exit_with_usage_code(argv):
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_missing_files_exit_with_io_code(tmp_path):
    missing = str(tmp_path / "missing")
    code, err = _main(["score", "--checkpoint", missing, "--input", missing,
                       "--out", str(tmp_path / "s.jsonl")])
    assert code == 4 and "io error" in err
    code, err = _main(["score", "--checkpoint", _checkpoint(tmp_path), "--input", missing,
                       "--out", str(tmp_path / "s.jsonl")])
    assert code == 4 and "io error" in err
    code, err = _main(["eval", "--scores", missing, "--input", missing])
    assert code == 4 and "io error" in err


def test_non_finite_dataset_payload_exits_with_numeric_code(tmp_path):
    path = tmp_path / "inf.ds"
    rows = np.zeros((2, 3 + 2), dtype="<f4")
    rows[1, 0] = np.inf
    path.write_bytes(b'{"count": 2, "dim": 3, "version": 1}\n' + rows.tobytes())
    out = str(tmp_path / "s.jsonl")
    for argv in (["eval", "--scores", out, "--input", str(path)],
                 ["score", "--checkpoint", _checkpoint(tmp_path), "--input", str(path),
                  "--out", out]):
        code, err = _main(argv)
        assert code == 5
        assert "numeric failure: dataset features contains non-finite entries" in err


def test_non_finite_checkpoint_weight_exits_with_numeric_code(tmp_path, scored_inputs):
    ckpt, data = scored_inputs
    manifest, _, payload = (tmp_path / "ft.ckpt").read_bytes().partition(b"\n")
    bad = tmp_path / "nan.ckpt"
    bad.write_bytes(manifest + b"\n" + np.float32(np.nan).tobytes() + payload[4:])
    code, err = _main(["score", "--checkpoint", str(bad), "--input", data,
                       "--out", str(tmp_path / "s.jsonl")])
    assert code == 5 and "numeric failure: w1 contains non-finite entries" in err, err
    assert not (tmp_path / "s.jsonl").exists()


# ---------------------------------------------------------- malformed files

def _dataset_file(tmp_path, header: bytes):
    path = tmp_path / "bad.ds"
    path.write_bytes(header + b"\n" + np.zeros((2, 5), dtype="<f4").tobytes())
    return str(path)


@pytest.mark.parametrize("header", [b"[1]", b'{"version": 1}', b'{"version": 1, "dim": 3}',
                                    b'{"version": 1, "dim": "3", "count": 2}',
                                    b'{"version": 1, "dim": -4, "count": 2}',
                                    b"\xff\xfe garbage"])
def test_malformed_dataset_header_exits_with_validation_code(tmp_path, header):
    path = _dataset_file(tmp_path, header)
    out = str(tmp_path / "s.jsonl")
    for argv in (["eval", "--scores", out, "--input", path],
                 ["score", "--checkpoint", _checkpoint(tmp_path), "--input", path,
                  "--out", out]):
        code, err = _main(argv)
        assert code == 3 and "bad dataset header" in err, (argv[0], err)


@pytest.mark.parametrize("line", [b'{"id": 1, "score": ', b"[1, 0.5]", b'{"id": 1}',
                                  b'{"score": 0.5}', b'{"id": 1, "score": "high"}',
                                  b'{"id": 1, "score": null}', b'{"id": "1", "score": 0.5}',
                                  b'{"id": 1.0, "score": 0.5}', b"\xff\xfe",
                                  b'{"id": 1, "score": NaN}', b'{"id": 1, "score": Infinity}',
                                  b'{"id": 1, "score": -Infinity}',
                                  b'{"id": 1, "score": 1e400}',
                                  b'{"id": 1, "score": 1' + b"0" * 400 + b"}"],
                         ids=["truncated", "not_object", "no_score", "no_id",
                              "string_score", "null_score", "string_id", "float_id",
                              "not_utf8", "nan", "infinity", "minus_infinity",
                              "overflowing_float", "overflowing_int"])
def test_malformed_scores_line_exits_with_validation_code(tmp_path, line):
    data = tmp_path / "two.ds"
    write_dataset(data, Dataset(np.zeros((2, 3)), [0, 0], [0, 1], [0, 1]))
    scores = tmp_path / "s.jsonl"
    scores.write_bytes(b'{"id": 0, "score": 0.25}\n' + line + b"\n")
    code, err = _main(["eval", "--scores", str(scores), "--input", str(data)])
    assert code == 3 and "bad scores line 2" in err, err


@pytest.mark.parametrize("lines, needle", [
    (b'{"id": 0, "score": 0.25}\n{"id": 1, "score": 0.5}\n{"id": 0, "score": 5.0}\n',
     "scores file repeats id 0 (line 3)"),
    (b'{"id": 0, "score": 0.25}\n{"id": 999999, "score": 0.5}\n{"id": 1, "score": 0.5}\n',
     "scores file has ids not in the dataset (first: [999999])"),
], ids=["repeated_id", "unknown_id"])
def test_ambiguous_scores_file_exits_with_validation_code(tmp_path, lines, needle):
    data = tmp_path / "two.ds"
    write_dataset(data, Dataset(np.zeros((2, 3)), [0, 0], [0, 1], [0, 1]))
    scores = tmp_path / "s.jsonl"
    scores.write_bytes(lines)
    code, err = _main(["eval", "--scores", str(scores), "--input", str(data)])
    assert code == 3 and needle in err, err


@pytest.mark.parametrize("edit", ["list", "no_sections", "entry_not_object",
                                  "entry_without_shape", "negative_shape",
                                  "epoch_not_int", "config_not_object",
                                  "not_utf8"])
def test_malformed_checkpoint_manifest_exits_with_validation_code(tmp_path, edit):
    _checkpoint(tmp_path)
    manifest_line, _, payload = (tmp_path / "init.ckpt").read_bytes().partition(b"\n")
    manifest = json.loads(manifest_line)
    if edit == "list":
        manifest = [manifest]
    elif edit == "no_sections":
        del manifest["sections"]
    elif edit == "entry_not_object":
        manifest["sections"][0] = "encoder.W1"
    elif edit == "entry_without_shape":
        del manifest["sections"][0]["shape"]
    elif edit == "negative_shape":
        manifest["sections"][0]["shape"] = [-1, 2]
    elif edit == "epoch_not_int":
        manifest["epoch"] = "x"
    else:
        manifest["config"] = 5
    line = b"\xff\xfe garbage" if edit == "not_utf8" else json.dumps(manifest).encode()
    path = tmp_path / "bad.ckpt"
    path.write_bytes(line + b"\n" + payload)
    data = _dataset_file(tmp_path, b'{"version": 1, "dim": 3, "count": 2}')
    code, err = _main(["score", "--checkpoint", str(path), "--input", data,
                       "--out", str(tmp_path / "s.jsonl")])
    assert code == 3 and "bad checkpoint manifest" in err, err


@pytest.mark.parametrize("command", ["score", "finetune"])
@pytest.mark.parametrize("section, width, needle", [
    ("encoder.w2", 7, "encoder layer shapes"),
    ("prototypes.vectors", 5, "checkpoint prototypes are 5 wide, embeddings 8"),
], ids=["w2_32x7", "prototypes_5_wide"])
def test_checkpoint_whose_shapes_disagree_exits_with_validation_code(
        tmp_path, scored_inputs, command, section, width, needle):
    ckpt, data = scored_inputs
    ck = load_checkpoint(ckpt)
    arrays = {f"encoder.{f}": getattr(ck.params, f) for f in enc.EncoderParams.FIELDS}
    arrays["prototypes.vectors"] = ck.prototypes.vectors
    narrow = arrays[section][:, :width]
    arrays[section] = narrow / np.linalg.norm(narrow, axis=1, keepdims=True)   # unit rows
    manifest = json.loads((tmp_path / "ft.ckpt").read_bytes().partition(b"\n")[0])
    for entry in manifest["sections"]:
        entry["shape"] = list(arrays[entry["name"]].shape)
    bad = tmp_path / "bad.ckpt"
    write_framed(bad, manifest, [arrays[e["name"]] for e in manifest["sections"]])
    split = build_splits(preset("smoke"))
    write_dataset(tmp_path / "d.train.ds", split.train)
    write_dataset(tmp_path / "d.valid.ds", split.validation)
    out = tmp_path / "out"
    argv = (["score", "--checkpoint", str(bad), "--input", data, "--out", str(out)]
            if command == "score" else
            ["finetune", "--checkpoint", str(bad), "--data", str(tmp_path / "d"),
             "--out", str(out)])
    code, err = _main(argv)
    assert code == 3 and needle in err, err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", ["score", "finetune"])
@pytest.mark.parametrize("flags, needle", [
    (["--mode", "elsa"], "shifts=1"), (["--set", "shift_count=2"], "shifts=2"),
    (["--set", "hidden_dim=48"], "hidden=48"),
    (["--prototypes", "12"], "and 12 prototypes"),
], ids=["mode_elsa", "shift_count_2", "hidden_dim_48", "prototypes_12"])
def test_config_that_does_not_describe_the_checkpoint_exits_with_validation_code(
        tmp_path, scored_inputs, command, flags, needle):
    # scored_inputs holds a smoke ELSA+ checkpoint: 4 shifts, hidden 32, 8 prototypes.
    ckpt, data = scored_inputs
    split = build_splits(preset("smoke"))
    write_dataset(tmp_path / "d.train.ds", split.train)
    write_dataset(tmp_path / "d.valid.ds", split.validation)
    out = tmp_path / "out"
    argv = (["score", "--checkpoint", ckpt, "--input", data, "--out", str(out)]
            if command == "score" else
            ["finetune", "--checkpoint", ckpt, "--data", str(tmp_path / "d"),
             "--out", str(out)])
    code, err = _main(argv + flags)
    assert code == 3 and needle in err, err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("labels", [[[0.5, 0], [0, 1]], [[-0.7, 0], [0, 1]],
                                    [[0, 2.9], [0, 0]]], ids=["0.5", "-0.7", "class_2.9"])
def test_fractional_label_column_exits_with_validation_code(tmp_path, scored_inputs,
                                                            labels):
    # (semi, true class) per row; truncated, each file would hold both classes.
    ckpt, _ = scored_inputs
    rows = np.zeros((2, preset("smoke").input_dim + 2))
    rows[:, :-2] = np.random.default_rng(0).normal(size=(2, rows.shape[1] - 2))
    rows[:, -2:] = labels
    data = tmp_path / "frac.ds"
    write_framed(data, {"version": 1, "dim": rows.shape[1] - 2, "count": 2}, [rows])
    scores = tmp_path / "s.jsonl"
    scores.write_text('{"id": 0, "score": 0.25}\n{"id": 1, "score": 0.5}\n')
    for argv in (["eval", "--scores", str(scores), "--input", str(data),
                  "--out", str(tmp_path / "eval.json")],
                 ["score", "--checkpoint", ckpt, "--input", str(data),
                  "--out", str(tmp_path / "scores.jsonl")]):
        code, err = _main(argv)
        assert code == 3 and "semi and class columns must hold integers" in err, err
    assert not (tmp_path / "eval.json").exists()
    assert not (tmp_path / "scores.jsonl").exists()


def test_zero_score_tau_exits_with_validation_code(tmp_path):
    code, err = _main(["gen-data", "--preset", "smoke", "--set", "score_tau=0",
                       "--out", str(tmp_path / "data")])
    assert code == 3
    assert "score_tau must be positive, got 0" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("pair, needle", [
    ("samples_per_class=abc", "samples_per_class must be int, got 'abc'"),
    ("weak_jitter=[1.0]", "weak_jitter must be Tuple[float, float], got (1.0,)"),
    ("weak_jitter=5", "weak_jitter must be Tuple[float, float], got 5"),
    ("pretrain_epochs=2.5", "pretrain_epochs must be int, got 2.5"),
    ("seed=true", "seed must be int, got True"),
    ("strict_scores=1", "strict_scores must be bool, got 1"),
    ("refresh_period=[3]", "refresh_period must be Optional[int], got [3]"),
])
def test_wrong_typed_set_value_exits_with_validation_code(tmp_path, pair, needle):
    code, err = _main(["gen-data", "--preset", "smoke", "--set", pair,
                       "--out", str(tmp_path / "data")])
    assert code == 3 and needle in err, err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("pair, stage", [
    ("pretrain_lr=-1", "pretrain"), ("pretrain_batch=1", "pretrain"),
    ("pretrain_momentum=1.0", "pretrain"), ("finetune_lr=0", "finetune"),
    ("finetune_epochs=-1", "finetune"), ("weak_mask_fraction=0.7", "augmentation"),
    ("strong_noise_multiple=2.0", "augmentation"), ("strong_n_ops=-1", "augmentation"),
    ("hidden_dim=0", "encoder"), ("refresh_period=0", "finetune"),
])
def test_setting_that_no_stage_accepts_exits_with_validation_code(tmp_path, pair, stage):
    code, err = _main(["gen-data", "--preset", "smoke", "--set", pair,
                       "--out", str(tmp_path / "data")])
    assert code == 3 and f"{stage} stage: " in err, err
    assert not list(tmp_path.iterdir())


def test_bad_sweep_gamma_p_token_exits_with_validation_code(tmp_path):
    code, err = _main(["scenario", "--preset", "smoke", "--sweep-gamma-p", "0.1,abc",
                       "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")])
    assert code == 3 and "--sweep-gamma-p expects numbers; could not convert string to float: 'abc'" in err, err
    assert not list(tmp_path.iterdir())


# ------------------------------------------------------------ score rules

@pytest.fixture
def scored_inputs(tmp_path):
    """A smoke checkpoint with prototypes, and the smoke test split on disk."""
    rc = preset("smoke")
    vectors = np.random.default_rng(4).normal(size=(rc.n_prototypes, rc.embed_dim))
    ckpt = tmp_path / "ft.ckpt"
    save_checkpoint(ckpt, config=rc.to_dict(), epoch=0, params=rc.initial_params(),
                    prototypes=PrototypeSet(
                        vectors / np.linalg.norm(vectors, axis=1, keepdims=True)))
    test = build_splits(rc).test
    write_dataset(tmp_path / "test.ds", test)
    return str(ckpt), str(tmp_path / "test.ds")


def _score(tmp_path, ckpt, data, *flags):
    out = tmp_path / "scores.jsonl"
    code, err = _main(["score", "--checkpoint", ckpt, "--input", data,
                       "--out", str(out), *flags])
    return code, err, (out.read_text().splitlines() if code == 0 else None)


def test_score_flag_picks_the_scoring_rule(tmp_path, scored_inputs):
    ckpt, data = scored_inputs
    _, _, energy = _score(tmp_path, ckpt, data)
    code, _, cosine = _score(tmp_path, ckpt, data, "--score", "cosine")
    assert code == 0 and cosine != energy
    ck, ds = load_checkpoint(ckpt), read_dataset(data)
    order = np.argsort(ds.ids, kind="mergesort")
    expected = obj.score_cosine(enc.embed(ck.params, ds.features), ck.prototypes.vectors)
    assert cosine == [line.rstrip("\n") for line in
                      score_lines_by_json(ds.ids[order].tolist(),
                                          expected[order].tolist())]


def test_uniformity_score_without_training_set_exits_with_validation_code(
        tmp_path, scored_inputs):
    ckpt, data = scored_inputs
    code, err, _ = _score(tmp_path, ckpt, data, "--score", "uniformity")
    assert code == 3
    assert "uniformity scoring needs a training set" in err
    assert not (tmp_path / "scores.jsonl").exists()


def test_checkpoint_with_a_saved_refresh_epoch_loads_and_scores_the_same(
        tmp_path, scored_inputs):
    # Earlier checkpoints carried "prototype_meta"; it is ignored on load.
    ckpt, data = scored_inputs
    manifest_line, _, payload = (tmp_path / "ft.ckpt").read_bytes().partition(b"\n")
    manifest = json.loads(manifest_line)
    assert "prototype_meta" not in manifest
    manifest["prototype_meta"] = {"last_refresh_epoch": 4}
    old = tmp_path / "old.ckpt"
    old.write_bytes(json.dumps(manifest, sort_keys=True).encode() + b"\n" + payload)
    _, _, expected = _score(tmp_path, ckpt, data)
    code, _, got = _score(tmp_path, str(old), data)
    assert code == 0 and got == expected
    ck = load_checkpoint(old)
    save_checkpoint(tmp_path / "resaved.ckpt", config=ck.config, epoch=ck.epoch,
                    params=ck.params, prototypes=ck.prototypes, rng_state=ck.rng_state)
    assert (tmp_path / "resaved.ckpt").read_bytes() == (tmp_path / "ft.ckpt").read_bytes()


# ----------------------------------------------------------- resumed runs

def test_resumed_finetune_refreshes_from_its_own_first_epoch(tmp_path):
    # ELSA refits its prototypes every epoch. A run started from a fine-tuned
    # checkpoint counts its own epochs from 1, so it must refit at every one
    # of them.
    data, pre, first, second = (str(tmp_path / n) for n in ("data", "pre.ckpt",
                                                             "ft1.ckpt", "ft2.ckpt"))
    for argv in (["gen-data", "--preset", "smoke", "--mode", "elsa",
                  "--finetune-epochs", "6", "--out", data],
                 ["pretrain", "--config", f"{data}.config.json", "--data", data,
                  "--out", pre],
                 ["finetune", "--checkpoint", pre, "--data", data, "--out", first],
                 ["finetune", "--checkpoint", first, "--data", data, "--out", second]):
        code, err = _main(argv)
        assert code == 0, (argv[0], err)
    with open(f"{second}.metrics.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert [r["epoch"] for r in records] == list(range(7))
    assert all(r["prototype_refresh_flag"] for r in records[1:])
