import argparse
import contextlib
import csv
import dataclasses
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from protoad import cli, pipeline
from protoad import encoder as enc
from protoad import objective as obj
from protoad.checkpoint import load_checkpoint, save_checkpoint
from protoad.config import PRESETS, ConfigError, RunConfig, preset
from protoad.data import Dataset, read_dataset, write_dataset, write_framed
from protoad.pipeline import build_splits, run_single
from protoad.prototypes import PrototypeSet

from oracles import score_lines_by_json


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


def test_negative_seed_exits_with_validation_code(tmp_path):
    # numpy refuses a negative seed; the configuration refuses it first.
    code, err = _main(["gen-data", "--preset", "smoke", "--seed", "-1",
                       "--out", str(tmp_path / "data")])
    assert code == 3 and "seed must be >= 0, got -1" in err, err
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


@pytest.mark.parametrize("text", [b"not json", b"\xff\xfe{}", b"[1]", b"[]", b"5",
                                  b'"abc"', b"null"],
                         ids=["not_json", "not_utf8", "list", "empty_list", "number",
                              "string", "null"])
def test_config_file_that_is_no_json_object_exits_with_validation_code(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    code, err = _main(["gen-data", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3 and f"bad config file {path}" in err, err
    assert not list(tmp_path.glob("out*"))


# A value for each dedicated flag that differs from the smoke preset's.
FLAG_VALUES = {"seed": "7", "tau": "0.6", "gamma_l": "0.2", "gamma_p": "0.1",
               "scenario": "s3", "mode": "elsa", "n_prototypes": "12",
               "loss_name": "deepsad", "score_name": "cosine", "pretrain_epochs": "2",
               "finetune_epochs": "5", "samples_per_class": "40", "input_dim": "12",
               "n_ensemble": "3"}


def _dedicated_flags():
    """The dedicated config flags, as the ``gen-data`` parser of ``cli.build_parser``
    holds them: every option but the generic ``--preset``, ``--config``,
    ``--set``, ``--help`` and the command's own ``--out``."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices["gen-data"]._actions
            if a.dest not in ("help", "preset", "config", "set", "out")]


@pytest.mark.parametrize("flag, value, key, expected", [
    (a.option_strings[0], FLAG_VALUES.get(a.dest), a.dest,
     (a.type or str)(FLAG_VALUES[a.dest]) if a.dest in FLAG_VALUES else None)
    for a in _dedicated_flags()])
def test_dedicated_flag_sets_its_config_key(flag, value, key, expected):
    # A flag left behind when its config key goes fails here, not at run time.
    assert key in {f.name for f in dataclasses.fields(RunConfig)}, flag
    assert value is not None, f"FLAG_VALUES has no value for {flag}"
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
                                  ["eval", "--scores", "s.jsonl"],
                                  ["scenario", "--grid", "--sweep-gamma-p", "0,0.1"],
                                  # Output flags that the chosen mode would not write.
                                  ["scenario", "--preset", "smoke", "--csv", "x.csv"],
                                  ["scenario", "--preset", "smoke", "--grid",
                                   "--metrics", "m.jsonl"],
                                  # The grid runs its cells in one process.
                                  ["scenario", "--preset", "smoke", "--workers", "2"]])
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


def test_pretrain_reads_only_the_training_file(tmp_path):
    # Pre-training never reads the validation split, so a prefix with only
    # its training file pre-trains; fine-tuning on it still needs the rest.
    prefix = str(tmp_path / "P")
    write_dataset(f"{prefix}.train.ds", build_splits(preset("smoke")).train)
    ckpt = str(tmp_path / "pre.ckpt")
    code, err = _main(["pretrain", "--preset", "smoke", "--pretrain-epochs", "1",
                       "--data", prefix, "--out", ckpt])
    assert code == 0, err
    assert load_checkpoint(ckpt).epoch == 1
    code, err = _main(["finetune", "--checkpoint", ckpt, "--data", prefix,
                       "--out", str(tmp_path / "ft.ckpt")])
    assert code == 4 and "io error" in err


def test_pretrain_on_data_of_another_width_exits_with_validation_code(tmp_path):
    # --input-dim is the one spelling of the width: pretrain does not adopt
    # the data file's, as finetune and score do not.
    prefix, ckpt = str(tmp_path / "data"), tmp_path / "pre.ckpt"
    assert _main(["gen-data", "--preset", "smoke", "--out", prefix])[0] == 0
    code, err = _main(["pretrain", "--preset", "smoke", "--set", "input_dim=32",
                       "--data", prefix, "--out", str(ckpt)])
    assert code == 3 and "batch width 16 != shift dim 32" in err, err
    assert not ckpt.exists()


def test_prototype_count_that_fills_the_shift_slots_runs(tmp_path):
    # ELSA has one slot, so 6 prototypes run, though ln 6 < 1/tau lets a
    # score fall below 0; the fine-tuned checkpoint holds all six.
    data, pre, ft = (str(tmp_path / n) for n in ("data", "pre.ckpt", "ft.ckpt"))
    for argv in (["gen-data", "--preset", "smoke", "--mode", "elsa", "--prototypes", "6",
                  "--out", data],
                 ["pretrain", "--config", f"{data}.config.json", "--data", data,
                  "--out", pre],
                 ["finetune", "--checkpoint", pre, "--data", data, "--out", ft]):
        code, err = _main(argv)
        assert code == 0, (argv[0], err)
    assert load_checkpoint(ft).prototypes.vectors.shape[:2] == (1, 6)


def test_prototype_count_that_leaves_a_shift_slot_short_exits_with_validation_code(
        tmp_path):
    # ELSA+ has four shift slots, and 6 prototypes do not split evenly over them.
    code, err = _main(["gen-data", "--preset", "smoke", "--prototypes", "6",
                       "--out", str(tmp_path / "data")])
    assert code == 3 and "n_prototypes must be a multiple of the 4 shift slots, got 6" \
        in err, err
    assert not list(tmp_path.iterdir())


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


def test_divergent_run_prints_only_the_numeric_failure(tmp_path, recwarn):
    # The step of 1e30 overflows the next forward pass; the CLI reports the
    # non-finite values it finds, and numpy adds no RuntimeWarning of its own.
    code, err = _main(["scenario", "--preset", "smoke", "--set", "pretrain_lr=1e30",
                       "--out", str(tmp_path / "report.json")])
    assert code == 5 and err.startswith("numeric failure: "), err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not list(tmp_path.iterdir())


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
                                    b'{"version": 1, "dim": 3, "count": true}',
                                    b'{"version": 1, "dim": true, "count": 2}',
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
                                  "entry_without_shape", "negative_shape", "name_not_string",
                                  "epoch_not_int", "no_epoch", "no_config",
                                  "config_null", "config_not_object", "not_utf8"])
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
    elif edit == "name_not_string":
        manifest["sections"][0]["name"] = ["encoder.w1"]
    elif edit == "epoch_not_int":
        manifest["epoch"] = "x"
    elif edit == "no_epoch":
        del manifest["epoch"]
    elif edit == "no_config":
        del manifest["config"]
    elif edit == "config_null":
        manifest["config"] = None
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
    narrow = arrays[section][..., :width]
    arrays[section] = narrow / np.linalg.norm(narrow, axis=-1, keepdims=True)   # unit rows
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
def test_checkpoint_with_a_flat_prototype_section_exits_with_validation_code(
        tmp_path, scored_inputs, command):
    # A flat (k, d) section predates the (slots, m, d) stack. Read as four slot
    # blocks it would score silently otherwise.
    ckpt, data = scored_inputs
    manifest_line, _, payload = (tmp_path / "ft.ckpt").read_bytes().partition(b"\n")
    manifest = json.loads(manifest_line)
    assert manifest["sections"][-1] == {"name": "prototypes.vectors", "shape": [4, 2, 8]}
    manifest["sections"][-1]["shape"] = [8, 8]
    flat = tmp_path / "flat.ckpt"
    flat.write_bytes(json.dumps(manifest, sort_keys=True).encode() + b"\n" + payload)
    split = build_splits(preset("smoke"))
    write_dataset(tmp_path / "d.train.ds", split.train)
    write_dataset(tmp_path / "d.valid.ds", split.validation)
    out = tmp_path / "out"
    argv = (["score", "--checkpoint", str(flat), "--input", data, "--out", str(out)]
            if command == "score" else
            ["finetune", "--checkpoint", str(flat), "--data", str(tmp_path / "d"),
             "--out", str(out)])
    code, err = _main(argv)
    assert code == 3 and "a nonempty (slots, m, d) stack, got shape (8, 8)" in err, err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", ["score", "finetune"])
@pytest.mark.parametrize("flags, needle", [
    (["--mode", "elsa"], "shifts=1"), (["--set", "hidden_dim=48"], "hidden=48"),
    (["--prototypes", "12"], "and 4 x 3 prototypes"),
], ids=["mode_elsa", "hidden_dim_48", "prototypes_12"])
def test_config_that_does_not_describe_the_checkpoint_exits_with_validation_code(
        tmp_path, scored_inputs, command, flags, needle):
    # scored_inputs holds a smoke ELSA+ checkpoint: 4 shifts, hidden 32, 4 slots of 2
    # prototypes.
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


@pytest.mark.parametrize("pair, needle", [
    ("samples_per_class=abc", "samples_per_class must be int, got 'abc'"),
    ("pretrain_epochs=2.5", "pretrain_epochs must be int, got 2.5"),
    ("seed=true", "seed must be int, got True"),
    ("tau=NaN", "tau must be a finite float, got nan"),
    ("pretrain_lr=NaN", "pretrain_lr must be a finite float, got nan"),
    ("finetune_lr=Infinity", "finetune_lr must be a finite float, got inf"),
])
def test_wrong_typed_set_value_exits_with_validation_code(tmp_path, pair, needle):
    code, err = _main(["gen-data", "--preset", "smoke", "--set", pair,
                       "--out", str(tmp_path / "data")])
    assert code == 3 and needle in err, err
    assert not list(tmp_path.iterdir())


def test_non_finite_flag_value_exits_with_validation_code(tmp_path):
    code, err = _main(["gen-data", "--preset", "smoke", "--tau", "nan",
                       "--out", str(tmp_path / "data")])
    assert code == 3 and "tau must be a finite float, got nan" in err, err
    assert not list(tmp_path.iterdir())


STAGE_REJECTIONS = [
    ("pretrain_lr=-1", "pretrain stage: lr must be positive, got -1"),
    ("pretrain_batch=1", "pretrain stage: batch_size must be >= 2, got 1"),
    ("finetune_lr=0", "finetune stage: lr must be positive, got 0"),
    ("finetune_epochs=-1", "finetune stage: epochs must be >= 0, got -1"),
    ("hidden_dim=0", "encoder stage: encoder dim hidden must be positive, got 0"),
    ("tau=0", "pretrain stage: tau must be positive, got 0"),
    ("tau=0", "finetune stage: tau must be positive, got 0"),
    ("tau=-0.5", "pretrain stage: tau must be positive, got -0.5"),
    ("scenario=s9", "scenario stage: scenario must be one of ('s1', 's2', 's3'), got 's9'"),
    ("gamma_l=1.5", "scenario stage: gamma_l must lie in [0, 1], got 1.5"),
    ("gamma_p=1.0", "scenario stage: scenario s2 needs gamma_p below 1, got 1.0"),
    ("scenario=s1", "scenario stage: scenario s1 forbids contamination "
                    "(gamma_p must be 0), got 0.05"),
    ("loss_name=x",
     "finetune stage: loss_name must be one of ('elsa', 'naive', 'deepsad'), got 'x'"),
    # A retired key is an unknown key, refused before any stage sees it.
    ("weak_mask_fraction=0.7", "unknown config keys: ['weak_mask_fraction']"),
]


@pytest.mark.parametrize("pair, expected", STAGE_REJECTIONS,
                         ids=[f"{pair}-{text.split(' stage: ')[0]}" if " stage: " in text
                              else f"{pair}-retired" for pair, text in STAGE_REJECTIONS])
def test_setting_that_no_stage_accepts_exits_with_validation_code(tmp_path, pair, expected):
    code, err = _main(["gen-data", "--preset", "smoke", "--set", pair,
                       "--out", str(tmp_path / "data")])
    assert code == 3 and expected in err, err
    assert not list(tmp_path.iterdir())


def test_two_bad_settings_of_one_stage_are_both_named(tmp_path):
    code, err = _main(["gen-data", "--preset", "smoke", "--set", "pretrain_epochs=-1",
                       "--set", "pretrain_lr=0", "--out", str(tmp_path / "data")])
    assert code == 3 and "pretrain stage: epochs must be >= 0, got -1; " \
        "lr must be positive, got 0" in err, err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag, key, value", [
    ("--mode", "mode", "bogus"), ("--scenario", "scenario", "s9"),
    ("--loss", "loss_name", "x"), ("--score", "score_name", "x"),
])
def test_bad_flag_value_exits_exactly_as_its_set_spelling(tmp_path, flag, key, value):
    out = ["--out", str(tmp_path / "data")]
    by_flag = _main(["gen-data", "--preset", "smoke", flag, value, *out])
    by_set = _main(["gen-data", "--preset", "smoke", "--set", f"{key}={value}", *out])
    assert by_flag[0] == 3 and by_flag == by_set, (by_flag, by_set)
    assert not list(tmp_path.iterdir())


def test_config_flags_are_plain_spellings_of_config_keys():
    # A parser rule (choices, a dest that is no config key) would be a second
    # home for a configuration rule.
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    flags = _dedicated_flags()
    assert len(flags) == 14
    for action in flags:
        assert action.dest in fields and action.choices is None, action.option_strings


def test_bad_sweep_gamma_p_token_exits_with_validation_code(tmp_path):
    code, err = _main(["scenario", "--preset", "smoke", "--sweep-gamma-p", "0.1,abc",
                       "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")])
    assert code == 3 and "--sweep-gamma-p expects numbers; could not convert string to float: 'abc'" in err, err
    assert not list(tmp_path.iterdir())


def test_pollution_sweep_writes_one_row_per_level(tmp_path):
    report, table = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    code, err = _main(["scenario", "--preset", "smoke", "--sweep-gamma-p", "0,0.1",
                       "--csv", str(table), "--out", str(report)])
    assert code == 0, err
    with open(table, newline="", encoding="utf-8") as fh:
        header, *lines = list(csv.reader(fh))
    rows = json.loads(report.read_text())["rows"]
    assert header == ["gamma_p", "final_auroc", "pretrain_baseline_auroc"]
    assert len(lines) == len(rows) == 2
    assert [float(line[0]) for line in lines] == [row["gamma_p"] for row in rows] == [0.0, 0.1]
    # Contamination changes the split; every other setting stays fixed.
    assert rows[0]["split_hash"] != rows[1]["split_hash"]
    single = run_single(preset("smoke").replace(scenario="s2", gamma_p=0.0))
    assert float(lines[0][1]) == rows[0]["final_auroc"] == single["final_auroc"]
    assert rows[0]["split_hash"] == single["split_hash"]


def test_pollution_sweep_checks_every_level_before_the_first_row(monkeypatch, tmp_path):
    entered = []
    monkeypatch.setattr(pipeline, "run_single", entered.append)
    code, err = _main(["scenario", "--preset", "smoke", "--sweep-gamma-p", "0.05,1.0",
                       "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")])
    assert code == 3 and "scenario s2 needs gamma_p below 1, got 1.0" in err, err
    assert not entered
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("pairs, needle", [
    ("energy:elsa,bogus:elsa", "got 'bogus'"),
    ("energy:elsa,energy:bogus", "finetune stage: loss_name must be one of"),
    # An empty name is a name like any other, not "the preset's".
    (":elsa", "got ''"),
])
def test_ablation_checks_every_pair_before_pretraining(monkeypatch, tmp_path, pairs,
                                                       needle):
    entered = []
    monkeypatch.setattr(pipeline, "prepare", entered.append)
    code, err = _main(["ablation", "--preset", "smoke", "--pairs", pairs,
                       "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")])
    assert code == 3 and needle in err, err
    assert not entered
    assert not list(tmp_path.iterdir())


# ------------------------------------------------------------ score rules

@pytest.fixture
def scored_inputs(tmp_path):
    """A smoke checkpoint with prototypes, and the smoke test split on disk."""
    rc = preset("smoke")
    vectors = np.random.default_rng(4).normal(
        size=(rc.shift_count, rc.n_prototypes // rc.shift_count, rc.embed_dim))
    ckpt = tmp_path / "ft.ckpt"
    save_checkpoint(ckpt, config=rc.to_dict(), epoch=0, params=rc.initial_params(),
                    prototypes=PrototypeSet(
                        vectors / np.linalg.norm(vectors, axis=-1, keepdims=True)))
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
    expected = obj.score_cosine(enc.embed(ck.params, ds.features),
                                ck.prototypes.vectors[0])
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


# --------------------------------------------------------- retired options

# Retired options, each once held by files that the program wrote.
RETIRED = ["ensemble_mode", "c_mode", "pretrain_tau", "score_tau",
           "test_fraction", "val_fraction", "weak_noise_scale", "weak_mask_fraction",
           "weak_jitter", "strong_noise_multiple", "strong_n_ops",
           "strong_apply_probability", "shift_count", "pretrain_momentum",
           "strict_scores", "refresh_period", "cluster_spread"]


def test_retired_keys_are_retired_on_both_sides():
    # No field or preset writes a retired key, and none is read back.
    assert not set(RETIRED) & {f.name for f in dataclasses.fields(RunConfig)}
    for name in PRESETS:
        assert not set(RETIRED) & preset(name).to_dict().keys(), name
    for key in RETIRED:
        with pytest.raises(ConfigError, match=re.escape(f"unknown config keys: ['{key}']")):
            RunConfig.from_dict({**RunConfig().to_dict(), key: None})


# Fields that hold one value in every preset and have no dedicated flag, each
# kept for the reason given: an open ROADMAP item or a reader outside src.
KEPT_WITHOUT_CALLER = {
    "pretrain_lr": "item 5's collapse test runs smoke ELSA at pretrain_lr=1e30",
    "within_spread": "perfbench/workloads.py reads it",
}


def test_every_run_option_has_a_caller():
    # A field that no preset moves off its default and no flag sets holds one
    # value everywhere: it is a constant, unless the allow-list says why not.
    default = RunConfig()
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    in_presets = {name for name in fields for rc in PRESETS.values()
                  if getattr(rc, name) != getattr(default, name)}
    flagged = {a.dest for a in _dedicated_flags()}
    assert fields - in_presets - flagged == set(KEPT_WITHOUT_CALLER)


def _with_config(ckpt, path, **changes):
    """Write to ``path`` a copy of checkpoint ``ckpt`` whose config snapshot has
    ``changes``; return ``path`` as a string."""
    manifest_line, _, payload = Path(ckpt).read_bytes().partition(b"\n")
    manifest = json.loads(manifest_line)
    manifest["config"].update(changes)
    Path(path).write_bytes(json.dumps(manifest, sort_keys=True).encode() + b"\n" + payload)
    return str(path)


def test_checkpoint_with_retired_keys_at_their_values_scores_and_finetunes_the_same(
        tmp_path, scored_inputs):
    # Whatever value a retired key holds, score and finetune both refuse the
    # snapshot by naming every such key, and write nothing.
    ckpt, data = scored_inputs
    old = _with_config(ckpt, tmp_path / "old.ckpt", **dict.fromkeys(RETIRED, 0))
    for argv in (["score", "--input", data], ["finetune", "--data", data]):
        code, err = _main([*argv, "--checkpoint", old, "--out", str(tmp_path / "out")])
        assert code == 3 and f"unknown config keys: {sorted(RETIRED)}" in err, err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("route", ["score", "config", "set"])
@pytest.mark.parametrize("key, value", [("ensemble_mode", "embeddings"),
                                        ("c_mode", "appendix"),
                                        ("pretrain_tau", 0.5), ("score_tau", 0.5),
                                        ("shift_count", 2), ("strong_n_ops", 2),
                                        ("weak_jitter", [1.0]), ("strict_scores", 1)],
                         ids=lambda v: json.dumps(v) if isinstance(v, list) else None)
def test_retired_key_at_another_value_exits_with_validation_code(
        tmp_path, scored_inputs, route, key, value):
    ckpt, data = scored_inputs
    out = tmp_path / "out"
    if route == "score":
        old = _with_config(ckpt, tmp_path / "old.ckpt", **{key: value})
        argv = ["score", "--checkpoint", old, "--input", data, "--out", str(out)]
    elif route == "config":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**preset("smoke").to_dict(), key: value}))
        argv = ["gen-data", "--config", str(path), "--out", str(out)]
    else:
        argv = ["gen-data", "--preset", "smoke", "--set", f"{key}={value}",
                "--out", str(out)]
    code, err = _main(argv)
    assert code == 3 and f"unknown config keys: ['{key}']" in err, err
    assert not list(tmp_path.glob("out*"))


# ----------------------------------------------------- metrics and reports

def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_metrics_and_reports_are_strict_json_with_null_for_nan(tmp_path):
    # The epoch-0 records hold no loss yet: NaN in memory, null on disk.
    p = lambda name: str(tmp_path / name)
    common = ["--preset", "smoke", "--pretrain-epochs", "1", "--finetune-epochs", "1"]
    for argv in (["gen-data", *common, "--out", p("data")],
                 ["pretrain", *common, "--data", p("data"), "--out", p("pre.ckpt")],
                 ["finetune", "--checkpoint", p("pre.ckpt"), "--data", p("data"),
                  "--out", p("ft.ckpt")],
                 ["scenario", *common, "--out", p("report.json"),
                  "--metrics", p("scenario.jsonl")]):
        code, err = _main(argv)
        assert code == 0, (argv[0], err)
    for name in ("pre.ckpt.metrics.jsonl", "ft.ckpt.metrics.jsonl", "scenario.jsonl"):
        records = [_strict_json(line) for line in (tmp_path / name).read_text().splitlines()]
        assert [r["epoch"] for r in records] == [0, 1], name
        assert records[0]["loss"] is None or records[0]["loss"]["total"] is None, name
    report = _strict_json((tmp_path / "report.json").read_text())
    assert report["pretrain_trace"][0]["align"] is None
    assert report["finetune_trace"][0]["loss"]["total"] is None


# -------------------------------------------------------------------- grid

def test_grid_with_more_mixes_than_anomaly_classes_exits_before_any_cell(monkeypatch,
                                                                         tmp_path):
    # Three mixes of two classes would leave one mix empty.
    entered = []
    monkeypatch.setattr(pipeline, "prepare", entered.append)
    code, err = _main(["scenario", "--preset", "smoke", "--set", "anomaly_classes=2",
                       "--grid", "--out", str(tmp_path / "r.json")])
    assert code == 3 and \
        "n_anomaly_mixes must be between 1 and anomaly_classes=2, got 3" in err, err
    assert not entered
    assert not list(tmp_path.iterdir())


def test_grid_refuses_s3_before_any_cell(monkeypatch, tmp_path):
    # Every grid cell draws its anomaly mix from one pool; s3 needs two more.
    entered, cell = [], pipeline._grid_cell
    monkeypatch.setattr(pipeline, "_grid_cell",
                        lambda *args: (entered.append(args), cell(*args))[1])
    code, err = _main(["scenario", "--preset", "smoke", "--scenario", "s3",
                       "--grid", "--out", str(tmp_path / "r.json")])
    assert code == 3 and "while scenario s3 takes its anomalies from two other pools" \
        in err, err
    assert not entered
    assert not list(tmp_path.iterdir())


def test_pollution_sweep_refuses_s3_before_the_first_row(monkeypatch, tmp_path):
    # The sweep contaminates s2; s3 would silently run as s2 under an s3 report.
    entered, single = [], pipeline.run_single
    monkeypatch.setattr(pipeline, "run_single",
                        lambda rc: (entered.append(rc), single(rc))[1])
    code, err = _main(["scenario", "--preset", "smoke", "--scenario", "s3",
                       "--sweep-gamma-p", "0.1", "--out", str(tmp_path / "r.json")])
    assert code == 3 and "while scenario s3 takes its anomalies from two other pools" \
        in err, err
    assert not entered
    assert not list(tmp_path.iterdir())


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
