"""Golden values: seed-fixed end-to-end outputs on the ``smoke`` preset.

These pin the whole pipeline (data, pre-training, prototypes, fine-tuning,
ensembled scoring) and the CLI chain, so a refactor that is meant to keep
behaviour has to reproduce them exactly. AUROCs are compared to 1e-9, file
hashes exactly. Smoke runs keep their epoch-0 snapshot, so the per-epoch
traces are what pin fine-tuning itself.
"""
import contextlib
import hashlib
import io
import json

import pytest

from protoad import cli, pipeline
from protoad.config import preset

TOL = 1e-9
SMOKE_SPLIT = "a8adbd574cd5d73c9614e1f3e84b2816b468cdf3e81e1b3bac4d831521207861"
ES_ELSA_PLUS = [1.0, 1.0, 1.0, 0.3333333333333333]
TEST_ELSA_PLUS = [0.9557291666666666] * 4


def _close(actual, expected):
    assert actual == pytest.approx(expected, abs=TOL)


def _check(report, expected):
    for key, value in expected.items():
        if isinstance(value, float) or (isinstance(value, list) and value
                                        and isinstance(value[0], float)):
            _close(report[key], value)
        else:
            assert report[key] == value, key


@pytest.mark.parametrize("mode, expected", [
    ("elsa_plus", {
        "split_hash": SMOKE_SPLIT,
        "best_checkpoint_epoch": 0,
        "final_auroc": 0.9973958333333334,
        "pretrain_baseline_auroc": 0.9401041666666666,
        "earlystop_trace": ES_ELSA_PLUS,
        "test_auroc_trace": TEST_ELSA_PLUS,
    }),
    ("elsa", {
        "split_hash": SMOKE_SPLIT,
        "best_checkpoint_epoch": 0,
        "final_auroc": 0.6184895833333334,
        "pretrain_baseline_auroc": 0.4622395833333333,
        "earlystop_trace": [0.6666666666666666, 0.1111111111111111,
                            0.3333333333333333, 0.6666666666666666],
        "test_auroc_trace": [0.5859375, 0.59375, 0.5924479166666666,
                             0.5885416666666666],
    }),
])
def test_golden_run_single(mode, expected):
    _check(pipeline.run_single(preset("smoke").replace(mode=mode)), expected)


def test_golden_run_grid():
    report = pipeline.run_grid(preset("smoke"), n_normal_configs=2, n_anomaly_mixes=1)
    cells = report["cells"]
    assert len(cells) == 2
    _check(cells[0], {"normal_config": 0, "anomaly_mix": [1, 2, 3],
                      "split_hash": SMOKE_SPLIT, "best_checkpoint_epoch": 0,
                      "final_auroc": 0.9973958333333334, "earlystop_trace": ES_ELSA_PLUS})
    _check(cells[1], {
        "normal_config": 1, "anomaly_mix": [1, 2, 3],
        "split_hash": "b211b41f0e6ee740c4b0905c06102fcecc60e6a65ae63435f1be798f6a165d5f",
        "best_checkpoint_epoch": 0, "final_auroc": 0.9140625,
        "earlystop_trace": [1.0, 0.7777777777777778, 1.0, 0.8888888888888888]})
    _close(report["mean_auroc"], 0.9557291666666667)
    _close(report["stderr_auroc"], 0.041666666666666685)


def test_golden_run_ablation():
    rows = pipeline.run_ablation(preset("smoke"), [("uniformity", "naive"),
                                                   ("cosine", "deepsad"),
                                                   ("energy", "elsa")])
    other_losses = [0.9557291666666666] * 3 + [0.9544270833333334]
    expected = [
        ("uniformity", "naive", 0.9401041666666666, other_losses),
        ("cosine", "deepsad", 0.9609375, other_losses),
        ("energy", "elsa", 0.9973958333333334, TEST_ELSA_PLUS),
    ]
    assert len(rows) == len(expected)
    for row, (score, loss, final, test_trace) in zip(rows, expected):
        _check(row, {"score_name": score, "loss_name": loss,
                     "split_hash": SMOKE_SPLIT, "best_checkpoint_epoch": 0,
                     "final_auroc": final, "earlystop_trace": ES_ELSA_PLUS,
                     "test_auroc_trace": test_trace})


def test_golden_prototype_count_sweep():
    # k=4 is one prototype per shift slot, so ln(k/S) = 0 < 1/tau cannot
    # guarantee positive scores, and the loss runs anyway.
    rows = pipeline.prototype_count_sweep(preset("smoke"), ks=[4, 8], seeds=[0])
    assert len(rows) == 2
    _check(rows[0], {"n_prototypes": 4, "seed": 0,
                     "best_checkpoint_epoch": 0, "final_auroc": 0.9973958333333334,
                     "earlystop_trace": [1.0, 1.0, 1.0, 0.6666666666666666],
                     "test_auroc_trace": [0.9361979166666666, 0.9375,
                                          0.9388020833333334, 0.9388020833333334]})
    _check(rows[1], {"n_prototypes": 8, "seed": 0,
                     "best_checkpoint_epoch": 0, "final_auroc": 0.9973958333333334,
                     "earlystop_trace": ES_ELSA_PLUS,
                     "test_auroc_trace": TEST_ELSA_PLUS})


def test_golden_cli_chain(tmp_path):
    # The metrics JSONL files record wallclock and are not pinned.
    p = lambda name: str(tmp_path / name)
    common = ["--preset", "smoke", "--seed", "3"]
    steps = [
        ["gen-data", *common, "--out", p("data")],
        ["pretrain", *common, "--data", p("data"), "--out", p("pre.ckpt")],
        ["finetune", "--checkpoint", p("pre.ckpt"), "--data", p("data"),
         "--out", p("ft.ckpt")],
        ["score", "--checkpoint", p("ft.ckpt"), "--input", p("data.test.ds"),
         "--out", p("scores.jsonl")],
        ["eval", "--scores", p("scores.jsonl"), "--input", p("data.test.ds"),
         "--out", p("eval.json")],
    ]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        codes = [cli.main(argv) for argv in steps]
    assert codes == [0, 0, 0, 0, 0]
    assert "best epoch 0 " in out.getvalue()

    def sha(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert sha("data.train.ds") == \
        "973682280c319651b0ce39347bb10e807a9c0f2d67be9695b08313b015f8b82d"
    assert sha("pre.ckpt") == \
        "caebcd177248be27b8e6b02a56438c20cc9713b82f3487db6397af9760347efc"
    assert sha("ft.ckpt") == \
        "16c2bb427cad4484083fc6ad1a0a4ccbc3d9bc8599a17f7b5d351c40e8a97b81"
    assert sha("scores.jsonl") == \
        "43c902a7c78db10d5f913779b883149afcfcbdff7d3f17dc65693ce6664df45a"
    result = json.loads((tmp_path / "eval.json").read_text())
    assert result["count"] == 64
    _close(result["auroc"], 1.0)


@pytest.mark.parametrize("mode, expected", [
    ("elsa", {
        "pre.ckpt": "b842f5a348e846625ba9a8e81d76138e7d30fea479637c5d20f08a7644373399",
        "ft.ckpt": "3e93e41afd04b51386890f2e4968d82c0a01021556964520b01b1ac7741a9662",
        "scores.jsonl": "ce6b551f1fb2568e08d65c289cd1a0fdc38a88e1dad909eb93019987d1f9455b",
        "auroc": 0.4596354166666667,
    }),
    ("elsa_plus", {
        "pre.ckpt": "caebcd177248be27b8e6b02a56438c20cc9713b82f3487db6397af9760347efc",
        "ft.ckpt": "16c2bb427cad4484083fc6ad1a0a4ccbc3d9bc8599a17f7b5d351c40e8a97b81",
        "scores.jsonl": "43c902a7c78db10d5f913779b883149afcfcbdff7d3f17dc65693ce6664df45a",
        "auroc": 1.0,
    }),
])
def test_golden_cli_chain_by_mode(mode, expected, tmp_path):
    # Both modes through the CLI.
    p = lambda name: str(tmp_path / name)
    common = ["--preset", "smoke", "--seed", "3", "--mode", mode]
    steps = [
        ["gen-data", *common, "--out", p("data")],
        ["pretrain", *common, "--data", p("data"), "--out", p("pre.ckpt")],
        ["finetune", "--checkpoint", p("pre.ckpt"), "--data", p("data"),
         "--out", p("ft.ckpt")],
        ["score", "--checkpoint", p("ft.ckpt"), "--input", p("data.test.ds"),
         "--out", p("scores.jsonl")],
        ["eval", "--scores", p("scores.jsonl"), "--input", p("data.test.ds"),
         "--out", p("eval.json")],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in steps]
    assert codes == [0] * len(steps)
    for name in ("pre.ckpt", "ft.ckpt", "scores.jsonl"):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == \
            expected[name], name
    _close(json.loads((tmp_path / "eval.json").read_text())["auroc"], expected["auroc"])
