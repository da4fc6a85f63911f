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
ES_ELSA_PLUS = [0.5555555555555556, 0.5555555555555556, 0.4444444444444444,
                0.3333333333333333]
TEST_ELSA_PLUS = [0.8216145833333334, 0.8177083333333334, 0.8177083333333334,
                  0.80859375]


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
        "final_auroc": 0.875,
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
                      "final_auroc": 0.875, "earlystop_trace": ES_ELSA_PLUS})
    _check(cells[1], {
        "normal_config": 1, "anomaly_mix": [1, 2, 3],
        "split_hash": "b211b41f0e6ee740c4b0905c06102fcecc60e6a65ae63435f1be798f6a165d5f",
        "best_checkpoint_epoch": 0, "final_auroc": 0.828125,
        "earlystop_trace": [0.8888888888888888, 0.7777777777777778,
                            0.8888888888888888, 0.4444444444444444]})
    _close(report["mean_auroc"], 0.8515625)
    _close(report["stderr_auroc"], 0.023437499999999997)


def test_golden_run_ablation():
    rows = pipeline.run_ablation(preset("smoke"), [("uniformity", "naive"),
                                                   ("cosine", "deepsad"),
                                                   ("energy", "elsa")])
    expected = [
        ("uniformity", "naive", 0.9401041666666666,
         [0.8216145833333334, 0.8203125, 0.8203125, 0.80859375]),
        ("cosine", "deepsad", 0.8177083333333334,
         [0.8216145833333334, 0.8203125, 0.8203125, 0.80859375]),
        ("energy", "elsa", 0.875, TEST_ELSA_PLUS),
    ]
    assert len(rows) == len(expected)
    for row, (score, loss, final, test_trace) in zip(rows, expected):
        _check(row, {"score_name": score, "loss_name": loss, "strict_scores": True,
                     "split_hash": SMOKE_SPLIT, "best_checkpoint_epoch": 0,
                     "final_auroc": final, "earlystop_trace": ES_ELSA_PLUS,
                     "test_auroc_trace": test_trace})


def test_golden_prototype_count_sweep():
    # k=1 cannot guarantee positive scores (ln 1 < 1/tau), and the loss runs anyway.
    rows = pipeline.prototype_count_sweep(preset("smoke"), ks=[1, 8], seeds=[0])
    assert len(rows) == 2
    _check(rows[0], {"n_prototypes": 1, "strict_scores": False, "seed": 0,
                     "best_checkpoint_epoch": 0, "final_auroc": 0.22526041666666666,
                     "earlystop_trace": [0.3333333333333333, 0.3333333333333333,
                                         0.2222222222222222, 0.3333333333333333],
                     "test_auroc_trace": [0.37890625, 0.3802083333333333,
                                          0.37890625, 0.3684895833333333]})
    _check(rows[1], {"n_prototypes": 8, "strict_scores": True, "seed": 0,
                     "best_checkpoint_epoch": 0, "final_auroc": 0.875,
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
    assert "best epoch 1 " in out.getvalue()

    def sha(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert sha("data.train.ds") == \
        "973682280c319651b0ce39347bb10e807a9c0f2d67be9695b08313b015f8b82d"
    assert sha("pre.ckpt") == \
        "caebcd177248be27b8e6b02a56438c20cc9713b82f3487db6397af9760347efc"
    assert sha("ft.ckpt") == \
        "63f3f0838035c9551a59ac1b62f7a146c1b2e2fea4447621f947da8598f06b91"
    assert sha("scores.jsonl") == \
        "9e9a2b266f8a1c68b9bee10b1500d44eb1bbd7c54eb94f6ad9231871d640ba4a"
    result = json.loads((tmp_path / "eval.json").read_text())
    assert result["count"] == 64
    _close(result["auroc"], 0.8619791666666666)


@pytest.mark.parametrize("mode, expected", [
    ("elsa", {
        "pre.ckpt": "b842f5a348e846625ba9a8e81d76138e7d30fea479637c5d20f08a7644373399",
        "ft.ckpt": "268c8e3df22ffb9ccb1fe29fdceaed183de8eb745ab1c35121abfc2416e182ab",
        "scores.jsonl": "ce6b551f1fb2568e08d65c289cd1a0fdc38a88e1dad909eb93019987d1f9455b",
        "auroc": 0.4596354166666667,
    }),
    ("elsa_plus", {
        "pre.ckpt": "caebcd177248be27b8e6b02a56438c20cc9713b82f3487db6397af9760347efc",
        "ft.ckpt": "63f3f0838035c9551a59ac1b62f7a146c1b2e2fea4447621f947da8598f06b91",
        "scores.jsonl": "9e9a2b266f8a1c68b9bee10b1500d44eb1bbd7c54eb94f6ad9231871d640ba4a",
        "auroc": 0.8619791666666666,
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
