"""The claims ratchet: what fine-tuning is meant to achieve, as gates on a fixed grid.

Every (mode, cell) of the grid is pre-trained with ``pipeline.prepare``,
fine-tuned with ``pipeline.finetune_stage`` and scored through
``pipeline.score_stage``, the shipped recipe, for three models: epoch 0, the
last epoch and the early-stopping pick ("final"). "Base" is the pre-train
uniformity baseline. Over the seed means of each (mode, cell):

- G1: final >= base, so fine-tuning adds to pre-training;
- G2: last >= 0.9 x epoch 0, so fine-tuning does not wreck the model;
- G3: final >= epoch 0 - 0.02, so early stopping does not pick a model
  worse than no fine-tuning at all.

``EXPECTED_FAILURES`` holds the (gate, mode, cell) triples that fail today.
The test fails when the computed set differs from it either way: a gate that
newly fails is a regression, and a gate that now passes leaves the set in
the same change, with its old and new values recorded in CHANGES.md.

The geometry is ``acceptance`` with 300 samples per class: cheap enough for
every test run, and it shows the ELSA s3 early-stopping miss, which
``smoke`` does not show. It also showed the ELSA+ fine-tuning collapse while
every shifted copy was scored against every slot's prototypes.
"""
import numpy as np
import pytest

from protoad import pipeline
from protoad.config import preset
from protoad.evalharness import auroc

MID = preset("acceptance").replace(samples_per_class=300)
MODES = ("elsa_plus", "elsa")
CELLS = {"s2 gp 0.1": {"scenario": "s2", "gamma_p": 0.1}, "s3": {"scenario": "s3"}}
SEEDS = (0, 1, 2)

EXPECTED_FAILURES = {("G1", "elsa", "s3"), ("G2", "elsa", "s3"), ("G3", "elsa", "s3")}


def _measure(rc):
    """Final, base, epoch-0 and last-epoch test AUROC of one run."""
    ctx = pipeline.prepare(rc)
    split = ctx.split
    kept = []

    def keep(params, protos):
        # The first model handed in stays; each later one replaces the last.
        kept[1:] = [(params.copy(), protos)]
        return float("nan")

    outcome = pipeline.finetune_stage(rc, ctx.pretrained.params, None, split.train,
                                      split.validation, eval_probe=keep)
    labels = split.test.eval_normal_labels()

    def shipped(params, protos):
        return auroc(pipeline.score_stage(rc, params, protos, split.test, split.train),
                     labels)

    (first, first_protos), (last, last_protos) = kept
    return {"final": shipped(outcome.best_params, outcome.best_prototypes),
            "base": pipeline.pretrain_uniformity_baseline(ctx),
            "epoch 0": shipped(first, first_protos),
            "last": shipped(last, last_protos)}


@pytest.fixture(scope="module")
def grid():
    """(mode, cell) -> the seed mean of each of ``_measure``'s AUROCs."""
    out = {}
    for mode in MODES:
        for cell, changes in CELLS.items():
            runs = [_measure(MID.replace(mode=mode, seed=seed, **changes)) for seed in SEEDS]
            out[mode, cell] = {key: float(np.mean([r[key] for r in runs])) for key in runs[0]}
    return out


def _failing(grid):
    failing = set()
    for (mode, cell), m in grid.items():
        for gate, ok in (("G1", m["final"] >= m["base"]),
                         ("G2", m["last"] >= 0.9 * m["epoch 0"]),
                         ("G3", m["final"] >= m["epoch 0"] - 0.02)):
            if not ok:
                failing.add((gate, mode, cell))
    return failing


def test_failing_gates_are_exactly_the_expected_set(grid):
    table = "\n".join(f"{mode} {cell}: " + ", ".join(f"{k} {v:.3f}" for k, v in m.items())
                      for (mode, cell), m in grid.items())
    failing = _failing(grid)
    assert failing == EXPECTED_FAILURES, (
        f"newly failing: {sorted(failing - EXPECTED_FAILURES)}; "
        f"now passing: {sorted(EXPECTED_FAILURES - failing)}\n{table}")
