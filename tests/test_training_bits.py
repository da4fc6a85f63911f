"""Exact-bit pins of both training stages.

``tests/test_golden.py`` compares AUROCs to 1e-9; this file hashes the raw
training outputs with SHA-256: the pre-trained ``params.flat`` and every
pre-train record (wallclock excluded), then the fine-tuned
``best_params.flat`` and every per-epoch loss dict. Floats enter the hash
through ``json.dumps``, whose ``repr`` round-trips exactly. A refactor of the
training loops that is meant to keep behaviour must leave these unchanged.

``odd_batches`` and ``many_batches`` are the smoke split (64 pre-train rows,
70 fine-tune rows) with batch sizes that leave one row over in both stages:
pre-training skips a one-row batch, fine-tuning trains on it. With 9 and 24
batches per epoch, ``many_batches`` also runs the per-epoch means over more
than the 8 values below which numpy sums them in plain order.
"""
import dataclasses
import hashlib
import json

import pytest

from protoad import pipeline
from protoad.config import preset
from protoad.evalharness import clustering_pool


def _digests(rc):
    ctx = pipeline.prepare(rc)
    outcome, _ = pipeline.finetune_and_eval(ctx)
    pre = hashlib.sha256(ctx.pretrained.params.flat.tobytes())
    records = [{k: v for k, v in dataclasses.asdict(m).items() if k != "wallclock"}
               for m in ctx.pretrained.metrics]
    pre.update(json.dumps(records, sort_keys=True).encode())
    ft = hashlib.sha256(outcome.best_params.flat.tobytes())
    ft.update(json.dumps([m.loss for m in outcome.trace], sort_keys=True).encode())
    return pre.hexdigest(), ft.hexdigest(), outcome.best_checkpoint_epoch


@pytest.mark.parametrize("changes, pretrain, finetune, best_epoch", [
    ({"mode": "elsa"},
     "7fbed120b3582fd792ca48d8be3be3c54024a1346557c18f6a0a7ca2e197e596",
     "83acfa486b178e648cd55f71d85330ea1855c06e391129babc3fa0cbc199deb8", 0),
    ({"mode": "elsa_plus"},
     "aa1554fd1f73208bef7efd289ea11ee294f92ba8a2afa61f1980b05b5af09f86",
     "54825cb69d1faba9a30a7c29badf3e4cf4e188cb9b55d383346551647555834f", 0),
    ({"pretrain_batch": 21, "finetune_batch": 23},
     "34064da6e6c773b42eecfa9ec57fac3094e6508399b3e5a6de8b4cb736fc25c4",
     "43920b35a4bb170916dbe189f9d67ddf515e1bc384ab2f91e49f9ddfd2586f9b", 0),
    ({"pretrain_batch": 7, "finetune_batch": 3},
     "1e08febea91d0fb2ae03a218d5e67b7f3e068819091b89462cc825b0f2ae623b",
     "62c5753770e5b3cf1418abeecd1f5129246941f983d7ca9b25ae3aa18994c7ea", 0),
], ids=["smoke_elsa", "smoke_elsa_plus", "odd_batches", "many_batches"])
def test_training_outputs_are_pinned_bit_for_bit(changes, pretrain, finetune, best_epoch):
    assert _digests(preset("smoke").replace(**changes)) == (pretrain, finetune, best_epoch)


@pytest.mark.parametrize("pretrain_batch, finetune_batch", [(21, 23), (7, 3)])
def test_odd_batches_leave_one_row_in_both_stages(pretrain_batch, finetune_batch):
    rc = preset("smoke").replace(pretrain_batch=pretrain_batch,
                                 finetune_batch=finetune_batch)
    train = pipeline.build_splits(rc).train
    assert len(clustering_pool(train)) % rc.pretrain_batch == 1
    assert len(train) % rc.finetune_batch == 1
