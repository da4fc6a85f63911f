import numpy as np
import pytest

from protoad import encoder as enc
from protoad import evalharness, pipeline
from protoad import prototypes as proto
from protoad.augment import (ShiftFamily, StrongAugConfig, WeakAugConfig,
                             strong_batch, weak_batch)
from protoad.config import preset
from protoad.data import Dataset, ValidationError
from protoad.evalharness import auroc, earlystop_score

from oracles import logsumexp_rows_by_copy, spearman


def _pairwise_auroc(scores, labels):
    """Brute force: 1 per normal > anomaly pair, 0.5 per tie, over all pairs."""
    normal = scores[labels == 1]
    anomaly = scores[labels == 0]
    wins = (normal[:, None] > anomaly[None, :]).sum()
    ties = (normal[:, None] == anomaly[None, :]).sum()
    return (wins + 0.5 * ties) / (len(normal) * len(anomaly))


@pytest.mark.parametrize("seed", range(8))
def test_auroc_matches_pairwise_count_with_many_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 300))
    scores = rng.integers(0, 6, size=n).astype(float)    # few values: heavy ties
    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]
    assert auroc(scores, labels) == _pairwise_auroc(scores, labels)


def test_auroc_all_tied_is_one_half():
    assert auroc(np.full(7, 3.0), np.array([1, 0, 1, 0, 1, 0, 1])) == 0.5


def test_auroc_perfect_separation():
    assert auroc([0.1, 0.2, 0.9, 0.8], [0, 0, 1, 1]) == 1.0
    assert auroc([0.1, 0.2, 0.9, 0.8], [1, 1, 0, 0]) == 0.0


def test_auroc_needs_both_classes():
    with pytest.raises(ValidationError):
        auroc([0.1, 0.2], [1, 1])


def test_spearman_with_ties_uses_average_ranks():
    # Ranks of [1, 1, 2] are [1.5, 1.5, 3], identical to those of [0, 0, 5].
    assert spearman([1.0, 1.0, 2.0], [0.0, 0.0, 5.0]) == pytest.approx(1.0, abs=1e-12)


def _earlystop_oracle(params, protos, validation, weak_cfg, strong_cfg, shifts, rng):
    """The early-stop formula written out: summed raw-similarity energies."""
    X = validation.features
    view_a = weak_batch(X, weak_cfg, rng)
    view_b = weak_batch(strong_batch(X, strong_cfg, rng), weak_cfg, rng)

    def per_view(rows):
        copies = np.split(enc.embed(params, shifts.expand(rows)[0]), shifts.count)
        # One (m, d) block of the stack per shift slot.
        return np.sum([logsumexp_rows_by_copy(z @ b.T)
                       for z, b in zip(copies, protos.vectors)], axis=0)

    scores = np.concatenate([per_view(view_a), per_view(view_b)])
    labels = np.repeat([1, 0], len(X))
    return auroc(scores, labels)


@pytest.mark.parametrize("count", [1, 4])
def test_earlystop_score_matches_oracle(count):
    rng = np.random.default_rng(count)
    X = rng.normal(size=(40, 6))
    validation = Dataset(X, np.zeros(40, dtype=np.int64), np.arange(40),
                         np.zeros(40, dtype=np.int64))
    shifts = ShiftFamily.random(6, count=count, seed=3)
    params = enc.init(1, enc.EncoderDims(input=6, hidden=16, embed=5, shifts=count))
    fitted = proto.fit(enc.embed(params, shifts.expand(X)[0]), 4, seed=2)
    protos = proto.PrototypeSet(fitted.vectors.reshape(count, -1, 5))
    weak, strong = WeakAugConfig(noise_sigma=0.1), StrongAugConfig(noise_sigma=0.6)
    args = (params, protos, validation, weak, strong, shifts)
    got = earlystop_score(*args, np.random.default_rng(8))
    assert got == _earlystop_oracle(*args, np.random.default_rng(8))
    assert 0.0 < got < 1.0


@pytest.mark.parametrize("mode", ["elsa", "elsa_plus"])
def test_finetune_loss_total_is_the_sum_of_its_terms(mode):
    outcome, _ = pipeline.finetune_and_eval(pipeline.prepare(preset("smoke").replace(mode=mode)))
    keys = ["total", "anomaly_term", "normal_term", "shift_term"]
    first, *rest = [m.loss for m in outcome.trace]
    assert list(first) == keys and first["shift_term"] == 0.0
    assert np.isnan([first["total"], first["anomaly_term"], first["normal_term"]]).all()
    assert rest
    for loss in rest:
        assert list(loss) == keys
        if mode == "elsa":
            assert loss["shift_term"] == 0.0
        else:
            assert loss["shift_term"] > 0.0
        assert loss["total"] == pytest.approx(
            loss["anomaly_term"] + loss["normal_term"] + loss["shift_term"], rel=1e-12)


def test_finetune_embeds_training_set_only_on_refresh_epochs(monkeypatch):
    # The refresh follows from the shift slots. ELSA's one slot is refit, and
    # the training set re-embedded, at every epoch; ELSA+ embeds the training
    # set once, for the initial per-slot fit, and never refits.
    calls = []
    embed, refresh = evalharness.prototype_inputs, proto.refresh

    def counting(name, fn):
        def recorded(*args):
            calls.append(name)
            return fn(*args)
        return recorded

    for owner in (evalharness, pipeline):
        monkeypatch.setattr(owner, "prototype_inputs", counting("embed", embed))
    monkeypatch.setattr(proto, "refresh", counting("refresh", refresh))
    for mode, refits in (("elsa", True), ("elsa_plus", False)):
        ctx = pipeline.prepare(preset("smoke").replace(mode=mode, finetune_epochs=4))
        calls.clear()
        outcome, _ = pipeline.finetune_and_eval(ctx)
        assert [m.prototype_refresh_flag for m in outcome.trace] == [False] + [refits] * 4
        assert calls == ["embed"] + ["embed", "refresh"] * 4 * refits
    initial = ctx.rc.fit_prototypes(embed(ctx.pretrained.params, ctx.split.train,
                                          ctx.rc.shift_family()))
    assert np.array_equal(outcome.best_prototypes.vectors, initial.vectors)


def test_cosine_score_meets_the_identity_slot_alone():
    # Under ELSA+ a rotated slot may hold a prototype equal to a clean row's
    # embedding; the clean rows are scored in the identity's slot 0 alone.
    rc = preset("smoke")
    test = pipeline.build_splits(rc).test
    params = rc.initial_params()
    emb = enc.embed(params, test.features)
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(rc.shift_count, 2, rc.embed_dim))
    vectors /= np.linalg.norm(vectors, axis=-1, keepdims=True)
    vectors[1, 0] = emb[0]
    protos = proto.PrototypeSet(vectors)
    scores = evalharness.evaluate_scores("cosine", params, protos, test, None,
                                         WeakAugConfig(), rc.shift_family(), rc.tau, 1, rng)
    assert np.array_equal(scores, np.max(emb @ vectors[0].T, axis=1))
    assert scores[0] < 1.0 - 1e-6
