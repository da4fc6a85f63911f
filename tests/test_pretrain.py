import math

import numpy as np
import pytest

from protoad import encoder as enc
from protoad import pretrain
from protoad.augment import ShiftFamily, WeakAugConfig
from protoad.config import preset
from protoad.data import (LABELED_ANOMALY, ScenarioConfig, SyntheticSpec,
                          ValidationError, build_scenario, generate)
from protoad.mathcore import NumericError
from protoad.pipeline import build_splits
from protoad.pretrain import (ContrastiveBatch, PretrainConfig, _pair_terms,
                              contrastive_loss, decompose_loss, pretrain_loop,
                              two_views)

from gradcheck import grad_check

LN_E2_PLUS_2 = 2.2395447662218845  # log(e^2 + 2), 40-digit evaluation
ONE_SLOT = ShiftFamily.random(8, count=1)    # ELSA: the identity alone


def _orthogonal_fixture():
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    return ContrastiveBatch(view1=np.stack([u, v]), view2=np.stack([u, v]),
                            tau=0.5)


def _random_batch(m, z, tau, seed, norms=(1.0, 1.0)):
    """Random rows with norms drawn uniformly from ``norms`` (unit by default)."""
    rng = np.random.default_rng(seed)
    v1 = rng.normal(size=(m, z))
    v2 = rng.normal(size=(m, z))
    v1 *= rng.uniform(*norms, size=(m, 1)) / np.linalg.norm(v1, axis=1, keepdims=True)
    v2 *= rng.uniform(*norms, size=(m, 1)) / np.linalg.norm(v2, axis=1, keepdims=True)
    return ContrastiveBatch(view1=v1, view2=v2, tau=tau)


def test_contrastive_orthogonal_fixture():
    # every anchor contributes -ln(e^2 / (e^2 + 2))
    loss, _, _ = contrastive_loss(_orthogonal_fixture())
    assert loss == pytest.approx(LN_E2_PLUS_2 - 2.0, abs=1e-12)


def test_contrastive_identical_embeddings():
    m = 4
    e = np.ones(3) / np.sqrt(3.0)
    batch = ContrastiveBatch(np.tile(e, (m, 1)), np.tile(e, (m, 1)), tau=0.5)
    loss, _, _ = contrastive_loss(batch)
    assert loss == pytest.approx(math.log(2 * m - 1), abs=1e-12)


def test_contrastive_needs_two_samples():
    with pytest.raises(ValidationError):
        ContrastiveBatch(np.ones((1, 3)), np.ones((1, 3)), tau=0.5)


def _grad_check_contrastive(batch):
    m, z = batch.view1.shape

    def f(flat):
        views = flat.reshape(2 * m, z)
        b = ContrastiveBatch(views[:m], views[m:], batch.tau)
        loss, g1, g2 = contrastive_loss(b)
        return loss, np.vstack([g1, g2]).ravel()

    point = np.vstack([batch.view1, batch.view2]).ravel()
    report = grad_check(f, point, h=1e-5)
    assert report.max_rel_error < 1e-5


def test_contrastive_grad():
    _grad_check_contrastive(_random_batch(4, 5, 0.5, seed=0))


def test_contrastive_grad_sharp_tau_odd_rows():
    # tau=0.07 sharpens the logits; 2m = 10 rows is not a multiple of 8.
    _grad_check_contrastive(_random_batch(5, 5, 0.07, seed=0))


def test_decompose_identity_on_random_batches():
    for seed in range(30):
        batch = _random_batch(int(3 + seed % 6), 6, 0.5, seed)
        loss, _, _ = contrastive_loss(batch)
        align, uniform = decompose_loss(batch)
        assert abs(loss - (align + uniform)) < 1e-12


def test_decompose_orthogonal_fixture_values():
    align, uniform = decompose_loss(_orthogonal_fixture())
    assert align == pytest.approx(-2.0, abs=1e-12)
    assert uniform == pytest.approx(LN_E2_PLUS_2, abs=1e-12)


def test_decompose_flat_fixture():
    m = 4
    e = np.ones(3) / np.sqrt(3.0)
    batch = ContrastiveBatch(np.tile(e, (m, 1)), np.tile(e, (m, 1)), tau=0.5)
    align, uniform = decompose_loss(batch)
    assert align + uniform == pytest.approx(math.log(2 * m - 1), abs=1e-12)
    assert align == pytest.approx(-2.0, abs=1e-12)


def _out_of_place_oracle(batch):
    """The original row-max kernel, one fresh n x n array per step: (loss, g1, g2, pos, lse)."""
    E = np.vstack([batch.view1, batch.view2])
    two_m = len(E)
    partner = (np.arange(two_m) + two_m // 2) % two_m
    sims = (E @ E.T) / batch.tau
    np.fill_diagonal(sims, -np.inf)
    shift = np.max(sims, axis=1, keepdims=True)
    ex = np.exp(sims - shift)
    z = ex.sum(axis=1, keepdims=True)
    lse = (shift + np.log(z))[:, 0]
    pos = sims[np.arange(two_m), partner]
    g = (ex / z).copy()
    g[np.arange(two_m), partner] -= 1.0
    g /= two_m * batch.tau
    d_embed = g @ E + g.T @ E
    m = two_m // 2
    return float(np.mean(lse - pos)), d_embed[:m], d_embed[m:], pos, lse


def _assert_rel_close(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want)), (got, want)


# Non-unit rows (norms in [0.5, 2]) put the Cauchy-Schwarz shift c above
# 1/tau and leave short rows far below it; 2m = 74, 4, 258, 122 and 10 rows
# are not multiples of 8.
@pytest.mark.parametrize("norms", [(1.0, 1.0), (0.5, 2.0)], ids=["unit", "norms"])
@pytest.mark.parametrize("m, z, tau", [(512, 16, 0.5), (37, 5, 0.07),
                                       (2, 3, 1.0), (129, 7, 0.2),
                                       (61, 16, 0.5), (5, 16, 0.07)])
def test_contrastive_matches_out_of_place_oracle(m, z, tau, norms):
    batch = _random_batch(m, z, tau, seed=m, norms=norms)
    views = (batch.view1.copy(), batch.view2.copy())
    loss, g1, g2 = contrastive_loss(batch)
    o_loss, o_g1, o_g2, o_pos, o_lse = _out_of_place_oracle(batch)
    _assert_rel_close(loss, o_loss)
    _assert_rel_close(g1, o_g1)
    _assert_rel_close(g2, o_g2)
    align, uniform = decompose_loss(batch)
    _assert_rel_close(align, float(np.mean(-o_pos)))
    _assert_rel_close(uniform, float(np.mean(o_lse)))
    assert np.array_equal(batch.view1, views[0])
    assert np.array_equal(batch.view2, views[1])


def test_contrastive_long_rows_do_not_overflow():
    # Rows of norm 3 at tau=0.01 reach logits near 900: a shift of 1/tau,
    # right only for unit rows, would overflow exp; c = max ||e||^2 / tau
    # does not.
    rng = np.random.default_rng(11)
    v = rng.normal(size=16) + 0.1 * rng.normal(size=(40, 16))
    v *= 3.0 / np.linalg.norm(v, axis=1, keepdims=True)
    batch = ContrastiveBatch(v[:20], v[20:], tau=0.01)
    loss, g1, g2 = contrastive_loss(batch)
    o_loss, o_g1, o_g2, _, _ = _out_of_place_oracle(batch)
    _assert_rel_close(loss, o_loss)
    _assert_rel_close(g1, o_g1)
    _assert_rel_close(g2, o_g2)


def test_contrastive_underflowing_row_sum_raises():
    # Each anchor's nearest other rows are orthogonal to it, so its row sum
    # is 2 exp(-1/tau), which is 0 at tau=0.001; the old row-max kernel
    # survived.
    e = np.eye(2)
    batch = ContrastiveBatch(view1=e, view2=-e, tau=0.001)
    assert np.isfinite(_out_of_place_oracle(batch)[0])
    with pytest.raises(NumericError):
        contrastive_loss(batch)
    with pytest.raises(NumericError):
        decompose_loss(batch)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_contrastive_non_finite_view_raises(value):
    # The kernel's row sums catch a non-finite view.
    v = np.random.default_rng(5).normal(size=(8, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v[2, 1] = value
    batch = ContrastiveBatch(view1=v[:4], view2=v[4:], tau=0.5)
    with pytest.raises(NumericError, match="row sum"):
        contrastive_loss(batch)


# ------------------------------------------------------------------ loop

def _train_split(seed=0, samples=120, anomaly_classes=2):
    pool = generate(SyntheticSpec(input_dim=8, normal_subclusters=2,
                                  anomaly_classes=anomaly_classes,
                                  samples_per_class=samples, seed=seed))
    return build_scenario(pool, ScenarioConfig(scenario="s1", gamma_l=0.1,
                                               seed=seed))


def _dims(shifts=1):
    return enc.EncoderDims(input=8, hidden=32, embed=8, shifts=shifts)


def test_pretrain_zero_epochs_leaves_encoder_unchanged():
    split = _train_split()
    params = enc.init(0, _dims())
    cfg = PretrainConfig(epochs=0, batch_size=32, seed=0)
    result = pretrain_loop(split.train, params, WeakAugConfig(), ONE_SLOT, cfg)
    assert np.array_equal(result.params.to_vector(), params.to_vector())
    assert len(result.metrics) == 1


def test_pretrain_probe_loss_trend():
    # Trend oracle at the synthetic-default scale: the fixed probe batch
    # loss falls from start to finish, and the means of consecutive 5-epoch
    # windows fall strictly, starting from the epoch-0 value. Single
    # epoch-to-epoch steps are not checked: on the plateau the loss falls
    # by about 0.005 per epoch, while constant-step SGD moves the probe
    # loss by up to 0.01, so single rises there are jitter, not a reversal.
    pool = generate(SyntheticSpec(seed=0))
    split = build_scenario(pool, ScenarioConfig(scenario="s1", gamma_l=0.1,
                                                seed=0))
    params = enc.init(1, enc.EncoderDims(input=32, hidden=64, embed=16, shifts=1))
    cfg = PretrainConfig(epochs=25, batch_size=128, seed=1)
    result = pretrain_loop(split.train, params, WeakAugConfig(),
                           ShiftFamily.random(32, count=1), cfg)
    probe = np.array([m.probe_loss for m in result.metrics])
    assert probe[-1] < probe[0]
    window = 5
    means = probe[1:].reshape(cfg.epochs // window, window).mean(axis=1)
    trend = np.concatenate(([probe[0]], means))
    assert np.all(np.diff(trend) < 0), trend


@pytest.mark.parametrize("mode, probe_loss, shift_accuracy", [
    ("elsa", [4.2663609495166614, 4.1117221108955295, 3.8616108070821027,
              3.723297379569744, 3.689483516165706], [None] * 5),
    ("elsa_plus", [5.660374284929303, 5.4518266459342914, 4.9910824953824235,
                   4.9467386087023, 5.056294228253002],
     [0.3203125, 0.4453125, 0.66015625, 0.7734375, 0.8046875]),
])
def test_pretrain_probe_trace_pinned(mode, probe_loss, shift_accuracy):
    # Exact per-epoch probe values of a 4-epoch smoke pre-train.
    rc = preset("smoke").replace(mode=mode, seed=1)
    split = build_splits(rc)
    weak, _ = rc.resolve_augs(split.train.features)
    result = pretrain_loop(split.train, rc.initial_params(), weak,
                           rc.shift_family(), rc.pretrain_config())
    assert [m.probe_loss for m in result.metrics] == probe_loss
    assert [m.shift_accuracy for m in result.metrics] == shift_accuracy


def test_pretrain_never_touches_labeled_anomalies(monkeypatch):
    # Every row pre-training sees, in its batches and its probe, passes
    # through two_views; record them all.
    split = _train_split()
    anomalies = {row.tobytes() for row in
                 split.train.features[split.train.semi == LABELED_ANOMALY]}
    assert anomalies
    seen = set()

    def recording_two_views(X, *args, **kwargs):
        seen.update(row.tobytes() for row in X)
        return two_views(X, *args, **kwargs)

    monkeypatch.setattr(pretrain, "two_views", recording_two_views)
    cfg = PretrainConfig(epochs=2, batch_size=32, seed=2)
    pretrain_loop(split.train, enc.init(2, _dims()), WeakAugConfig(), ONE_SLOT, cfg)
    assert seen and not (seen & anomalies)


def test_pretrain_deterministic():
    split = _train_split()
    cfg = PretrainConfig(epochs=3, batch_size=32, seed=5)
    runs = [pretrain_loop(split.train, enc.init(3, _dims()), WeakAugConfig(),
                          ONE_SLOT, cfg) for _ in range(2)]
    assert np.array_equal(runs[0].params.to_vector(), runs[1].params.to_vector())
    losses = [[m.loss for m in r.metrics[1:]] for r in runs]  # epoch 0 is NaN
    assert losses[0] == losses[1]
    probes = [[m.probe_loss for m in r.metrics] for r in runs]
    assert probes[0] == probes[1]


def test_pretrain_shift_mode_head_learns():
    split = _train_split(samples=150)
    shifts = ShiftFamily.random(8, count=4, seed=0)
    params = enc.init(4, _dims(shifts=4))
    cfg = PretrainConfig(epochs=20, batch_size=32, seed=4)
    result = pretrain_loop(split.train, params, WeakAugConfig(), shifts, cfg)
    # held-out data: the validation split, expanded over all shifts
    rows, ids = shifts.expand(split.validation.features)
    logits = enc.shift_logits(result.params, rows)
    acc = float(np.mean(np.argmax(logits, axis=1) == ids))
    assert acc > 1.0 / shifts.count + 0.2


def test_pretrain_training_energy_rises():
    # The pathology the fine-tuning stage exists to fix: contrastive
    # pre-training drives the training samples' own energy up (equivalently,
    # their uniformity-based normality score down).
    split = _train_split(samples=200)
    params = enc.init(6, _dims())
    cfg = PretrainConfig(epochs=25, batch_size=32, seed=6)
    result = pretrain_loop(split.train, params, WeakAugConfig(), ONE_SLOT, cfg)
    s_cont = [m.probe_uniformity_mean for m in result.metrics]
    energy = [-s for s in s_cont]
    assert energy[-1] > energy[0]


@pytest.mark.parametrize("m", [512, 400])
def test_contrastive_workspace_changes_no_bit(m):
    # 2m = 1024 fills the workspace; 2m = 800 runs on a shorter view of it.
    batch = _random_batch(m, 16, 0.5, seed=m)
    work = np.full(1024 * 1024, np.nan)
    loss, g1, g2 = contrastive_loss(batch, work)
    o_loss, o_g1, o_g2 = contrastive_loss(batch)
    assert loss == o_loss
    assert np.array_equal(g1, o_g1)
    assert np.array_equal(g2, o_g2)
    _, _, pos, lse, _, _ = _pair_terms(batch, work)
    _, _, o_pos, o_lse, _, _ = _pair_terms(batch)
    assert np.array_equal(pos, o_pos)
    assert np.array_equal(lse, o_lse)
