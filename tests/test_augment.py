import tracemalloc

import numpy as np
import pytest

from protoad import augment
from protoad.augment import (ShiftFamily, StrongAugConfig, WeakAugConfig,
                             strong_batch, weak_batch)
from protoad.config import RunConfig
from protoad.data import ValidationError

from oracles import exact_weak_cfg, weak_batch_by_copy


# ------------------------------------------------------------------- weak

def test_weak_identity_configuration(monkeypatch):
    x = np.array([1.0, -2.0, 3.0, 0.5])
    cfg = exact_weak_cfg(monkeypatch)
    out = weak_batch(x[None, :], cfg, np.random.default_rng(0))
    assert np.array_equal(out, x[None, :])


def test_weak_deterministic_under_seed():
    x = np.linspace(-1, 1, 32)
    cfg = WeakAugConfig()
    a = weak_batch(x[None, :], cfg, np.random.default_rng(7))
    b = weak_batch(x[None, :], cfg, np.random.default_rng(7))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("cfg", [WeakAugConfig(), WeakAugConfig(noise_sigma=0.3),
                                 WeakAugConfig(noise_sigma=0.0)])
def test_weak_equals_out_of_place_noise_bitwise(cfg):
    X = np.random.default_rng(1).normal(size=(300, 32))
    a = weak_batch(X, cfg, np.random.default_rng(5))
    b = weak_batch_by_copy(X, cfg, np.random.default_rng(5))
    assert np.array_equal(a, b)


# (noise sigma, mask fraction): both draws, no noise, and no mask.
@pytest.mark.parametrize("cfg", [(0.05, 0.1), (0.0, 0.1), (0.05, 0.0)])
def test_weak_into_given_buffers_equals_out_of_place_noise_bitwise(cfg, monkeypatch):
    noise_sigma, mask_fraction = cfg
    monkeypatch.setattr(augment, "MASK_FRACTION", mask_fraction)
    cfg = WeakAugConfig(noise_sigma=noise_sigma)
    X = np.random.default_rng(1).normal(size=(300, 32))
    X_before = X.copy()
    out, scratch = np.full_like(X, np.nan), np.full_like(X, np.nan)
    rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = weak_batch(X, cfg, rng, out, scratch)
    assert got is out
    assert np.array_equal(got, weak_batch_by_copy(X, cfg, want_rng))
    assert np.array_equal(X, X_before)
    assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("rows", [512, 64])
def test_weak_without_buffers_keeps_three_batch_sized_arrays_at_most(rows):
    # Pre-training draws 512-row views, 1324 calls per acceptance run, and
    # fine-tuning 64-row batches: each call still returns a fresh array and
    # holds at most the view, one draw buffer and argsort's indices at once.
    X = np.random.default_rng(2).normal(size=(rows, 32))
    rng = np.random.default_rng(3)
    first = weak_batch(X, WeakAugConfig(), rng)
    tracemalloc.start()
    try:
        second = weak_batch(X, WeakAugConfig(), rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert second is not first and not np.shares_memory(second, X)
    assert peak <= 3 * X.nbytes + 8192


def test_weak_masks_exactly_floor_fraction():
    # floor(0.1 * 32) = 3 zeroed coordinates per draw
    rng = np.random.default_rng(0)
    data = rng.normal(size=(1000, 32)) + 5.0  # bounded away from zero
    out = weak_batch(data, WeakAugConfig(), np.random.default_rng(1))
    zeros = (out == 0.0).sum(axis=1)
    assert np.all(zeros == 3)


def test_weak_config_validation():
    with pytest.raises(ValidationError, match="noise_sigma must be >= 0, got -0.1"):
        WeakAugConfig(noise_sigma=-0.1)
    WeakAugConfig(noise_sigma=0.0)


def test_weak_output_finite():
    rng = np.random.default_rng(3)
    out = weak_batch(rng.normal(size=(100, 16)), WeakAugConfig(),
                     np.random.default_rng(4))
    assert np.all(np.isfinite(out))


# ------------------------------------------------------------------ shift

def test_shift_slot_zero_is_identity():
    fam = ShiftFamily.random(dim=8, count=4, seed=0)
    x = np.arange(8.0)
    assert np.array_equal(fam.apply(x, 0), x)


def test_shift_preserves_norm():
    fam = ShiftFamily.random(dim=16, count=4, seed=1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=16)
    for k in range(fam.count):
        assert abs(np.linalg.norm(fam.apply(x, k)) - np.linalg.norm(x)) < 1e-9


def test_shift_into_a_given_buffer_equals_the_product_bitwise():
    fam = ShiftFamily.random(dim=32, count=3, seed=4)
    X = np.random.default_rng(5).normal(size=(100, 32))
    out = np.full_like(X, np.nan)
    assert fam.apply(X, 0, out=out) is X
    for k in (1, 2):
        assert fam.apply(X, k, out=out) is out
        assert np.array_equal(out, X @ fam.matrices[k].T)


def test_shift_orthogonality_tolerance():
    fam = ShiftFamily.random(dim=32, count=6, seed=3)
    for q in fam.matrices:
        assert np.max(np.abs(q.T @ q - np.eye(32))) < 1e-9


def test_shift_planar_rotation_fixture():
    rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    fam = ShiftFamily([np.eye(2), rot90])
    assert np.allclose(fam.apply(np.array([1.0, 0.0]), 1), [0.0, 1.0])


def test_shift_index_out_of_range():
    fam = ShiftFamily.random(dim=4, count=4, seed=0)
    with pytest.raises(ValidationError):
        fam.apply(np.zeros(4), 4)


def test_shift_family_rejects_non_identity_first():
    rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        ShiftFamily([rot90, np.eye(2)])


def test_shift_rejects_wrong_width():
    fam = ShiftFamily.random(dim=4, count=1)
    with pytest.raises(ValidationError):
        fam.expand(np.zeros((2, 5)))
    with pytest.raises(ValidationError):
        fam.apply(np.zeros(5), 0)


def test_shifts_mutually_distinguishable():
    fam = ShiftFamily.random(dim=16, count=4, seed=5)
    rng = np.random.default_rng(6)
    x = rng.normal(size=16)
    x /= np.linalg.norm(x)
    outs = [fam.apply(x, k) for k in range(fam.count)]
    for i in range(fam.count):
        for j in range(i + 1, fam.count):
            assert np.linalg.norm(outs[i] - outs[j]) > 1e-6


def test_shift_expand_layout():
    fam = ShiftFamily.random(dim=8, count=3, seed=0)
    X = np.random.default_rng(0).normal(size=(5, 8))
    rows, ids = fam.expand(X)
    assert rows.shape == (15, 8)
    assert np.array_equal(ids, np.repeat([0, 1, 2], 5))
    assert np.array_equal(rows[:5], X)
    assert fam.apply(X, 0) is X
    # ELSA's family is the identity alone: its expansion is X, uncopied.
    rows, ids = ShiftFamily.random(dim=8, count=1).expand(X)
    assert np.array_equal(rows, X)
    assert np.shares_memory(rows, X)
    assert np.array_equal(ids, np.zeros(5, dtype=np.int64))


# ----------------------------------------------------------------- strong

def test_strong_zero_probability_is_identity(monkeypatch):
    monkeypatch.setattr(augment, "STRONG_APPLY_PROBABILITY", 0.0)
    cfg = StrongAugConfig()
    x = np.linspace(-2, 2, 16)
    assert np.array_equal(strong_batch(x[None, :], cfg, np.random.default_rng(0)),
                          x[None, :])


def test_strong_deterministic_under_seed():
    cfg = StrongAugConfig()
    x = np.linspace(-2, 2, 16)
    a = strong_batch(x[None, :], cfg, np.random.default_rng(3))
    b = strong_batch(x[None, :], cfg, np.random.default_rng(3))
    assert np.array_equal(a, b)


def test_strong_dominates_weak_displacement():
    # Monte-Carlo estimate over 1000 samples: mean displacement ratio >= 4.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(1000, 32))
    weak_cfg, strong_cfg = RunConfig().resolve_augs(X)
    wd = np.linalg.norm(weak_batch(X, weak_cfg, np.random.default_rng(1)) - X,
                        axis=1).mean()
    sd = np.linalg.norm(strong_batch(X, strong_cfg, np.random.default_rng(2)) - X,
                        axis=1).mean()
    assert sd / wd >= 4.0


def test_strong_output_finite():
    rng = np.random.default_rng(9)
    out = strong_batch(rng.normal(size=(200, 16)), StrongAugConfig(),
                       np.random.default_rng(10))
    assert np.all(np.isfinite(out))
