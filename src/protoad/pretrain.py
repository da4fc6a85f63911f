"""Unsupervised contrastive pre-training of the encoder.

The loss is the two-view instance-discrimination objective: for each anchor,
the positive is its partner view and the denominator runs over all other
embeddings in the doubled batch (the positive included, the anchor itself
excluded). It decomposes exactly into an alignment term (pull positives
together) and a uniformity term (push everything apart); ``decompose_loss``
returns the two terms.

The n x n kernel rests on three facts, all in float64:

* The logits ``L = E @ (E / tau).T`` go through GEMM; ``E @ E.T`` would go
  through syrk, which is several times slower at these shapes.
* By Cauchy-Schwarz every logit is at most ``c = max_i ||e_i||^2 / tau``, so
  one scalar shift makes ``exp(L - c)`` overflow-free for unit rows or not,
  and ``logsumexp_i = c + log(z_i)`` with ``z`` the row sums of
  ``X = exp(L - c)`` (diagonal zeroed).
* With one global shift ``X`` is symmetric, so both gradient directions
  come from one product:
  ``g @ E + g.T @ E = (X @ E / z + X @ (E / z) - 2 E[partner]) / (2m tau)``.

The price of the scalar shift is a finite domain: a row sum ``z`` falls
below the smallest normal float64 once every off-diagonal logit of its row
is more than about 708 below ``c``. For unit rows that takes ``tau`` below
about 0.0028; the kernel then raises ``NumericError`` instead of returning
inf or nan.

Every view is expanded over the shifting transforms (ELSA's family is the
identity alone). With more than one transform, shifted copies act as
negatives of each other and a cross-entropy term teaches the head to recover
the shift index.

``train_epoch`` is the one epoch driver of both training stages: this
module's contrastive pre-training and ``evalharness.finetune_loop``'s energy
fine-tuning pass it their loss on the embeddings and their optimizer step.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import encoder as enc
from .augment import ShiftFamily, WeakAugConfig, weak_batch
from .data import Dataset, ValidationError, clustering_pool
from .mathcore import NumericError
from .objective import loss_shift, uniformity_scores_self


@dataclass(frozen=True)
class ContrastiveBatch:
    """Two augmented views of the same samples, one embedding row each."""

    view1: np.ndarray
    view2: np.ndarray
    tau: float

    def __post_init__(self):
        if self.view1.shape != self.view2.shape or self.view1.ndim != 2:
            raise ValidationError("views must be 2-D arrays of identical shape")
        if len(self.view1) < 2:
            raise ValidationError("contrastive batch needs at least 2 samples")
        if self.tau <= 0:
            raise ValidationError("tau must be positive")


_TINY = np.finfo(np.float64).tiny   # smallest normal float64


def _pair_terms(batch: ContrastiveBatch, work: Optional[np.ndarray] = None):
    """Shared plumbing: ``(E, partner, pos, lse, z, X)``.

    ``X = exp(L - c)`` is the one n x n buffer, the head of the flat float64
    ``work`` when given, with its diagonal zeroed; ``z`` holds its row sums
    and ``lse = c + log(z)``. The shift ``c`` is the largest diagonal logit,
    ``max_i ||e_i||^2 / tau``, which bounds every logit by Cauchy-Schwarz;
    being one scalar, it leaves ``X`` symmetric, which the gradient relies
    on. ``pos`` is read before the buffer is overwritten. Raises
    ``NumericError`` when a row sum is no longer a normal float64 (for unit
    rows: ``tau`` below about 0.0028) or is NaN (a non-finite view).
    """
    E = np.vstack([batch.view1, batch.view2])
    two_m = len(E)
    partner = (np.arange(two_m) + two_m // 2) % two_m
    out = None if work is None else work[:two_m * two_m].reshape(two_m, two_m)
    X = np.matmul(E, (E / batch.tau).T.copy(), out=out)
    c = float(np.max(np.diagonal(X)))
    pos = X[np.arange(two_m), partner]
    X -= c
    np.exp(X, out=X)
    np.fill_diagonal(X, 0.0)
    z = X.sum(axis=1)
    if not np.min(z) >= _TINY:
        raise NumericError(f"contrastive row sum underflows or is NaN at tau={batch.tau}")
    lse = c + np.log(z)
    return E, partner, pos, lse, z, X


def contrastive_loss(batch: ContrastiveBatch, work: Optional[np.ndarray] = None
                     ) -> Tuple[float, np.ndarray, np.ndarray]:
    """Loss averaged over both view directions, plus gradients per view.

    One GEMM against ``[E, E / z]`` serves both gradient directions; see the
    module docstring for the symmetry identity; ``work`` as in ``_pair_terms``.
    """
    E, partner, pos, lse, z, X = _pair_terms(batch, work)
    two_m, d = E.shape
    loss = float(np.mean(lse - pos))
    XE = X @ np.hstack([E, E / z[:, None]])
    d_embed = XE[:, :d] / z[:, None] + XE[:, d:] - 2.0 * E[partner]
    d_embed /= two_m * batch.tau
    m = two_m // 2
    return loss, d_embed[:m], d_embed[m:]


def decompose_loss(batch: ContrastiveBatch) -> Tuple[float, float]:
    """(alignment, uniformity) terms; their sum equals the contrastive loss."""
    _, _, pos, lse, _, _ = _pair_terms(batch)
    return float(np.mean(-pos)), float(np.mean(lse))


_PROBE_SIZE = 128    # clean samples in the fixed per-epoch probe batch


@dataclass(frozen=True)
class PretrainConfig:
    epochs: int = 200
    batch_size: int = 128
    lr: float = 0.05
    momentum: float = 0.9
    tau: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 2:
            raise ValidationError("need epochs >= 0 and batch_size >= 2")
        if self.lr <= 0 or not (0.0 <= self.momentum < 1.0):
            raise ValidationError("bad optimizer settings")
        if self.tau <= 0:
            raise ValidationError("tau must be positive")


@dataclass
class PretrainEpochRecord:
    epoch: int
    loss: float
    align: float
    uniform: float
    probe_loss: float
    probe_uniformity_mean: float
    shift_accuracy: Optional[float]
    wallclock: float


@dataclass
class PretrainResult:
    params: enc.EncoderParams
    metrics: List[PretrainEpochRecord]


def two_views(X, weak_cfg, shifts, rng, shift_first=True):
    """Two independent weak views of a raw batch, each over every shift.

    Returns ``(view1, view2, shift_ids)``. With ``shift_first`` each view is
    ``weak(shift(x))``: every shifted copy gets its own noise and mask, as in
    pre-training and its probe. Without it each view is ``shift(weak(x))``:
    all copies of a row share one draw, as in fine-tuning. Masking does not
    commute with the shifts, so unifying the two orders changes results. The
    random draws come in the same order either way: view 1, then view 2.
    """
    if shift_first:
        rows, ids = shifts.expand(X)
        return weak_batch(rows, weak_cfg, rng), weak_batch(rows, weak_cfg, rng), ids
    view1, ids = shifts.expand(weak_batch(X, weak_cfg, rng))
    view2, _ = shifts.expand(weak_batch(X, weak_cfg, rng))
    return view1, view2, ids


def train_epoch(params: enc.EncoderParams, feats: np.ndarray, batch_size: int,
                rng: np.random.Generator, views: Callable, loss: Callable,
                step: Callable, shifts: ShiftFamily, min_rows: int) -> list:
    """One pass over ``feats`` in a fresh ``rng`` order: both stages' training step.

    Batches of fewer than ``min_rows`` rows are skipped. Per batch of row
    indices ``take``: ``views(X)`` gives ``(view1, view2, shift_ids)``, one
    forward pass embeds both views, ``loss(embed, take)`` gives ``(record,
    d_embed)``, the shift cross-entropy joins when there is more than one
    shift, and ``step(grads)`` follows one backward pass. Returns ``(record,
    shift_ce)`` per batch, ``shift_ce`` None for one shift. Program functions
    are read as module attributes at call time, so that wrappers installed
    from outside (the bench tracer) see every call.
    """
    order = rng.permutation(len(feats))
    out = []
    for start in range(0, len(order), batch_size):
        take = order[start:start + batch_size]
        if len(take) < min_rows:
            continue
        view1, view2, ids = views(feats[take])
        cache = enc.forward(params, np.vstack([view1, view2]))
        record, d_embed = loss(cache.embed, take)
        ce = d_logits = None
        if shifts.count > 1:
            ce, d_logits = loss_shift(enc.head_logits(params, cache), np.tile(ids, 2))
        step(enc.backward(params, cache, d_embed=d_embed, d_logits=d_logits))
        out.append((record, ce))
    return out


def pretrain_loop(dataset: Dataset, params: enc.EncoderParams, weak_cfg: WeakAugConfig,
                  shifts: ShiftFamily, cfg: PretrainConfig) -> PretrainResult:
    """Minibatch SGD (with momentum) on the contrastive loss.

    Labeled anomalies are excluded outright: only ``clustering_pool`` rows
    train. Record 0 in the metrics captures the untouched initial state; with
    ``epochs=0`` the encoder is returned unchanged.
    """
    if len(dataset) == 0:
        raise ValidationError("empty dataset")
    params = params.copy()
    keep = clustering_pool(dataset)
    if len(keep) < 2:
        raise ValidationError("need at least 2 non-anomalous samples")
    feats = dataset.features[keep]

    rng = np.random.default_rng(cfg.seed)
    probe_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7]))
    probe_idx = probe_rng.permutation(len(feats))[:min(_PROBE_SIZE, len(feats))]
    probe_clean = feats[probe_idx]
    pv1, pv2, _ = two_views(probe_clean, weak_cfg, shifts, probe_rng)
    n_max = 2 * shifts.count * max(min(cfg.batch_size, len(feats)), len(probe_idx))
    work = np.empty(n_max * n_max)

    velocity = params.zeros_like()
    metrics: List[PretrainEpochRecord] = []

    def probe_record(epoch, ep_loss, ep_align, ep_uniform, t0):
        batch = ContrastiveBatch(enc.embed(params, pv1), enc.embed(params, pv2), cfg.tau)
        _, _, pos, lse, _, _ = _pair_terms(batch, work)
        p_unif = float(np.mean(uniformity_scores_self(enc.embed(params, probe_clean))))
        acc = None
        if shifts.count > 1:
            rows, ids = shifts.expand(probe_clean)
            logits = enc.shift_logits(params, rows)
            acc = float(np.mean(np.argmax(logits, axis=1) == ids))
        metrics.append(PretrainEpochRecord(
            epoch=epoch, loss=ep_loss, align=ep_align, uniform=ep_uniform,
            probe_loss=float(np.mean(lse - pos)), probe_uniformity_mean=p_unif,
            shift_accuracy=acc, wallclock=time.time() - t0))

    def contrastive(embed, take):
        """Record ``(loss, align)``; the gradient covers both views."""
        m = len(embed) // 2
        batch = ContrastiveBatch(embed[:m], embed[m:], cfg.tau)
        loss, g1, g2 = contrastive_loss(batch, work)
        align = float(np.mean(-np.sum(batch.view1 * batch.view2, axis=1) / cfg.tau))
        return (loss, align), np.vstack([g1, g2])

    def sgd(grads):
        enc.sgd_momentum_step(params, velocity, grads, cfg.lr, cfg.momentum)

    views = functools.partial(two_views, weak_cfg=weak_cfg, shifts=shifts, rng=rng)
    t0 = time.time()
    probe_record(0, float("nan"), float("nan"), float("nan"), t0)
    for epoch in range(1, cfg.epochs + 1):
        batches = train_epoch(params, feats, cfg.batch_size, rng, views,
                              contrastive, sgd, shifts, min_rows=2)
        loss, align, ce = np.array([(*rec, ce or 0.0) for rec, ce in batches]).T
        probe_record(epoch, float(np.mean(loss + ce)), float(np.mean(align)),
                     float(np.mean(loss - align)), t0)
    return PretrainResult(params=params, metrics=metrics)
