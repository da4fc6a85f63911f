"""Fine-tuning, metrics, early stopping, and test-time scoring.

AUROC is computed rank-wise (average ranks for ties), so every reported
number is invariant under monotone transforms of the scores. The early-stop
signal needs no labels: it is the AUROC separating weakly-augmented samples
from weakly-augmented *strong* distortions of the same held-out split, and
the fine-tuning loop keeps whichever epoch maximizes it.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from . import encoder as enc
from . import objective as obj
from . import prototypes as proto
from .augment import ShiftFamily, StrongAugConfig, WeakAugConfig, strong_batch
from .data import Dataset, ValidationError, clustering_pool, require
from .mathcore import as_f64
from .pretrain import train_epoch


# --------------------------------------------------------------------------
# Rank statistics
# --------------------------------------------------------------------------

def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return (last - 0.5 * (counts - 1))[inverse]


def auroc(scores, labels) -> float:
    """P(score_normal > score_anomaly) + 0.5 * P(tie); labels 1=normal, 0=anomaly."""
    s = as_f64(scores, "scores")
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValidationError("scores and labels must be 1-D and aligned")
    pos = y == 1
    n1 = int(pos.sum())
    n0 = len(y) - n1
    if n1 == 0 or n0 == 0:
        raise ValidationError("auroc needs both classes present")
    ranks = _average_ranks(s)
    return float((ranks[pos].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


# --------------------------------------------------------------------------
# Early stopping
# --------------------------------------------------------------------------

def earlystop_score(
    params: enc.EncoderParams,
    protos: proto.PrototypeSet,
    validation: Dataset,
    weak_cfg: WeakAugConfig,
    strong_cfg: StrongAugConfig,
    shifts: ShiftFamily,
    rng: np.random.Generator,
) -> float:
    """Label-free validation AUROC: originals vs strong distortions.

    View A is a weak draw of each held-out sample, view B a weak draw of a
    strong distortion of it. Both views are expanded over every shifting
    transform; a sample's score is the sum over shifts of the raw-similarity
    energy against the prototypes (``objective.summed_shift_energy``, one
    draw, no temperature). Originals get label 1.
    """
    if len(validation) == 0:
        raise ValidationError("validation set is empty")
    X = validation.features

    def energy(rows):
        return obj.summed_shift_energy(rows, params, protos.vectors, weak_cfg, shifts, rng)

    # Draw order: weak(X), then strong(X), then weak(strong(X)).
    originals = energy(X)
    scores = np.concatenate([originals, energy(strong_batch(X, strong_cfg, rng))])
    labels = np.concatenate([np.ones(len(X), dtype=np.int64),
                             np.zeros(len(X), dtype=np.int64)])
    return auroc(scores, labels)


# --------------------------------------------------------------------------
# Fine-tuning loop
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FinetuneConfig:
    epochs: int = 50
    batch_size: int = 64
    lr: float = 1e-4
    tau: float = 0.5
    loss_name: str = "elsa"
    seed: int = 0

    def __post_init__(self):
        require((self.epochs >= 0, f"epochs must be >= 0, got {self.epochs}"),
                (self.batch_size >= 1, f"batch_size must be >= 1, got {self.batch_size}"),
                (self.lr > 0, f"lr must be positive, got {self.lr}"),
                (self.tau > 0, f"tau must be positive, got {self.tau}"),
                (self.loss_name in obj.LOSSES,
                 f"loss_name must be one of {obj.LOSSES}, got {self.loss_name!r}"))


@dataclass
class MetricsRecord:
    epoch: int
    loss: Dict[str, float]
    earlystop_auroc: float
    test_auroc: Optional[float]
    prototype_refresh_flag: bool
    wallclock: float


@dataclass
class RunResult:
    best_checkpoint_epoch: int
    trace: List[MetricsRecord]
    best_params: enc.EncoderParams
    best_prototypes: proto.PrototypeSet

    def __post_init__(self):
        if self.best_checkpoint_epoch not in {m.epoch for m in self.trace}:
            raise ValidationError("best epoch must appear in the trace")


def prototype_inputs(params: enc.EncoderParams, dataset: Dataset,
                     shifts: ShiftFamily) -> np.ndarray:
    """Embeddings the prototypes are fit on, one shift-major block per slot.

    The training set is enlarged by every shifting transform, so the
    clustering pool covers the shifted copies too (each claims prototypes of
    its own slot).
    """
    feats = dataset.features[clustering_pool(dataset)]
    return enc.embed(params, shifts.expand(feats)[0])


def _sub_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def finetune_loop(params: enc.EncoderParams, protos: proto.PrototypeSet, train: Dataset,
                  validation: Dataset, weak_cfg: WeakAugConfig, strong_cfg: StrongAugConfig,
                  shifts: ShiftFamily, cfg: FinetuneConfig,
                  eval_probe: Optional[Callable[..., float]] = None) -> RunResult:
    """Energy fine-tuning with labeled anomalies (Step-3 of the pipeline).

    Batches run through ``pretrain.train_epoch`` with Adam. Every batch sample
    is expanded into two weak views, ``shift(weak(x))`` over all shifting
    transforms; semi-labels repeat across the expansion. Each copy is scored
    against its slot's block of m prototypes, with C = ln m + 1/tau.
    With one slot (ELSA) the prototypes are refit from the current
    (non-anomalous) embeddings at every epoch; several slots (ELSA+) keep
    their initial fit and never re-embed the training set. The early-stop
    score is recorded each epoch and the best-scoring snapshot is returned.
    The loss refuses only scores at its poles, whatever k and tau are.
    ``eval_probe(params, protos)``, when given, only logs a per-epoch test
    metric; it never influences training or model selection.
    """
    params = params.copy()
    refits = shifts.count == 1
    C = obj.c_constant(protos.vectors.shape[1], cfg.tau)
    rng = _sub_rng(cfg.seed, 1)
    m_state, v_state = params.zeros_like(), params.zeros_like()
    n_steps = 0
    trace: List[MetricsRecord] = []
    t0 = time.time()
    # The order of ``record``'s loss means; ``total`` includes ``shift_term``.
    loss_keys = ("total", "anomaly_term", "normal_term", "shift_term")

    def record(epoch: int, loss_means, refreshed: bool):
        es = earlystop_score(params, protos, validation, weak_cfg, strong_cfg,
                             shifts, _sub_rng(cfg.seed, 2, epoch))
        ta = eval_probe(params, protos) if eval_probe is not None else None
        trace.append(MetricsRecord(epoch=epoch, loss=dict(zip(loss_keys, loss_means)),
                                   earlystop_auroc=es, test_auroc=ta,
                                   prototype_refresh_flag=refreshed,
                                   wallclock=time.time() - t0))

    def energy(embed, take):
        # Two views, each shift-major (``two_views``): one block per (view, slot).
        copies = embed.reshape(2, shifts.count, -1, embed.shape[1])
        scores, ds_de = obj.energy_score_grad(copies, protos.vectors, cfg.tau)
        b, d_scores = obj.loss_by_name(cfg.loss_name, scores.ravel(), train.semi[take], C)
        return ((b.total, b.anomaly_term, b.normal_term),
                d_scores[:, None] * ds_de.reshape(embed.shape))

    def adam(grads):
        nonlocal n_steps
        n_steps += 1
        enc.adam_step(params, m_state, v_state, grads, n_steps, cfg.lr)

    nan = float("nan")
    record(0, (nan, nan, nan, 0.0), refreshed=False)
    best_epoch, best_score = 0, trace[0].earlystop_auroc
    best_params, best_protos = params.copy(), protos

    for epoch in range(1, cfg.epochs + 1):
        if refits:
            protos = proto.refresh(protos, prototype_inputs(params, train, shifts), epoch, 1)
        table = train_epoch(params, train.features, cfg.batch_size, rng, weak_cfg,
                            energy, adam, shifts, min_rows=1, shift_first=False)
        means = [0.0] * len(loss_keys)
        if len(table):
            total, anomaly, normal, ce = table.T
            means = [float(np.mean(c)) for c in (total + ce, anomaly, normal, ce)]
        record(epoch, means, refits)
        if trace[-1].earlystop_auroc > best_score:
            best_score, best_epoch = trace[-1].earlystop_auroc, epoch
            best_params, best_protos = params.copy(), protos

    return RunResult(best_checkpoint_epoch=best_epoch, trace=trace,
                     best_params=best_params, best_prototypes=best_protos)


# --------------------------------------------------------------------------
# Test-time scoring
# --------------------------------------------------------------------------

def reference_embeddings(params: enc.EncoderParams, train: Dataset) -> np.ndarray:
    """The uniformity score's reference set: the plain (unshifted) embeddings
    of the training rows not labeled anomalous."""
    return enc.embed(params, train.features[clustering_pool(train)])


def evaluate_scores(
    score_name: str,
    params: enc.EncoderParams,
    protos: proto.PrototypeSet,
    test: Dataset,
    train: Optional[Dataset],
    weak_cfg: WeakAugConfig,
    shifts: ShiftFamily,
    tau: float,
    n_ensemble: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-sample normality scores on a test set under one scoring rule.

    The cosine rule scores the clean rows in the identity's slot 0 alone. Only
    the uniformity rule reads ``train``, for its reference embeddings.
    """
    if score_name == "energy":
        return obj.score_ensemble(test.features, params, protos.vectors, tau,
                                  weak_cfg, shifts, n_ensemble, rng)
    if score_name == "cosine":
        return obj.score_cosine(enc.embed(params, test.features), protos.vectors[0])
    if score_name == "uniformity":
        if train is None:
            raise ValidationError("uniformity scoring needs a training set as its "
                                  "reference, and there is none")
        return obj.score_uniformity(enc.embed(params, test.features),
                                    reference_embeddings(params, train))
    raise ValidationError(f"unknown score {score_name!r}; expected one of {obj.SCORES}")


def test_auroc_probe(test: Dataset, tau: float
                     ) -> Callable[[enc.EncoderParams, proto.PrototypeSet], float]:
    """Per-epoch test metric: clean-embedding energy AUROC in the identity's ``vectors[0]``."""
    labels = test.eval_normal_labels()

    def probe(params: enc.EncoderParams, protos: proto.PrototypeSet) -> float:
        emb = enc.embed(params, test.features)
        return auroc(obj.energy_score(emb, protos.vectors[0], tau), labels)

    return probe


def split_hash(*datasets: Dataset) -> str:
    """Stable digest of the ids and semi-labels of a collection of splits."""
    h = hashlib.sha256()
    for ds in datasets:
        h.update(np.ascontiguousarray(ds.ids).tobytes())
        h.update(np.ascontiguousarray(ds.semi).tobytes())
    return h.hexdigest()
