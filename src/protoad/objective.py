"""Normality scores and training losses, each with its analytic gradient.

The central score is the prototype energy: S(x) = logsumexp_p(sim(e, p)/tau)
over unit embeddings e and unit prototypes p, bounded in
[ln k - 1/tau, ln k + 1/tau]. The fine-tuning loss drives 1/S down for
(mostly) normal samples and 1/(C - S) down for labeled anomalies, with the
cap C = ln k + 1/tau attained only when a sample matches every prototype
perfectly. Ablation scores (nearest-prototype cosine, reference-set
uniformity) and losses (naive, inverse-anomaly-only) live here too.

``_energy`` is the one energy form: ``energy_score``, ``energy_score_grad``
and both ``score_ensemble`` modes reach it, so the early-stop score and the
test probe do too. ``_two_terms`` is the one loss body: every loss is a
term over labeled anomalies plus a term over the rest, and ``loss_elsa``,
``loss_naive`` and ``loss_deepsad`` keep only their per-group values and
their own domain checks.

Every score takes a 2-D batch, one sample per row, and returns one float64
score per row; a single sample is a batch of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import encoder as enc
from .augment import ShiftFamily, WeakAugConfig, weak_batch
from .data import LABELED_ANOMALY, ValidationError
from .mathcore import NumericError, logsumexp_rows_inplace, row_max, softmax_rows

C_MODES = ("canonical", "appendix")


def c_constant(n_prototypes: int, tau: float, mode: str = "canonical") -> float:
    """The score cap C used by the inverse losses.

    canonical: ln(k) + 1/tau, the score when sim = 1 against all prototypes.
    appendix:  ln(k + 1/tau), kept for comparison with the literal pseudocode.
    """
    if mode not in C_MODES:
        raise ValidationError(f"unknown c-mode {mode!r}")
    if n_prototypes < 1 or tau <= 0:
        raise ValidationError("need n_prototypes >= 1 and tau > 0")
    if mode == "appendix":
        return math.log(n_prototypes + 1.0 / tau)
    return math.log(n_prototypes) + 1.0 / tau


@dataclass
class LossBreakdown:
    total: float
    anomaly_term: float
    normal_term: float
    shift_term: float = 0.0


def _energy(E: np.ndarray, P: np.ndarray, tau: float
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(scores, w, z)``: ``w`` the max-shifted exp of ``E @ P.T / tau``, ``z`` its
    row sums (one column), scores = shift + log(z); a non-finite score raises."""
    if len(P) == 0:
        raise ValidationError("prototype set is empty")
    w = E @ P.T
    w /= tau
    shift = row_max(w)[:, None]
    w -= shift
    np.exp(w, out=w)
    z = np.sum(w, axis=1, keepdims=True)
    scores = (shift + np.log(z))[:, 0]
    if not np.isfinite(scores).all():
        raise NumericError(f"non-finite energy score at tau={tau}")
    return scores, w, z


def energy_score(E: np.ndarray, prototypes: np.ndarray, tau: float) -> np.ndarray:
    """Normality score S = logsumexp_p(sim(e, p)/tau) per row; higher = more normal."""
    return _energy(E, prototypes, tau)[0]


def energy_score_grad(E: np.ndarray, prototypes: np.ndarray, tau: float
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Batch scores plus dS/dE rows: softmax(logits) @ P / tau, softmax = w / z."""
    scores, w, z = _energy(E, prototypes, tau)
    w /= z
    grad = w @ prototypes
    grad /= tau
    return scores, grad


def score_cosine(E: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Similarity of each row to its nearest prototype; no temperature."""
    return np.max(E @ prototypes.T, axis=1)


# Similarities per row block of ``score_uniformity``: 2**18 float64, 2 MB.
_UNIFORMITY_BLOCK = 1 << 18


def score_uniformity(E: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """log sum_{r in reference} exp(sim(e, r)) per row; the contrastive-objective score.

    The caller must exclude ``e`` itself from the reference set when present.
    Memory: query rows are scored in blocks of
    max(1, _UNIFORMITY_BLOCK // len(reference)) rows. One block's
    similarities take at most 2 MB (one row, when the reference set alone is
    larger) and are reduced in place, so the working memory stays one block
    however many rows are scored.
    """
    if len(reference) == 0:
        raise ValidationError("empty reference")
    step = max(1, _UNIFORMITY_BLOCK // len(reference))
    s = np.empty(len(E))
    for start in range(0, len(E), step):
        s[start:start + step] = logsumexp_rows_inplace(E[start:start + step] @ reference.T)
    return s


def uniformity_scores_self(E: np.ndarray) -> np.ndarray:
    """Per-row uniformity score against the remaining rows of the same batch."""
    if len(E) < 2:
        raise ValidationError("need at least two rows for self-referenced scores")
    sims = E @ E.T
    np.fill_diagonal(sims, -np.finfo(np.float64).max)    # its exp is exactly 0
    return logsumexp_rows_inplace(sims)


def _groups(scores, semi) -> Tuple[np.ndarray, np.ndarray]:
    """``(scores, is_anomaly)``: the scores and the labeled-anomaly mask."""
    semi = np.asarray(semi, dtype=np.int64)
    if len(semi) != len(scores):
        raise ValidationError("scores and semi-labels must share one length")
    return scores, semi == LABELED_ANOMALY


def _two_terms(s, is_anom, anomaly, normal) -> Tuple[LossBreakdown, np.ndarray]:
    """Every loss: ``anomaly`` and ``normal`` are ``(values, derivatives)`` on the
    scores of the labeled anomalies and of the rest, each summed over n."""
    n = len(s)
    grad = np.empty_like(s)
    grad[is_anom] = anomaly[1] / n
    grad[~is_anom] = normal[1] / n
    anom_sum, norm_sum = anomaly[0].sum(), normal[0].sum()
    breakdown = LossBreakdown(total=float((anom_sum + norm_sum) / n),
                              anomaly_term=float(anom_sum / n),
                              normal_term=float(norm_sum / n))
    if not np.isfinite(breakdown.total):
        raise NumericError("non-finite loss value")
    return breakdown, grad


def loss_elsa(scores, semi, C: float, strict: bool = True
              ) -> Tuple[LossBreakdown, np.ndarray]:
    """Mean of 1/(C - S) over labeled anomalies and 1/S over everything else.

    strict mode rejects scores outside (0, C) — that always signals a
    misconfigured tau / prototype count. Permissive mode mirrors the raw
    arithmetic (used by the prototype-count sweep, where k = 1 makes the
    domain guarantee impossible) and only rejects non-finite results.
    """
    s, is_anom = _groups(scores, semi)
    if strict and (np.any(s <= 0.0) or np.any(s >= C)):
        raise NumericError("score out of (0, C)")
    if not strict and (np.any(s == 0.0) or np.any(s == C)):
        raise NumericError("score exactly at a pole of the loss")
    gap, rest = C - s[is_anom], s[~is_anom]
    return _two_terms(s, is_anom, (1.0 / gap, 1.0 / gap ** 2),
                      (1.0 / rest, -1.0 / rest ** 2))


def loss_naive(scores, semi) -> Tuple[LossBreakdown, np.ndarray]:
    """Mean of +S over labeled anomalies and -S over everything else."""
    s, is_anom = _groups(scores, semi)
    return _two_terms(s, is_anom, (s[is_anom], 1.0), (-s[~is_anom], -1.0))


def loss_deepsad(scores, semi, C: float) -> Tuple[LossBreakdown, np.ndarray]:
    """Mean of 1/(C - S) over labeled anomalies and -S over everything else."""
    s, is_anom = _groups(scores, semi)
    if np.any(s[is_anom] >= C):
        raise NumericError("score out of (0, C)")
    gap = C - s[is_anom]
    return _two_terms(s, is_anom, (1.0 / gap, 1.0 / gap ** 2), (-s[~is_anom], -1.0))


def loss_shift(logits, shift_ids) -> Tuple[float, np.ndarray]:
    """Mean softmax cross-entropy for predicting which shift was applied."""
    ids = np.asarray(shift_ids, dtype=np.int64)
    if logits.ndim != 2 or len(ids) != len(logits):
        raise ValidationError("logits and shift ids must align")
    if np.any(ids < 0) or np.any(ids >= logits.shape[1]):
        raise ValidationError("shift id out of range")
    probs = softmax_rows(logits)
    n = len(logits)
    picked = probs[np.arange(n), ids]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    probs[np.arange(n), ids] -= 1.0
    probs /= n
    return loss, probs


LOSSES = ("elsa", "naive", "deepsad")
SCORES = ("energy", "cosine", "uniformity")


def loss_by_name(name: str, scores, semi, C: float, strict: bool = True
                 ) -> Tuple[LossBreakdown, np.ndarray]:
    if name == "elsa":
        return loss_elsa(scores, semi, C, strict=strict)
    if name == "naive":
        return loss_naive(scores, semi)
    if name == "deepsad":
        return loss_deepsad(scores, semi, C)
    raise ValidationError(f"unknown loss {name!r}; expected one of {LOSSES}")


ENSEMBLE_MODES = ("scores", "embeddings")


def score_ensemble(
    X,
    params: enc.EncoderParams,
    prototypes: np.ndarray,
    tau: float,
    weak_cfg: WeakAugConfig,
    shifts: ShiftFamily,
    n_samples: int,
    rng: np.random.Generator,
    mode: str = "scores",
) -> np.ndarray:
    """Ensembled normality score over weak draws and shifting transforms.

    "scores" (default): mean of the energy score over n_samples weak views of
    every shifted copy, S_en(x) = E[S(weak(shift(x)))].
    "embeddings": average the embeddings of the weak views per shifted copy
    first, then sum raw-similarity energies over shifts (the evaluation
    recipe of the reference pseudocode; no temperature, so ``tau`` = 1).
    """
    if mode not in ENSEMBLE_MODES:
        raise ValidationError(f"unknown ensemble mode {mode!r}")
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    n = len(X)
    k_s = shifts.count

    if mode == "scores":
        acc = np.zeros(n)
        for k in range(k_s):
            shifted = shifts.apply(X, k)
            for _ in range(n_samples):
                emb = enc.embed(params, weak_batch(shifted, weak_cfg, rng))
                acc += energy_score(emb, prototypes, tau)
        return acc / (k_s * n_samples)
    zbar = np.zeros((k_s * n, prototypes.shape[1]))
    for _ in range(n_samples):
        rows = shifts.expand(weak_batch(X, weak_cfg, rng))[0]
        zbar += enc.embed(params, rows)
    zbar /= n_samples
    return _energy(zbar, prototypes, 1.0)[0].reshape(k_s, n).sum(axis=0)
