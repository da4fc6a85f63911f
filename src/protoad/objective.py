"""Normality scores and training losses, each with its analytic gradient.

The central score is the prototype energy: S(x) = logsumexp_p(sim(e, p)/tau)
over unit embeddings e and unit prototypes p, bounded in
[ln k - 1/tau, ln k + 1/tau]. The fine-tuning loss drives 1/S down for
(mostly) normal samples and 1/(C - S) down for labeled anomalies, with the
cap C = ln k + 1/tau attained only when a sample matches every prototype
perfectly. Ablation scores (nearest-prototype cosine, reference-set
uniformity) and losses (naive, inverse-anomaly-only) live here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import encoder as enc
from .augment import ShiftFamily, WeakAugConfig, weak_batch
from .data import LABELED_ANOMALY, ValidationError
from .mathcore import NumericError, as_f64, logsumexp_rows_inplace, row_max, softmax_rows

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


def _rows(e) -> Tuple[np.ndarray, bool]:
    arr = as_f64(e, "embedding")
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def energy_score(e, prototypes: np.ndarray, tau: float) -> np.ndarray | float:
    """Normality score S = logsumexp_p(sim(e, p)/tau); higher = more normal."""
    E, single = _rows(e)
    P = as_f64(prototypes, "prototypes")
    if len(P) == 0:
        raise ValidationError("prototype set is empty")
    logits = E @ P.T
    logits /= tau
    s = logsumexp_rows_inplace(logits)
    return float(s[0]) if single else s


def energy_score_grad(E: np.ndarray, prototypes: np.ndarray, tau: float
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Batch scores plus dS/dE rows: softmax(logits) @ P / tau.

    One max-shifted exp serves both: scores = shift + log(z) and
    softmax = exp / z, the same operations as ``logsumexp_rows`` and
    ``softmax_rows`` run on the logits one after the other.
    """
    E = as_f64(E, "embeddings")
    P = as_f64(prototypes, "prototypes")
    w = E @ P.T
    w /= tau
    shift = row_max(w)[:, None]
    w -= shift
    np.exp(w, out=w)
    z = np.sum(w, axis=1, keepdims=True)
    scores = (shift + np.log(z))[:, 0]
    w /= z
    grad = w @ P
    grad /= tau
    return scores, grad


def score_cosine(e, prototypes: np.ndarray) -> np.ndarray | float:
    """Similarity to the nearest prototype; no temperature."""
    E, single = _rows(e)
    P = as_f64(prototypes, "prototypes")
    if len(P) == 0:
        raise ValidationError("prototype set is empty")
    s = np.max(E @ P.T, axis=1)
    return float(s[0]) if single else s


# Similarities per row block of ``score_uniformity``: 2**18 float64, 2 MB.
_UNIFORMITY_BLOCK = 1 << 18


def score_uniformity(e, reference: np.ndarray) -> np.ndarray | float:
    """log sum_{r in reference} exp(sim(e, r)); the contrastive-objective score.

    The caller must exclude ``e`` itself from the reference set when present.
    Memory: query rows are scored in blocks of
    max(1, _UNIFORMITY_BLOCK // len(reference)) rows. One block's
    similarities take at most 2 MB (one row, when the reference set alone is
    larger) and are reduced in place, so the working memory stays one block
    however many rows are scored.
    """
    E, single = _rows(e)
    R = as_f64(reference, "reference")
    if R.ndim == 1:
        R = R[None, :]
    if len(R) == 0:
        raise ValidationError("empty reference")
    step = max(1, _UNIFORMITY_BLOCK // len(R))
    s = np.empty(len(E))
    for start in range(0, len(E), step):
        s[start:start + step] = logsumexp_rows_inplace(E[start:start + step] @ R.T)
    return float(s[0]) if single else s


def uniformity_scores_self(E: np.ndarray) -> np.ndarray:
    """Per-row uniformity score against the remaining rows of the same batch."""
    E = as_f64(E, "embeddings")
    if len(E) < 2:
        raise ValidationError("need at least two rows for self-referenced scores")
    sims = E @ E.T
    np.fill_diagonal(sims, -np.inf)
    shift = np.max(sims, axis=1, keepdims=True)
    sims -= shift
    np.exp(sims, out=sims)
    return (shift + np.log(np.sum(sims, axis=1, keepdims=True)))[:, 0]


def _split_semi(semi: np.ndarray, n: int) -> np.ndarray:
    semi = np.asarray(semi, dtype=np.int64)
    if len(semi) != n:
        raise ValidationError("scores and semi-labels must share one length")
    return semi == LABELED_ANOMALY


def loss_elsa(scores, semi, C: float, strict: bool = True
              ) -> Tuple[LossBreakdown, np.ndarray]:
    """Mean of 1/(C - S) over labeled anomalies and 1/S over everything else.

    strict mode rejects scores outside (0, C) — that always signals a
    misconfigured tau / prototype count. Permissive mode mirrors the raw
    arithmetic (used by the prototype-count sweep, where k = 1 makes the
    domain guarantee impossible) and only rejects non-finite results.
    """
    s = as_f64(scores, "scores")
    is_anom = _split_semi(semi, len(s))
    if strict and (np.any(s <= 0.0) or np.any(s >= C)):
        raise NumericError("score out of (0, C)")
    if not strict and (np.any(s == 0.0) or np.any(s == C)):
        raise NumericError("score exactly at a pole of the loss")
    n = len(s)
    anom_gap = C - s[is_anom]
    anom_vals = 1.0 / anom_gap
    norm_vals = 1.0 / s[~is_anom]
    grad = np.empty_like(s)
    grad[is_anom] = (1.0 / anom_gap ** 2) / n
    grad[~is_anom] = (-1.0 / s[~is_anom] ** 2) / n
    breakdown = LossBreakdown(
        total=float((anom_vals.sum() + norm_vals.sum()) / n),
        anomaly_term=float(anom_vals.sum() / n),
        normal_term=float(norm_vals.sum() / n),
    )
    if not np.isfinite(breakdown.total):
        raise NumericError("non-finite loss value")
    return breakdown, grad


def loss_naive(scores, semi) -> Tuple[LossBreakdown, np.ndarray]:
    """Mean of +S over labeled anomalies and -S over everything else."""
    s = as_f64(scores, "scores")
    is_anom = _split_semi(semi, len(s))
    n = len(s)
    grad = np.where(is_anom, 1.0, -1.0) / n
    return LossBreakdown(
        total=float((s[is_anom].sum() - s[~is_anom].sum()) / n),
        anomaly_term=float(s[is_anom].sum() / n),
        normal_term=float(-s[~is_anom].sum() / n),
    ), grad


def loss_deepsad(scores, semi, C: float) -> Tuple[LossBreakdown, np.ndarray]:
    """Mean of 1/(C - S) over labeled anomalies and -S over everything else."""
    s = as_f64(scores, "scores")
    is_anom = _split_semi(semi, len(s))
    if np.any(s[is_anom] >= C):
        raise NumericError("score out of (0, C)")
    n = len(s)
    gap = C - s[is_anom]
    grad = np.empty_like(s)
    grad[is_anom] = (1.0 / gap ** 2) / n
    grad[~is_anom] = -1.0 / n
    return LossBreakdown(
        total=float(((1.0 / gap).sum() - s[~is_anom].sum()) / n),
        anomaly_term=float((1.0 / gap).sum() / n),
        normal_term=float(-s[~is_anom].sum() / n),
    ), grad


def loss_shift(logits, shift_ids) -> Tuple[float, np.ndarray]:
    """Mean softmax cross-entropy for predicting which shift was applied."""
    L = as_f64(logits, "logits")
    ids = np.asarray(shift_ids, dtype=np.int64)
    if L.ndim != 2 or len(ids) != len(L):
        raise ValidationError("logits and shift ids must align")
    if np.any(ids < 0) or np.any(ids >= L.shape[1]):
        raise ValidationError("shift id out of range")
    probs = softmax_rows(L)
    n = len(L)
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
    recipe of the reference pseudocode; no temperature).
    """
    if mode not in ENSEMBLE_MODES:
        raise ValidationError(f"unknown ensemble mode {mode!r}")
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    X, single = _rows(X)
    P = as_f64(prototypes, "prototypes")
    n = len(X)
    k_s = shifts.count

    if mode == "scores":
        acc = np.zeros(n)
        for k in range(k_s):
            shifted = shifts.apply(X, k)
            for _ in range(n_samples):
                emb = enc.embed(params, weak_batch(shifted, weak_cfg, rng))
                acc += energy_score(emb, P, tau)
        out = acc / (k_s * n_samples)
    else:
        zbar = np.zeros((k_s * n, P.shape[1]))
        for _ in range(n_samples):
            rows = shifts.expand(weak_batch(X, weak_cfg, rng))[0]
            zbar += enc.embed(params, rows)
        zbar /= n_samples
        per_shift = logsumexp_rows_inplace(zbar @ P.T).reshape(k_s, n)
        out = per_shift.sum(axis=0)
    return float(out[0]) if single else out
