"""Normality scores and training losses, each with its analytic gradient.

The central score is the prototype energy: S(x) = logsumexp_p(sim(e, p)/tau)
over unit embeddings e and unit prototypes p. The set is a (slots, m, d)
stack: each shift slot (ELSA has one, ELSA+ one per shifting transform) owns
one block of m prototypes, and a row of slot s meets block s alone, so
S(x) lies in [ln m - 1/tau, ln m + 1/tau]. The fine-tuning loss drives 1/S down for
(mostly) normal samples and 1/(C - S) down for labeled anomalies, with the
cap C = ln m + 1/tau attained only when a sample matches every prototype
of its slot perfectly. The losses refuse only their poles: a labeled anomaly
at or above C, and for the ELSA loss another row at exactly 0. Ablation scores
(nearest-prototype cosine, reference-set uniformity) and losses (naive,
inverse-anomaly-only) live here too.

``_energy`` is the one energy form: ``energy_score``, ``energy_score_grad``,
``score_ensemble`` and early stopping's ``summed_shift_energy`` reach it, so
the test probe does too. ``_two_terms`` is the one loss body: every loss is a
term over labeled anomalies plus a term over the rest. Each loss keeps its
per-group values, and ``_anomaly_gap`` is the one check of the pole at C.

Every score takes a 2-D batch, one sample per row, and returns one float64
score per row; a single sample is a batch of one.

``score_ensemble`` runs on two threads: a producer thread draws the weak
views, shift by shift, from the caller's one generator in the serial order,
while the calling thread embeds and scores the views drawn before, so every
bit is the serial loop's. Meanwhile OpenBLAS is held to one thread for the
whole process (``blas.one_thread``). After an error the generator may be up
to ``_RING_DEPTH`` views ahead of the serial loop.
"""
from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import blas
from . import encoder as enc
from .augment import ShiftFamily, WeakAugConfig, weak_batch
from .data import LABELED_ANOMALY, ValidationError
from .mathcore import NumericError, logsumexp_rows_inplace, softmax_rows


def c_constant(n_prototypes: int, tau: float) -> float:
    """The score cap C = ln(m) + 1/tau of m >= 1 prototypes per slot at tau > 0, used
    by the inverse losses: the score when sim = 1 against all of a slot's prototypes."""
    return math.log(n_prototypes) + 1.0 / tau


@dataclass
class LossBreakdown:
    total: float
    anomaly_term: float
    normal_term: float


def slot_blocks(P: np.ndarray, slots: int) -> np.ndarray:
    """``P`` as a (slots, m, d) stack: a stack as it is, a flat (k, d) set cut slot-major."""
    if len(P) % slots or P.ndim == 3 and len(P) != slots:
        raise ValidationError(f"prototypes of shape {P.shape} do not fill {slots} shift slots")
    return P.reshape(slots, -1, P.shape[-1])


def _energy(E: np.ndarray, P: np.ndarray, tau: float) -> Tuple[np.ndarray, np.ndarray]:
    """``(scores, w)``: the logsumexp scores of ``E @ P.T / tau`` over its last axis
    and ``w``, those logits overwritten with their max-shifted exp; a non-finite score
    raises. Rows stacked (..., slots, n, d) meet only their slot's block of ``P``."""
    if P.shape[-2] == 0 or P.ndim == 3 and E.shape[-3:-2] != P.shape[:1]:
        raise ValidationError(f"rows of shape {E.shape} meet no block of prototypes "
                              f"of shape {P.shape}")
    w = E @ np.swapaxes(P, -1, -2)
    w /= tau
    scores = logsumexp_rows_inplace(w.reshape(-1, w.shape[-1])).reshape(w.shape[:-1])
    if not np.isfinite(scores).all():
        raise NumericError(f"non-finite energy score at tau={tau}")
    return scores, w


def energy_score(E: np.ndarray, prototypes: np.ndarray, tau: float) -> np.ndarray:
    """Normality score S = logsumexp_p(sim(e, p)/tau) per row; higher = more normal."""
    return _energy(E, prototypes, tau)[0]


def energy_score_grad(E: np.ndarray, prototypes: np.ndarray, tau: float
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Batch scores plus dS/dE rows: softmax(logits) @ P / tau, softmax = w / its row sums."""
    scores, w = _energy(E, prototypes, tau)
    w /= np.sum(w, axis=-1, keepdims=True)
    grad = w @ prototypes
    grad /= tau
    return scores, grad


def summed_shift_energy(X, params: enc.EncoderParams, prototypes: np.ndarray,
                        weak_cfg: WeakAugConfig, shifts: ShiftFamily,
                        rng: np.random.Generator) -> np.ndarray:
    """Early stopping's score: one weak draw of each row, expanded over every
    shift, and the raw-similarity energy (tau 1) of each copy in its slot, summed."""
    rows = shifts.expand(weak_batch(X, weak_cfg, rng))[0]
    copies = enc.embed(params, rows).reshape(shifts.count, len(X), -1)
    return energy_score(copies, prototypes, 1.0).sum(axis=0)


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


def _anomaly_gap(s, is_anom, C: float) -> np.ndarray:
    """``C - S`` of the labeled anomalies; one at or above C, the pole of 1/(C - S), raises."""
    gap = C - s[is_anom]
    if np.any(gap <= 0.0):
        raise NumericError("labeled anomaly scores at or above C, the pole of 1/(C - S)")
    return gap


def loss_elsa(scores, semi, C: float) -> Tuple[LossBreakdown, np.ndarray]:
    """Mean of 1/(C - S) over labeled anomalies and 1/S over everything else. A
    score at a pole raises; a negative one, which ln m < 1/tau allows, does not."""
    s, is_anom = _groups(scores, semi)
    gap, rest = _anomaly_gap(s, is_anom, C), s[~is_anom]
    if np.any(rest == 0.0):
        raise NumericError("unlabeled or normal row scores exactly 0, the pole of 1/S")
    return _two_terms(s, is_anom, (1.0 / gap, 1.0 / gap ** 2),
                      (1.0 / rest, -1.0 / rest ** 2))


def loss_naive(scores, semi) -> Tuple[LossBreakdown, np.ndarray]:
    """Mean of +S over labeled anomalies and -S over everything else."""
    s, is_anom = _groups(scores, semi)
    return _two_terms(s, is_anom, (s[is_anom], 1.0), (-s[~is_anom], -1.0))


def loss_deepsad(scores, semi, C: float) -> Tuple[LossBreakdown, np.ndarray]:
    """Mean of 1/(C - S) over labeled anomalies and -S over everything else."""
    s, is_anom = _groups(scores, semi)
    gap = _anomaly_gap(s, is_anom, C)
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


def loss_by_name(name: str, scores, semi, C: float) -> Tuple[LossBreakdown, np.ndarray]:
    if name == "elsa":
        return loss_elsa(scores, semi, C)
    if name == "naive":
        return loss_naive(scores, semi)
    if name == "deepsad":
        return loss_deepsad(scores, semi, C)
    raise ValidationError(f"unknown loss {name!r}; expected one of {LOSSES}")


# Weak views that the ensemble's producer may draw ahead of the encoder.
_RING_DEPTH = 3


def score_ensemble(
    X,
    params: enc.EncoderParams,
    prototypes: np.ndarray,
    tau: float,
    weak_cfg: WeakAugConfig,
    shifts: ShiftFamily,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ensembled normality score: the mean of the energy score over n_samples
    weak views of every shifted copy in its slot, S_en(x) = E[S(weak(shift(x)))].

    The views are drawn shift by shift, all n_samples draws of shift 0 first,
    from ``rng`` alone; the scores and ``rng``'s final state are the serial
    loop's, bit for bit. A producer thread draws the views while this thread
    scores the ones before, and OpenBLAS runs on one thread, process-wide,
    until the call returns. Views pass from the producer to this thread and
    back through a ring of ``_RING_DEPTH`` buffers. An error on either thread
    is raised here once the producer has stopped; ``rng`` may then be up to
    ``_RING_DEPTH`` views past where the serial loop would have left it.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    blocks = slot_blocks(prototypes, shifts.count)
    free = queue.SimpleQueue()     # empty view buffers; None stops the producer
    ready = queue.SimpleQueue()    # drawn views, or the producer's exception
    for _ in range(_RING_DEPTH):
        free.put(np.empty(X.shape))
    shifted = np.empty(X.shape)    # the producer's current shifted copy
    scratch = np.empty(X.shape)    # and its noise and mask draws

    def draw_views():
        try:
            for k in range(shifts.count):
                rows = shifts.apply(X, k, out=shifted)
                for _ in range(n_samples):
                    view = free.get()
                    if view is None:
                        return
                    ready.put(weak_batch(rows, weak_cfg, rng, view, scratch))
        except BaseException as exc:    # raised again on the calling thread
            ready.put(exc)

    total = shifts.count * n_samples
    acc = np.zeros(len(X))
    producer = threading.Thread(target=draw_views, name="score_ensemble views")
    with blas.one_thread():
        producer.start()
        try:
            for i in range(total):
                view = ready.get()
                if isinstance(view, BaseException):
                    raise view
                acc += energy_score(enc.embed(params, view), blocks[i // n_samples], tau)
                free.put(view)
        finally:
            free.put(None)
            producer.join()
    return acc / total
