"""Reference implementations that only the tests use.

Each is a direct transcription of its formula, kept out of the package so
the shipped code holds no function that nothing in it calls.
"""
import json

import numpy as np

from protoad import augment
from protoad import encoder as enc
from protoad.data import Pool, SyntheticSpec, ValidationError, _component_means
from protoad.evalharness import _average_ranks
from protoad.mathcore import as_f64, softmax_rows


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient."""
    x = as_f64(xs, "xs")
    y = as_f64(ys, "ys")
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValidationError("pearson needs two aligned vectors of length >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    vx = float(np.dot(dx, dx))
    vy = float(np.dot(dy, dy))
    if vx == 0.0 or vy == 0.0:
        raise ValidationError("pearson undefined for zero variance")
    return float(np.dot(dx, dy) / np.sqrt(vx * vy))


def spearman(xs, ys) -> float:
    """Rank correlation: Pearson over average ranks."""
    return pearson(_average_ranks(as_f64(xs)), _average_ranks(as_f64(ys)))


def prototype_posterior(E, prototypes, tau: float) -> np.ndarray:
    """softmax_p(sim(e, p)/tau) per row: the pseudo-label distribution over prototypes."""
    P = as_f64(prototypes, "prototypes")
    if len(P) == 0:
        raise ValidationError("prototype set is empty")
    return softmax_rows((as_f64(E, "embeddings") @ P.T) / tau)


def generate_by_vstack(spec: SyntheticSpec) -> Pool:
    """``data.generate`` as one list of per-component draws joined by ``np.vstack``."""
    rng = np.random.default_rng(spec.seed)
    means = _component_means(spec, rng)
    feats, classes, comps = [], [], []
    base, extra = divmod(spec.samples_per_class, spec.normal_subclusters)
    for s in range(spec.normal_subclusters):
        count = base + (1 if s < extra else 0)
        feats.append(means[s] + spec.within_spread * rng.standard_normal((count, spec.input_dim)))
        classes.append(np.zeros(count, dtype=np.int64))
        comps.append(np.full(count, s, dtype=np.int64))
    for a in range(spec.anomaly_classes):
        comp = spec.normal_subclusters + a
        feats.append(means[comp] + spec.within_spread * rng.standard_normal(
            (spec.samples_per_class, spec.input_dim)))
        classes.append(np.full(spec.samples_per_class, a + 1, dtype=np.int64))
        comps.append(np.full(spec.samples_per_class, comp, dtype=np.int64))
    features = np.vstack(feats)
    return Pool(features=features, true_class=np.concatenate(classes),
                ids=np.arange(len(features), dtype=np.int64),
                cluster_id=np.concatenate(comps), means=means)


# The row reductions and scores as they were before they ran in place: each
# takes its max with ``np.max(axis=1)`` and works on fresh copies.

def logsumexp_rows_by_copy(matrix) -> np.ndarray:
    m = as_f64(matrix, "logsumexp input")
    shift = np.max(m, axis=1, keepdims=True)
    e = m - shift
    np.exp(e, out=e)
    return (shift + np.log(np.sum(e, axis=1, keepdims=True)))[:, 0]


def softmax_rows_by_copy(matrix) -> np.ndarray:
    m = as_f64(matrix, "softmax input")
    e = m - np.max(m, axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=1, keepdims=True)
    return e


def energy_score_by_copy(E, P, tau: float) -> np.ndarray:
    return logsumexp_rows_by_copy((E @ P.T) / tau)


def energy_score_grad_two_pass(E, P, tau: float):
    """Scores and dS/dE, each from its own reduction over the same logits."""
    logits = (E @ P.T) / tau
    return logsumexp_rows_by_copy(logits), softmax_rows_by_copy(logits) @ P / tau


def loss_shift_by_copy(logits, shift_ids):
    probs = softmax_rows_by_copy(logits)
    n = len(probs)
    ids = np.asarray(shift_ids, dtype=np.int64)
    picked = probs[np.arange(n), ids]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    grad = probs.copy()
    grad[np.arange(n), ids] -= 1.0
    return loss, grad / n


def exact_weak_cfg(monkeypatch) -> augment.WeakAugConfig:
    """A weak configuration whose views equal their inputs for the rest of the
    test: no noise, and ``monkeypatch`` sets no mask and a unit scale."""
    monkeypatch.setattr(augment, "MASK_FRACTION", 0.0)
    monkeypatch.setattr(augment, "SCALE_JITTER", (1.0, 1.0))
    return augment.WeakAugConfig(noise_sigma=0.0)


def weak_batch_by_copy(X, cfg, rng) -> np.ndarray:
    """``augment.weak_batch`` with out-of-place noise: the same draws in the same order."""
    n, d = X.shape
    lo, hi = augment.SCALE_JITTER
    out = X * rng.uniform(lo, hi, size=(n, 1))
    if cfg.noise_sigma > 0:
        out = out + cfg.noise_sigma * rng.standard_normal((n, d))
    n_mask = int(augment.MASK_FRACTION * d)
    if n_mask > 0:
        cols = np.argsort(rng.random((n, d)), axis=1)[:, :n_mask]
        out[np.arange(n)[:, None], cols] = 0.0
    return out


def score_ensemble_by_copy(X, params, P, tau, weak_cfg, shifts, n_samples, rng,
                           mode="scores") -> np.ndarray:
    """``objective.score_ensemble`` built from the copying oracles above.

    mode "embeddings" is the recipe that averages the embeddings of the weak
    views before scoring and sums raw-similarity energies over shifts (``tau``
    unused); with one draw it is ``objective.summed_shift_energy``. Each shifted
    copy is scored against its own slot's block of the (slots, m, d) stack ``P``.
    """
    n, k_s = len(X), shifts.count
    if mode == "scores":
        acc = np.zeros(n)
        for k in range(k_s):
            shifted = shifts.apply(X, k)
            for _ in range(n_samples):
                emb = enc.embed(params, weak_batch_by_copy(shifted, weak_cfg, rng))
                acc += energy_score_by_copy(emb, P[k], tau)
        return acc / (k_s * n_samples)
    zbar = np.zeros((k_s * n, P.shape[-1]))
    for _ in range(n_samples):
        zbar += enc.embed(params, shifts.expand(weak_batch_by_copy(X, weak_cfg, rng))[0])
    zbar /= n_samples
    return np.sum([logsumexp_rows_by_copy(z @ block.T)
                   for z, block in zip(np.split(zbar, k_s), P)], axis=0)


def score_lines_by_json(ids, scores) -> list:
    """Score file lines as ``json.dumps`` writes them."""
    return [json.dumps({"id": int(i), "score": float(s)}) + "\n"
            for i, s in zip(ids, scores)]
