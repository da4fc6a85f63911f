"""Reference implementations that only the tests use.

Each is a direct transcription of its formula, kept out of the package so
the shipped code holds no function that nothing in it calls.
"""
import numpy as np

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


def prototype_posterior(e, prototypes, tau: float) -> np.ndarray:
    """softmax_p(sim(e, p)/tau): the pseudo-label distribution over prototypes."""
    E = as_f64(e, "embedding")
    P = as_f64(prototypes, "prototypes")
    if len(P) == 0:
        raise ValidationError("prototype set is empty")
    probs = softmax_rows((np.atleast_2d(E) @ P.T) / tau)
    return probs[0] if E.ndim == 1 else probs


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
