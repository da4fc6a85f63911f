"""Reference implementations that only the tests use.

Each is a direct transcription of its formula, kept out of the package so
the shipped code holds no function that nothing in it calls.
"""
import numpy as np

from protoad.data import ValidationError
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
