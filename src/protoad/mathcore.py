"""Low-level numerical primitives shared by every other module.

Everything here runs in 64-bit floats. Losses ship hand-derived gradients,
so this module also provides the central-difference checker used to keep
them honest.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

EPS_NORM = 1e-12


class NumericError(ValueError):
    """Raised when a computation leaves its valid numeric domain."""


def as_f64(x, name: str = "array") -> np.ndarray:
    """Coerce to a float64 array and reject NaN/Inf."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NumericError(f"{name} contains non-finite entries")
    return arr


def logsumexp(values) -> float:
    """log(sum(exp(v))) with max-shift, overflow-safe for any finite input."""
    v = as_f64(values, "logsumexp input")
    if v.size == 0:
        raise NumericError("empty reduction")
    m = float(np.max(v))
    return m + float(np.log(np.sum(np.exp(v - m))))


def row_max(matrix: np.ndarray) -> np.ndarray:
    """Exactly ``np.max(matrix, axis=1)``; by columns when they are fewer than rows."""
    if not 0 < matrix.shape[1] < len(matrix):
        return np.max(matrix, axis=1)
    out = matrix[:, 0].copy()
    for column in matrix.T[1:]:
        np.maximum(out, column, out=out)
    return out


def logsumexp_rows_inplace(matrix: np.ndarray) -> np.ndarray:
    """Row-wise logsumexp that overwrites ``matrix`` with its shifted exponentials."""
    m = as_f64(matrix, "logsumexp input")
    if m.ndim != 2 or m.shape[1] == 0:
        raise NumericError("empty reduction")
    shift = row_max(m)
    m -= shift[:, None]
    np.exp(m, out=m)
    return shift + np.log(np.sum(m, axis=1))


def logsumexp_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise logsumexp for a 2-D array; ``matrix`` is left unchanged."""
    return logsumexp_rows_inplace(np.array(matrix, dtype=np.float64))


def softmax_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise softmax for a 2-D array; ``matrix`` is left unchanged."""
    m = as_f64(matrix, "softmax input")
    e = m - row_max(m)[:, None]
    np.exp(e, out=e)
    e /= np.sum(e, axis=1, keepdims=True)
    return e


def l2_normalize(v) -> np.ndarray:
    """Scale a vector to unit L2 norm; direction is preserved."""
    vec = as_f64(v, "vector")
    norm = float(np.linalg.norm(vec))
    if norm <= EPS_NORM:
        raise NumericError("degenerate vector")
    return vec / norm


def l2_normalize_rows(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize each row; returns (unit rows, original norms)."""
    m = as_f64(matrix, "matrix")
    norms = np.linalg.norm(m, axis=1)
    if np.any(norms <= EPS_NORM):
        raise NumericError("degenerate vector")
    return m / norms[:, None], norms


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of comparing an analytic gradient against central differences."""

    max_rel_error: float
    argmax_coordinate: int
    analytic: float
    numeric: float

    def __post_init__(self):
        if self.max_rel_error < 0:
            raise ValueError("max_rel_error must be nonnegative")


# Relative error denominators are floored so coordinates whose true gradient
# is ~0 are judged on an absolute scale instead of blowing up on rounding noise.
_REL_FLOOR = 1e-3


def grad_check(
    f: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    point,
    h: float = 1e-5,
) -> GradCheckReport:
    """Check the gradient of ``f`` at ``point`` by central differences.

    ``f`` maps a flat float64 vector to ``(value, gradient)``; only the value
    is used for the numeric side, (f(x + h e_i) - f(x - h e_i)) / 2h.
    """
    x = as_f64(point, "point").copy()
    value, analytic = f(x)
    if not np.isfinite(value):
        raise NumericError("non-finite function value at check point")
    analytic = as_f64(analytic, "analytic gradient")
    if analytic.shape != x.shape:
        raise ValueError(f"gradient shape {analytic.shape} != point shape {x.shape}")

    numeric = np.empty_like(x)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + h
        fp = f(x)[0]
        x[i] = orig - h
        fm = f(x)[0]
        x[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite evaluation near coordinate {i}")
        numeric[i] = (fp - fm) / (2.0 * h)

    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _REL_FLOOR)
    rel = np.abs(analytic - numeric) / scale
    worst = int(np.argmax(rel)) if rel.size else 0
    return GradCheckReport(
        max_rel_error=float(rel[worst]) if rel.size else 0.0,
        argmax_coordinate=worst,
        analytic=float(analytic[worst]) if rel.size else 0.0,
        numeric=float(numeric[worst]) if rel.size else 0.0,
    )
