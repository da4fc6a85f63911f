"""Low-level numerical primitives shared by every other module.

Everything here runs in 64-bit floats: the finiteness-checked coercion, the
row maximum, and the row-wise logsumexp and softmax that the energy score,
the uniformity score and the shift cross-entropy reduce with.
"""
from __future__ import annotations

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


def softmax_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise softmax for a 2-D array; ``matrix`` is left unchanged."""
    m = as_f64(matrix, "softmax input")
    e = m - row_max(m)[:, None]
    np.exp(e, out=e)
    e /= np.sum(e, axis=1, keepdims=True)
    return e
