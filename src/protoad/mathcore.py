"""Low-level numerical primitives shared by every other module, on float64 arrays.

Finiteness is one rule with two kinds of check site. Entry sites, where
outside data becomes a program object, coerce with ``as_f64``: the
constructors of ``Dataset``, ``Pool``, ``EncoderParams`` (and
``from_vector``), ``PrototypeSet`` and ``ShiftFamily``, and the scores of
``evalharness.auroc``. Producer sites check what their arithmetic makes:
``encoder.forward`` its feature norms (which covers its input and the
weights the optimizers update), ``pretrain._pair_terms`` its row sums, and
``objective._energy`` and ``objective._two_terms`` their results. Nothing
else re-checks; ``tests/test_surface.py`` keeps ``as_f64`` at the entry sites.
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
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        raise NumericError("empty reduction")
    shift = row_max(matrix)
    matrix -= shift[:, None]
    np.exp(matrix, out=matrix)
    return shift + np.log(np.sum(matrix, axis=1))


def softmax_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise softmax for a 2-D array; ``matrix`` is left unchanged."""
    e = matrix - row_max(matrix)[:, None]
    np.exp(e, out=e)
    e /= np.sum(e, axis=1, keepdims=True)
    return e
