"""The central-difference gradient checker that the loss and encoder tests use.

Every loss in ``protoad`` ships a hand-derived gradient; ``grad_check``
compares one against central differences of the value alone and reports
the worst coordinate.
"""
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from protoad.mathcore import NumericError, as_f64


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
