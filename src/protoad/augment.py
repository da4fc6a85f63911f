"""Vector-space augmentations: weak views, shifting transforms, strong distortions.

Weak augmentations perturb a sample while preserving its identity (the two
"views" of contrastive training). Shifting transforms are fixed orthogonal
maps whose index the model must predict, standing in for 90-degree image
rotations. Strong augmentations wreck content on purpose; their outputs act
as tentative anomalies for the early-stop score.
The recipe's magnitudes are this module's constants, read at call time, but
for the noise sigmas: the two configs carry those, scaled to the data.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .data import ValidationError, require
from .mathcore import as_f64

_ORTHO_TOL = 1e-9

MASK_FRACTION = 0.1                  # share of coordinates a weak view zeroes
SCALE_JITTER = (0.9, 1.1)            # range of a weak view's per-row scale
STRONG_OPS = 3                       # transforms drawn per strong view
STRONG_APPLY_PROBABILITY = 0.8       # chance each drawn transform applies


@dataclass(frozen=True)
class WeakAugConfig:
    """Scale jitter (``SCALE_JITTER``) + small Gaussian noise + light coordinate
    masking (``MASK_FRACTION``); only the noise sigma is set per run."""

    noise_sigma: float = 0.05

    def __post_init__(self):
        require((self.noise_sigma >= 0, f"noise_sigma must be >= 0, got {self.noise_sigma}"))


# The strong transforms, and the factor ranges of "scale" (shrink or blow up).
_STRONG_TRANSFORMS = ("permute", "signflip", "noise", "scale")
_SHRINK_RANGE = (0.05, 0.3)
_BLOWUP_RANGE = (3.0, 6.0)


@dataclass(frozen=True)
class StrongAugConfig:
    """Heavy distortions drawn from a fixed set of destructive transforms.

    ``STRONG_OPS`` transforms are sampled per call, each applied with
    ``STRONG_APPLY_PROBABILITY``; only the noise sigma is set per run. The set
    excludes the shifting transforms so strong views stay unlike shifted ones.
    """

    noise_sigma: float = 0.3


class ShiftFamily:
    """A fixed family of orthogonal transforms; slot 0 is the identity."""

    def __init__(self, matrices: Sequence[np.ndarray]):
        mats = [as_f64(m, "shift matrix") for m in matrices]
        if not mats:
            raise ValidationError("shift family must contain at least one transform")
        d = mats[0].shape[0]
        for i, q in enumerate(mats):
            if q.shape != (d, d):
                raise ValidationError(f"shift matrix {i} is not {d}x{d}")
            err = np.max(np.abs(q.T @ q - np.eye(d)))
            if err >= _ORTHO_TOL:
                raise ValidationError(f"shift matrix {i} not orthogonal (err={err:.2e})")
        if np.max(np.abs(mats[0] - np.eye(d))) != 0.0:
            raise ValidationError("shift slot 0 must be exactly the identity")
        self.matrices = np.stack(mats)
        self.dim = d

    @property
    def count(self) -> int:
        return len(self.matrices)

    @classmethod
    def random(cls, dim: int, count: int = 4, seed: int = 0) -> "ShiftFamily":
        """Identity plus ``count - 1`` seeded random orthogonal maps (QR, sign-fixed)."""
        rng = np.random.default_rng(seed)
        mats = [np.eye(dim)]
        for _ in range(count - 1):
            q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
            q = q * np.sign(np.diag(r))
            mats.append(q)
        return cls(mats)

    def _checked(self, x, what: str) -> np.ndarray:
        if x.shape[-1] != self.dim:
            raise ValidationError(f"{what} width {x.shape[-1]} != shift dim {self.dim}")
        return x

    def apply(self, x: np.ndarray, index: int, out: Optional[np.ndarray] = None
              ) -> np.ndarray:
        """shift_index(x); slot 0 returns ``x`` itself, any other slot writes
        into ``out`` when it is given."""
        if not (0 <= index < self.count):
            raise ValidationError(f"shift index {index} out of range [0, {self.count})")
        x = self._checked(x, "sample")
        return x if index == 0 else np.matmul(x, self.matrices[index].T, out=out)

    def expand(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Stack shift_k(X) for every k; returns (count*n rows, shift ids).

        Slot 0 is exactly the identity, so its block is ``X`` itself; a
        one-slot family returns ``X`` uncopied, so callers must not write
        into the rows.
        """
        X = self._checked(X, "batch")
        rows = X if self.count == 1 else np.vstack(
            [X] + [X @ q.T for q in self.matrices[1:]])
        ids = np.repeat(np.arange(self.count), len(X))
        return rows, ids


def weak_batch(X: np.ndarray, cfg: WeakAugConfig, rng: np.random.Generator,
               out: Optional[np.ndarray] = None,
               scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """One independent weak view per row: jitter, then noise, then masking.

    ``out`` receives the view and ``scratch`` the noise and then the mask
    draws: float64 C-contiguous arrays of ``X``'s shape that do not overlap
    ``X``. Either is allocated when not given, and the view is returned.
    Buffers change no draw and no bit, since ``sigma * noise + X * scale``
    is exact in either order. Without them at most three ``X``-sized arrays
    are alive at once: the view, the draws and ``argsort``'s indices.
    """
    n, d = X.shape
    lo, hi = SCALE_JITTER
    out = np.multiply(X, rng.uniform(lo, hi, size=(n, 1)), out=out)
    if cfg.noise_sigma > 0:
        scratch = rng.standard_normal((n, d), out=scratch)
        scratch *= cfg.noise_sigma
        out += scratch
    n_mask = int(MASK_FRACTION * d)
    if n_mask > 0:
        # Per-row random coordinate subset of fixed size.
        cols = np.argsort(rng.random((n, d), out=scratch), axis=1)[:, :n_mask]
        del scratch    # draws this call made are freed before the masked write
        out[np.arange(n)[:, None], cols] = 0.0
    return out


def strong_batch(X: np.ndarray, cfg: StrongAugConfig, rng: np.random.Generator) -> np.ndarray:
    """Apply ``STRONG_OPS`` randomly chosen destructive transforms per row."""
    out = X.copy()
    n, d = out.shape
    for _ in range(STRONG_OPS):
        ops = rng.integers(0, len(_STRONG_TRANSFORMS), size=n)
        gate = rng.random(n) < STRONG_APPLY_PROBABILITY
        for op_idx, name in enumerate(_STRONG_TRANSFORMS):
            rows = np.flatnonzero(gate & (ops == op_idx))
            if len(rows) == 0:
                continue
            if name == "permute":
                perm = np.argsort(rng.random((len(rows), d)), axis=1)
                out[rows] = np.take_along_axis(out[rows], perm, axis=1)
            elif name == "signflip":
                signs = np.where(rng.random((len(rows), d)) < 0.5, -1.0, 1.0)
                out[rows] = out[rows] * signs
            elif name == "noise":
                out[rows] = out[rows] + cfg.noise_sigma * rng.standard_normal((len(rows), d))
            elif name == "scale":
                shrink = rng.uniform(*_SHRINK_RANGE, size=len(rows))
                blow = rng.uniform(*_BLOWUP_RANGE, size=len(rows))
                pick = rng.random(len(rows)) < 0.5
                out[rows] = out[rows] * np.where(pick, shrink, blow)[:, None]
    return out
