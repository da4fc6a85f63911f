"""Vector-space augmentations: weak views, shifting transforms, strong distortions.

Weak augmentations perturb a sample while preserving its identity (the two
"views" of contrastive training). Shifting transforms are fixed orthogonal
maps whose index the model must predict, standing in for 90-degree image
rotations. Strong augmentations wreck content on purpose; their outputs act
as tentative anomalies for the early-stop score.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .data import ValidationError
from .mathcore import as_f64

_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class WeakAugConfig:
    """Scale jitter + small Gaussian noise + light coordinate masking."""

    noise_sigma: float = 0.05
    mask_fraction: float = 0.1
    scale_jitter: Tuple[float, float] = (0.9, 1.1)

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be >= 0")
        if not (0.0 <= self.mask_fraction < 0.5):
            raise ValidationError("mask_fraction must lie in [0, 0.5)")
        lo, hi = self.scale_jitter
        if not (0.0 < lo <= hi < 2.0):
            raise ValidationError("scale_jitter must satisfy 0 < lo <= hi < 2")


# The strong transforms, and the factor ranges of "scale" (shrink or blow up).
_STRONG_TRANSFORMS = ("permute", "signflip", "noise", "scale")
_SHRINK_RANGE = (0.05, 0.3)
_BLOWUP_RANGE = (3.0, 6.0)


@dataclass(frozen=True)
class StrongAugConfig:
    """Heavy distortions drawn from a fixed set of destructive transforms.

    ``n_ops`` transforms are sampled per call, each applied with
    ``apply_probability``. The set deliberately excludes the shifting
    transforms so strong views stay distinguishable from shifted ones.
    """

    noise_sigma: float = 0.3
    n_ops: int = 3
    apply_probability: float = 0.8

    def __post_init__(self):
        if self.n_ops < 0:
            raise ValidationError("n_ops must be >= 0")
        if not (0.0 <= self.apply_probability <= 1.0):
            raise ValidationError("apply_probability must lie in [0, 1]")

    def validate_against(self, weak: WeakAugConfig) -> None:
        """Strong parameters must strictly dominate the weak ones."""
        if self.noise_sigma < 4.0 * weak.noise_sigma:
            raise ValidationError(
                f"strong noise_sigma {self.noise_sigma} must be >= 4x weak "
                f"noise_sigma {weak.noise_sigma}")


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

    def apply(self, x: np.ndarray, index: int) -> np.ndarray:
        if not (0 <= index < self.count):
            raise ValidationError(f"shift index {index} out of range [0, {self.count})")
        x = self._checked(x, "sample")
        return x if index == 0 else x @ self.matrices[index].T

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


def weak_batch(X: np.ndarray, cfg: WeakAugConfig, rng: np.random.Generator) -> np.ndarray:
    """One independent weak view per row: jitter, then noise, then masking."""
    n, d = X.shape
    lo, hi = cfg.scale_jitter
    out = X * rng.uniform(lo, hi, size=(n, 1))
    if cfg.noise_sigma > 0:
        out += cfg.noise_sigma * rng.standard_normal((n, d))
    n_mask = int(cfg.mask_fraction * d)
    if n_mask > 0:
        # Per-row random coordinate subset of fixed size.
        cols = np.argsort(rng.random((n, d)), axis=1)[:, :n_mask]
        out[np.arange(n)[:, None], cols] = 0.0
    return out


def strong_batch(X: np.ndarray, cfg: StrongAugConfig, rng: np.random.Generator) -> np.ndarray:
    """Apply ``n_ops`` randomly chosen destructive transforms per row."""
    out = X.copy()
    n, d = out.shape
    for _ in range(cfg.n_ops):
        ops = rng.integers(0, len(_STRONG_TRANSFORMS), size=n)
        gate = rng.random(n) < cfg.apply_probability
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
