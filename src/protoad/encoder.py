"""Unit-sphere MLP encoder with a shift-classification head.

Forward: x -> ReLU(W1 x + b1) -> ReLU(W2 . + b2) -> W3 . + b3 = feature,
embedding = feature / ||feature||. The shift head is a linear map on the
pre-normalization feature. Gradients are hand-derived; ``backward`` takes
upstream gradients w.r.t. embeddings, features and/or head logits and
returns parameter gradients, so every loss in this package backpropagates
through the same code path (including the normalization Jacobian
(I - u u^T) / ||v||).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import ValidationError
from .mathcore import EPS_NORM, NumericError, as_f64


@dataclass(frozen=True)
class EncoderDims:
    input: int = 32
    hidden: int = 64
    embed: int = 16
    shifts: int = 4

    def __post_init__(self):
        for name in ("input", "hidden", "embed", "shifts"):
            if getattr(self, name) < 1:
                raise ValidationError(f"encoder dim {name} must be positive")


class EncoderParams:
    """Mutable parameter bundle for the encoder MLP + shift head."""

    FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3", "wh", "bh")

    def __init__(self, w1, b1, w2, b2, w3, b3, wh, bh):
        self.w1, self.b1 = as_f64(w1), as_f64(b1)
        self.w2, self.b2 = as_f64(w2), as_f64(b2)
        self.w3, self.b3 = as_f64(w3), as_f64(b3)
        self.wh, self.bh = as_f64(wh), as_f64(bh)

    @property
    def dims(self) -> EncoderDims:
        return EncoderDims(input=self.w1.shape[1], hidden=self.w1.shape[0],
                           embed=self.w3.shape[0], shifts=self.wh.shape[0])

    def copy(self) -> "EncoderParams":
        return EncoderParams(*(getattr(self, f).copy() for f in self.FIELDS))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([getattr(self, f).ravel() for f in self.FIELDS])

    def from_vector(self, theta: np.ndarray) -> "EncoderParams":
        theta = as_f64(theta, "theta")
        out, i = [], 0
        for f in self.FIELDS:
            shape = getattr(self, f).shape
            size = int(np.prod(shape))
            out.append(theta[i:i + size].reshape(shape))
            i += size
        if i != theta.size:
            raise ValidationError(f"theta has {theta.size} entries, expected {i}")
        return EncoderParams(*out)

    def zeros_like(self) -> "EncoderParams":
        return EncoderParams(*(np.zeros_like(getattr(self, f)) for f in self.FIELDS))


def init(seed: int, dims: EncoderDims) -> EncoderParams:
    """Kaiming-style init: weights ~ N(0, 2/fan_in), zero biases."""
    rng = np.random.default_rng(seed)

    def layer(fan_out, fan_in):
        return rng.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in)

    return EncoderParams(
        w1=layer(dims.hidden, dims.input), b1=np.zeros(dims.hidden),
        w2=layer(dims.hidden, dims.hidden), b2=np.zeros(dims.hidden),
        w3=layer(dims.embed, dims.hidden), b3=np.zeros(dims.embed),
        wh=layer(dims.shifts, dims.embed), bh=np.zeros(dims.shifts),
    )


@dataclass
class ForwardCache:
    x: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    feature: np.ndarray
    norms: np.ndarray
    embed: np.ndarray


def forward(params: EncoderParams, X) -> ForwardCache:
    """Full batch forward pass, caching activations for ``backward``."""
    X = as_f64(X, "input")
    if X.ndim != 2 or X.shape[1] != params.w1.shape[1]:
        raise ValidationError(
            f"input dim {X.shape} incompatible with encoder input {params.w1.shape[1]}")
    h1 = np.maximum(X @ params.w1.T + params.b1, 0.0)
    h2 = np.maximum(h1 @ params.w2.T + params.b2, 0.0)
    feature = h2 @ params.w3.T + params.b3
    norms = np.linalg.norm(feature, axis=1)
    if np.any(norms <= EPS_NORM):
        raise NumericError("degenerate vector")
    emb = feature / norms[:, None]
    return ForwardCache(x=X, h1=h1, h2=h2, feature=feature, norms=norms, embed=emb)


def embed(params: EncoderParams, X) -> np.ndarray:
    """Unit-norm embeddings for a batch (or a single vector)."""
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    out = forward(params, X[None, :] if single else X).embed
    return out[0] if single else out


def shift_logits(params: EncoderParams, X) -> np.ndarray:
    """Shift-classification logits from the pre-normalization feature."""
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    cache = forward(params, X[None, :] if single else X)
    logits = cache.feature @ params.wh.T + params.bh
    return logits[0] if single else logits


def head_logits(params: EncoderParams, cache: ForwardCache) -> np.ndarray:
    return cache.feature @ params.wh.T + params.bh


def backward(
    params: EncoderParams,
    cache: ForwardCache,
    d_embed: Optional[np.ndarray] = None,
    d_feature: Optional[np.ndarray] = None,
    d_logits: Optional[np.ndarray] = None,
) -> EncoderParams:
    """Accumulate parameter gradients from upstream gradients.

    Any combination of d_embed (w.r.t. unit embeddings), d_feature (w.r.t.
    the pre-normalization feature) and d_logits (w.r.t. shift-head logits)
    may be given; contributions add.
    """
    grads = params.zeros_like()
    df = np.zeros_like(cache.feature)
    if d_feature is not None:
        df += as_f64(d_feature, "d_feature")
    if d_logits is not None:
        dl = as_f64(d_logits, "d_logits")
        grads.wh += dl.T @ cache.feature
        grads.bh += dl.sum(axis=0)
        df += dl @ params.wh
    if d_embed is not None:
        de = as_f64(d_embed, "d_embed")
        # d/dv of v/||v||: (I - u u^T)/||v|| applied to the upstream gradient.
        proj = np.sum(de * cache.embed, axis=1, keepdims=True)
        df += (de - proj * cache.embed) / cache.norms[:, None]

    grads.w3 += df.T @ cache.h2
    grads.b3 += df.sum(axis=0)
    dh2 = (df @ params.w3) * (cache.h2 > 0)
    grads.w2 += dh2.T @ cache.h1
    grads.b2 += dh2.sum(axis=0)
    dh1 = (dh2 @ params.w2) * (cache.h1 > 0)
    grads.w1 += dh1.T @ cache.x
    grads.b1 += dh1.sum(axis=0)
    return grads
