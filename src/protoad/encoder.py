"""Unit-sphere MLP encoder with a shift-classification head.

Forward: x -> ReLU(W1 x + b1) -> ReLU(W2 . + b2) -> W3 . + b3 = feature,
embedding = feature / ||feature||. The shift head is a linear map on the
pre-normalization feature. Gradients are hand-derived; ``backward`` takes
upstream gradients w.r.t. embeddings and/or head logits and
returns parameter gradients, so every loss in this package backpropagates
through the same code path (including the normalization Jacobian
(I - u u^T) / ||v||). Every entry point takes a 2-D batch, one sample per
row.

Parameters live in one float64 buffer, ``EncoderParams.flat``: the fields
in ``FIELDS`` order, each row-major, every field a reshaped view of it. So
an optimizer step is one elementwise update of ``flat``, and an in-place
write to a field is a write to ``flat``. Aliasing rule: no two bundles share
a buffer. The constructor, ``copy``, ``zeros_like`` and ``from_vector`` make
new ones and ``to_vector`` returns a copy. Write into a field
(``p.w1[:] = ...``); rebinding it would detach it from ``flat``.
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
    """Mutable parameter bundle for the encoder MLP + shift head, on ``flat``.

    The constructor checks that the layer shapes chain.
    """

    FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3", "wh", "bh")

    def __init__(self, w1, b1, w2, b2, w3, b3, wh, bh):
        parts = [as_f64(a, f) for f, a in zip(self.FIELDS, (w1, b1, w2, b2, w3, b3, wh, bh))]
        shapes = [a.shape for a in parts]
        h, e, s = (parts[k].size for k in (1, 5, 7))    # the bias lengths
        i = shapes[0][-1] if shapes[0] else 0
        if shapes != [(h, i), (h,), (h, h), (h,), (e, h), (e,), (s, e), (s,)]:
            raise ValidationError(f"encoder layer shapes {shapes} do not chain")
        ends = np.cumsum([a.size for a in parts]).tolist()
        layout = tuple((f, slice(end - a.size, end), a.shape)
                       for f, a, end in zip(self.FIELDS, parts, ends))
        self._bind(np.concatenate([a.ravel() for a in parts]), layout)

    def _bind(self, flat: np.ndarray, layout) -> "EncoderParams":
        self.flat, self._layout = flat, layout
        for f, span, shape in layout:
            setattr(self, f, flat[span].reshape(shape))
        return self

    def _on(self, flat: np.ndarray) -> "EncoderParams":
        """A bundle of this layout on ``flat``, which it takes as its own."""
        return object.__new__(EncoderParams)._bind(flat, self._layout)

    def __reduce__(self):
        # Pickled views would come back as separate arrays, detached from flat.
        return EncoderParams, tuple(getattr(self, f) for f in self.FIELDS)

    def copy(self) -> "EncoderParams":
        return self._on(self.flat.copy())

    def to_vector(self) -> np.ndarray:
        return self.flat.copy()

    def from_vector(self, theta: np.ndarray) -> "EncoderParams":
        theta = as_f64(theta, "theta")
        if theta.size != self.flat.size:
            raise ValidationError(f"theta has {theta.size} entries, expected {self.flat.size}")
        return self._on(theta.flatten())

    def zeros_like(self) -> "EncoderParams":
        return self._on(np.zeros_like(self.flat))


_ADAM_BETAS, _ADAM_EPS = (0.9, 0.999), 1e-8


def sgd_momentum_step(params: EncoderParams, velocity: EncoderParams,
                      grads: EncoderParams, lr: float, momentum: float) -> None:
    """In place: ``velocity = momentum * velocity - lr * grads``, then ``params += velocity``."""
    velocity.flat *= momentum
    velocity.flat -= lr * grads.flat
    params.flat += velocity.flat


def adam_step(params: EncoderParams, m: EncoderParams, v: EncoderParams,
              grads: EncoderParams, step: int, lr: float) -> None:
    """In place: bias-corrected Adam update number ``step`` (from 1) of ``params``."""
    (beta1, beta2), g = _ADAM_BETAS, grads.flat
    m.flat *= beta1
    m.flat += (1.0 - beta1) * g
    v.flat *= beta2
    v.flat += (1.0 - beta2) * g * g
    params.flat -= lr * (m.flat / (1.0 - beta1 ** step)) / (
        np.sqrt(v.flat / (1.0 - beta2 ** step)) + _ADAM_EPS)


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
    """Full batch forward pass, caching activations for ``backward``. Raises
    ``NumericError`` unless every feature norm is finite and above ``EPS_NORM``."""
    if X.ndim != 2 or X.shape[1] != params.w1.shape[1]:
        raise ValidationError(
            f"input dim {X.shape} incompatible with encoder input {params.w1.shape[1]}")
    h1 = X @ params.w1.T
    h1 += params.b1
    np.maximum(h1, 0.0, out=h1)
    h2 = h1 @ params.w2.T
    h2 += params.b2
    np.maximum(h2, 0.0, out=h2)
    feature = h2 @ params.w3.T
    feature += params.b3
    norms = np.linalg.norm(feature, axis=1)
    if not np.all((norms > EPS_NORM) & (norms < np.inf)):     # False for NaN too
        raise NumericError("degenerate vector: a feature norm is zero or not finite")
    emb = feature / norms[:, None]
    return ForwardCache(x=X, h1=h1, h2=h2, feature=feature, norms=norms, embed=emb)


def embed(params: EncoderParams, X) -> np.ndarray:
    """Unit-norm embeddings of a batch."""
    return forward(params, X).embed


def head_logits(params: EncoderParams, cache: ForwardCache) -> np.ndarray:
    """Shift-classification logits from the cached pre-normalization feature."""
    return cache.feature @ params.wh.T + params.bh


def shift_logits(params: EncoderParams, X) -> np.ndarray:
    """Shift-classification logits of a batch."""
    return head_logits(params, forward(params, X))


def backward(
    params: EncoderParams,
    cache: ForwardCache,
    d_embed: Optional[np.ndarray] = None,
    d_logits: Optional[np.ndarray] = None,
) -> EncoderParams:
    """Parameter gradients from upstream gradients.

    Either or both of d_embed (w.r.t. unit embeddings) and d_logits (w.r.t.
    shift-head logits) may be given; contributions add. Each gradient is
    written straight into its view of the returned bundle's buffer.
    """
    grads = params.zeros_like()
    if d_embed is not None:
        # d/dv of v/||v||: (I - u u^T)/||v|| applied to the upstream gradient.
        proj = np.sum(d_embed * cache.embed, axis=1, keepdims=True)
        df = d_embed - proj * cache.embed
        df /= cache.norms[:, None]
    else:
        df = np.zeros_like(cache.feature)
    if d_logits is not None:
        np.matmul(d_logits.T, cache.feature, out=grads.wh)
        np.sum(d_logits, axis=0, out=grads.bh)
        df += d_logits @ params.wh

    np.matmul(df.T, cache.h2, out=grads.w3)
    np.sum(df, axis=0, out=grads.b3)
    dh2 = df @ params.w3
    dh2 *= cache.h2 > 0
    np.matmul(dh2.T, cache.h1, out=grads.w2)
    np.sum(dh2, axis=0, out=grads.b2)
    dh1 = dh2 @ params.w2
    dh1 *= cache.h1 > 0
    np.matmul(dh1.T, cache.x, out=grads.w1)
    np.sum(dh1, axis=0, out=grads.b1)
    return grads
