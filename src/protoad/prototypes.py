"""Prototype selection by spherical k-means on unit-norm embeddings.

Prototypes are the centroids of a cosine-similarity k-means run over the
embeddings of the (mostly normal) training pool; they act as the subclasses
the energy score is computed against, and are refit during fine-tuning as
the embedding moves, at the epochs that ``refresh_due`` names.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .data import ValidationError
from .mathcore import EPS_NORM, as_f64

_MAX_ITER = 100
_N_INIT = 4        # k-means++ restarts of a cold fit


@dataclass
class PrototypeSet:
    """k unit-norm prototype vectors and the objective trace of their fit.

    ``vectors`` is a read-only copy of the input: ``fit`` and ``refresh``
    build new sets, so one set can be shared (for instance as a best-epoch
    snapshot) without copying it again, and no caller's array is frozen.

    ``norm_tol`` loosens the unit-norm check for vectors that round-tripped
    through 32-bit storage; freshly fitted sets satisfy the default 1e-9.
    """

    vectors: np.ndarray
    objective_trace: List[float] = field(default_factory=list)
    norm_tol: float = 1e-9

    def __post_init__(self):
        self.vectors = as_f64(self.vectors, "prototypes").copy()
        if self.vectors.ndim != 2 or len(self.vectors) < 1:
            raise ValidationError("prototype set must be a nonempty 2-D array")
        norms = np.linalg.norm(self.vectors, axis=1)
        if np.any(np.abs(norms - 1.0) > self.norm_tol):
            raise ValidationError(f"prototypes must be unit-norm within {self.norm_tol}")
        self.vectors.setflags(write=False)

    @property
    def k(self) -> int:
        return len(self.vectors)


def refresh_due(epoch: int, period: int) -> bool:
    """Whether fine-tuning epoch ``epoch`` (counted from 1) refits: every ``period``-th."""
    return epoch % period == 0


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms = np.where(norms <= EPS_NORM, 1.0, norms)
    return m / norms


def _seed_plusplus(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding under cosine distance (1 - similarity)."""
    n = len(X)
    chosen = [int(rng.integers(n))]
    best_sim = X @ X[chosen[0]]
    while len(chosen) < k:
        dist = np.clip(1.0 - best_sim, 0.0, None)
        dist[chosen] = 0.0
        total = float(dist.sum())
        if total <= 0.0:
            # Every remaining point coincides with a chosen one; pick any unchosen.
            remaining = np.setdiff1d(np.arange(n), np.array(chosen))
            nxt = int(rng.permutation(remaining)[0])
        else:
            nxt = int(rng.choice(n, p=dist / total))
        chosen.append(nxt)
        best_sim = np.maximum(best_sim, X @ X[nxt])
    return X[np.array(chosen)].copy()


def _lloyd(X: np.ndarray, centroids: np.ndarray
           ) -> Tuple[np.ndarray, np.ndarray, List[float]]:
    """Alternate cosine assignment and normalized-mean updates until stable."""
    k, d = centroids.shape
    assign = None
    trace: List[float] = []
    for _ in range(_MAX_ITER):
        sims = X @ centroids.T
        new_assign = np.argmax(sims, axis=1)
        trace.append(float(np.mean(sims[np.arange(len(X)), new_assign])))
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        counts = np.bincount(assign, minlength=k)
        # One weighted bincount adds each cluster's rows in row order, as
        # np.add.at did; a one-hot GEMM would reorder the adds (last bits).
        cells = (assign[:, None] * d + np.arange(d)).ravel()
        nxt = np.bincount(cells, weights=X.ravel(), minlength=k * d).reshape(k, d)
        empty = np.flatnonzero(counts == 0)
        if len(empty):
            # Re-seed each empty cluster to the point least similar to its
            # own centroid, worst offenders first.
            own = sims[np.arange(len(X)), assign]
            order = np.argsort(own)
            for ptr, e in enumerate(empty):
                pick = int(order[ptr])
                nxt[e] = X[pick]
                counts[e] = 1
        centroids = _normalize_rows(nxt)
    return centroids, assign, trace


def fit(
    embeddings: np.ndarray,
    k: int,
    seed: int = 0,
    init_vectors: Optional[np.ndarray] = None,
) -> PrototypeSet:
    """Spherical k-means over unit rows. Deterministic under (inputs, k, seed).

    With ``init_vectors`` the run warm-starts from those centroids (one
    restart); otherwise ``_N_INIT`` k-means++ restarts are run and the best
    final objective wins.
    """
    if embeddings.ndim != 2:
        raise ValidationError("embeddings must be 2-D")
    n = len(embeddings)
    if not (1 <= k <= n):
        raise ValidationError(f"need 1 <= k <= n, got k={k}, n={n}")

    if init_vectors is not None:
        starts = [_normalize_rows(init_vectors)]
        if len(starts[0]) != k:
            raise ValidationError("init_vectors count must equal k")
    else:
        rng = np.random.default_rng(seed)
        starts = [_seed_plusplus(embeddings, k, rng) for _ in range(_N_INIT)]

    best = None
    for centroids in starts:
        c, assign, trace = _lloyd(embeddings, centroids)
        if best is None or trace[-1] > best[2][-1]:
            best = (c, assign, trace)
    centroids, _, trace = best
    return PrototypeSet(vectors=centroids, objective_trace=trace)


def refresh(state: PrototypeSet, embeddings: np.ndarray, epoch: int, period: int,
            seed: int = 0) -> PrototypeSet:
    """``state`` refit on ``embeddings`` when ``refresh_due(epoch, period)``, else ``state``.

    The refit warm-starts from the current prototypes and so draws nothing:
    ``seed`` is unused.
    """
    if not refresh_due(epoch, period):
        return state
    return fit(embeddings, state.k, init_vectors=state.vectors)
