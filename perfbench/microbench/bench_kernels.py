"""Kernel microbenchmarks at the shapes the traced acceptance run sees.

    python3 -m pytest perfbench/microbench/bench_kernels.py -p no:cacheprovider

Uses the installed pytest-benchmark. The file name keeps it out of the
repository's test collection. Each benchmark stores FLOPs and bytes in
``extra_info``; they are computed from array shapes, not measured, and the
keys say so.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

from protoad import encoder as enc                      # noqa: E402
from protoad import objective as obj                    # noqa: E402
from protoad import prototypes as proto                 # noqa: E402
from protoad.augment import ShiftFamily, WeakAugConfig, weak_batch  # noqa: E402
from protoad.evalharness import auroc                   # noqa: E402
from protoad.pretrain import ContrastiveBatch, contrastive_loss     # noqa: E402

from layers import contrastive_cost                     # noqa: E402

DIMS = enc.EncoderDims(input=32, hidden=64, embed=16, shifts=4)
F64 = 8


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def clustered_embeddings(n=3200, k=16, d=16, seed=0):
    """Unit rows around k centres, like the ELSA+ clustering pool (train x 4 shifts)."""
    rng = np.random.default_rng(seed)
    centres = unit_rows(rng, k, d)
    x = centres[rng.integers(k, size=n)] + 0.3 * rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def computed(benchmark, flop, nbytes):
    benchmark.extra_info["flop_computed"] = float(flop)
    benchmark.extra_info["bytes_computed"] = float(nbytes)


def forward_cost(n):
    d = DIMS
    weights = d.input * d.hidden + d.hidden * d.hidden + d.hidden * d.embed
    flop = 2 * n * weights + n * (2 * d.hidden + 3 * d.embed)
    nbytes = F64 * (n * (d.input + 2 * d.hidden + 2 * d.embed) + weights)
    return flop, nbytes


def test_contrastive_loss_1024x16(benchmark):
    E = unit_rows(np.random.default_rng(0), 1024, 16)
    batch = ContrastiveBatch(E[:512], E[512:], 0.5)
    computed(benchmark, *contrastive_cost(1024, 16))
    benchmark(contrastive_loss, batch)


@pytest.mark.parametrize("rows", [1024, 512])
def test_encoder_forward(benchmark, rows):
    params = enc.init(0, DIMS)
    X = np.random.default_rng(1).standard_normal((rows, DIMS.input))
    computed(benchmark, *forward_cost(rows))
    benchmark(enc.forward, params, X)


@pytest.mark.parametrize("rows", [1024, 512])
def test_encoder_backward(benchmark, rows):
    params = enc.init(0, DIMS)
    rng = np.random.default_rng(2)
    cache = enc.forward(params, rng.standard_normal((rows, DIMS.input)))
    d_embed = rng.standard_normal((rows, DIMS.embed))
    d_logits = rng.standard_normal((rows, DIMS.shifts))
    flop, nbytes = forward_cost(rows)
    computed(benchmark, 2 * flop, 2 * nbytes)    # weight and input gradients
    benchmark(enc.backward, params, cache, d_embed=d_embed, d_logits=d_logits)


def test_energy_score_grad_512x16_k16(benchmark):
    rng = np.random.default_rng(3)
    n, d, k = 512, 16, 16
    E, P = unit_rows(rng, n, d), unit_rows(rng, k, d)
    computed(benchmark, 4 * n * k * d + 8 * n * k, F64 * (2 * n * d + k * d + 3 * n * k))
    benchmark(obj.energy_score_grad, E, P, 0.5)


def test_prototypes_fit_3200x16(benchmark):
    X = clustered_embeddings()
    # Per Lloyd iteration of one restart; the iteration count is data dependent.
    computed(benchmark, 2 * 3200 * 16 * 16, F64 * (3200 * 16 + 2 * 3200 * 16))
    benchmark(proto.fit, X, 16, seed=4)


def test_prototypes_refresh_3200x16(benchmark):
    X = clustered_embeddings()
    state = proto.fit(X, 16, seed=4)
    drifted = clustered_embeddings(seed=1)
    computed(benchmark, 2 * 3200 * 16 * 16, F64 * (3200 * 16 + 2 * 3200 * 16))
    benchmark(proto.refresh, state, drifted, 3, 3, seed=5)


def test_auroc_2000(benchmark):
    rng = np.random.default_rng(6)
    scores = rng.standard_normal(2000)
    labels = (rng.random(2000) < 0.5).astype(np.int64)
    computed(benchmark, 2000 * np.log2(2000), F64 * 4 * 2000)   # sort compares
    benchmark(auroc, scores, labels)


@pytest.mark.parametrize("rows", [512, 1000])
def test_weak_batch(benchmark, rows):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((rows, DIMS.input))
    cfg = WeakAugConfig(noise_sigma=0.05)
    computed(benchmark, 3 * rows * DIMS.input, F64 * 4 * rows * DIMS.input)
    benchmark(weak_batch, X, cfg, rng)


def test_score_ensemble_1000(benchmark):
    rng = np.random.default_rng(8)
    params = enc.init(0, DIMS)
    X = rng.standard_normal((1000, DIMS.input))
    P = unit_rows(rng, 16, DIMS.embed)
    shifts = ShiftFamily.random(DIMS.input, DIMS.shifts, seed=77)
    cfg = WeakAugConfig(noise_sigma=0.05)
    passes = DIMS.shifts * 10
    flop, nbytes = forward_cost(1000)
    computed(benchmark, passes * (flop + 4 * 1000 * 16 * DIMS.embed),
             passes * (nbytes + F64 * 4 * 1000 * DIMS.input))
    benchmark(obj.score_ensemble, X, params, P, 0.5, cfg, shifts, 10, rng)
