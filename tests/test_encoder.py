import pickle
import tracemalloc

import numpy as np
import pytest

from protoad import encoder as enc
from protoad.augment import ShiftFamily
from protoad.data import ValidationError
from protoad.mathcore import NumericError
from protoad.objective import loss_shift

from gradcheck import grad_check

DIMS = enc.EncoderDims(input=6, hidden=10, embed=5, shifts=4)


def _params(seed=0, dims=DIMS):
    return enc.init(seed, dims)


def test_embed_unit_norm():
    params = _params()
    rng = np.random.default_rng(1)
    emb = enc.embed(params, rng.normal(size=(20, DIMS.input)))
    assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-9)


def test_embed_zero_network_is_degenerate():
    params = _params()
    zero = params.from_vector(np.zeros(params.to_vector().size))
    with pytest.raises(NumericError, match="degenerate vector"):
        enc.embed(zero, np.ones((1, DIMS.input)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("field", ["w1", "b2", "w3", "b3"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_forward_with_a_non_finite_weight_raises(field, value):
    # Weights updated in place are checked by their effect on the feature norms.
    params = _params()
    getattr(params, field).flat[0] = value
    X = np.random.default_rng(1).normal(size=(20, DIMS.input))
    with pytest.raises(NumericError, match="a feature norm is zero or not finite"):
        enc.forward(params, X)


def test_embed_bitwise_stable():
    params = _params()
    x = np.linspace(-1, 1, DIMS.input)[None, :]
    a = enc.embed(params, x)
    b = enc.embed(params, x)
    assert np.array_equal(a, b)


def test_embed_dimension_mismatch():
    with pytest.raises(ValidationError):
        enc.embed(_params(), np.zeros((1, DIMS.input + 1)))


def test_shift_logits_zero_head_uniform():
    params = _params()
    params.wh[:] = 0.0
    params.bh[:] = 0.0
    logits = enc.shift_logits(params, np.ones((3, DIMS.input)))
    assert np.array_equal(logits, np.zeros((3, DIMS.shifts)))


def test_init_deterministic_and_seed_sensitive():
    a = _params(seed=5)
    b = _params(seed=5)
    c = _params(seed=6)
    assert np.array_equal(a.to_vector(), b.to_vector())
    assert not np.array_equal(a.to_vector(), c.to_vector())


def test_init_kaiming_scale():
    dims = enc.EncoderDims(input=100, hidden=120, embed=16, shifts=4)
    params = enc.init(0, dims)
    std = params.w1.std()
    expect = np.sqrt(2.0 / 100)
    assert abs(std - expect) / expect < 0.10
    assert np.all(params.b1 == 0.0)


def test_vector_roundtrip():
    params = _params(3)
    theta = params.to_vector()
    again = params.from_vector(theta)
    assert np.array_equal(again.to_vector(), theta)
    for f in enc.EncoderParams.FIELDS:
        assert getattr(again, f).shape == getattr(params, f).shape


# ------------------------------------------------------- gradient checks

def _loss_through_embed(params0, X, A):
    """theta -> sum(A * embed(X)); exercises the normalization Jacobian."""

    def f(theta):
        p = params0.from_vector(theta)
        cache = enc.forward(p, X)
        value = float(np.sum(A * cache.embed))
        grads = enc.backward(p, cache, d_embed=A, d_logits=np.zeros((len(X), DIMS.shifts)))
        return value, grads.to_vector()

    return f


def test_backward_through_normalization():
    rng = np.random.default_rng(0)
    params = _params()
    X = rng.normal(size=(4, DIMS.input))
    A = rng.normal(size=(4, DIMS.embed))
    report = grad_check(_loss_through_embed(params, X, A),
                        params.to_vector(), h=1e-5)
    assert report.max_rel_error < 1e-5


def test_backward_head_cross_entropy():
    rng = np.random.default_rng(1)
    params = _params(2)
    X = rng.normal(size=(8, DIMS.input))
    ids = np.array([0, 1, 2, 3, 0, 1, 2, 3])

    def f(theta):
        p = params.from_vector(theta)
        cache = enc.forward(p, X)
        loss, d_logits = loss_shift(enc.head_logits(p, cache), ids)
        grads = enc.backward(p, cache, d_embed=np.zeros_like(cache.embed), d_logits=d_logits)
        return loss, grads.to_vector()

    report = grad_check(f, params.to_vector(), h=1e-5)
    assert report.max_rel_error < 1e-5


def test_backward_combined_paths():
    # embeddings and head logits used in one loss; gradients must add up
    rng = np.random.default_rng(4)
    params = _params(5)
    X = rng.normal(size=(5, DIMS.input))
    A = rng.normal(size=(5, DIMS.embed))
    ids = np.array([0, 1, 2, 3, 1])

    def f(theta):
        p = params.from_vector(theta)
        cache = enc.forward(p, X)
        ce, d_logits = loss_shift(enc.head_logits(p, cache), ids)
        value = float(np.sum(A * cache.embed)) + ce
        grads = enc.backward(p, cache, d_embed=A, d_logits=d_logits)
        return value, grads.to_vector()

    report = grad_check(f, params.to_vector(), h=1e-5)
    assert report.max_rel_error < 1e-5


def test_perfect_separation_head_fixture():
    # A head whose rows are the centered per-shift mean features classifies
    # those mean features with near-zero cross-entropy.
    dims = enc.EncoderDims(input=8, hidden=32, embed=8, shifts=4)
    rng = np.random.default_rng(7)
    params = enc.init(8, dims)
    fam = ShiftFamily.random(dims.input, count=dims.shifts, seed=9)
    X = rng.normal(size=(50, dims.input))
    rows, ids = fam.expand(X)
    feats = enc.forward(params, rows).feature
    means = np.stack([feats[ids == k].mean(axis=0) for k in range(fam.count)])
    centered = means - means.mean(axis=0)
    scale = 200.0 / np.linalg.norm(centered)
    params.wh[:] = scale * centered
    params.bh[:] = -params.wh @ means.mean(axis=0)  # cancel the common component
    logits = means @ params.wh.T + params.bh
    loss, _ = loss_shift(logits, np.arange(fam.count))
    assert loss < 1e-3


# ------------------------------------------------ flat buffer and optimizers

def test_fields_are_views_of_flat_in_layout_order():
    params = _params(3)
    params.flat[:] = np.arange(params.flat.size)
    start = 0
    for f in enc.EncoderParams.FIELDS:
        view = getattr(params, f)
        assert np.shares_memory(view, params.flat)
        assert np.array_equal(view.ravel(), np.arange(start, start + view.size))
        start += view.size
    assert start == params.flat.size
    params.w2[1, 2] = -7.0     # a write to a field is a write to flat
    assert params.flat[params.w1.size + params.b1.size + params.w2.shape[1] + 2] == -7.0


def test_new_bundles_never_alias_their_source():
    params = _params(3)
    theta = params.to_vector()
    made = [params.copy(), params.zeros_like(), params.from_vector(theta)]
    for other in made:
        assert not np.shares_memory(other.flat, params.flat)
        for f in enc.EncoderParams.FIELDS:
            assert np.shares_memory(getattr(other, f), other.flat)
    assert not np.shares_memory(made[2].flat, theta)
    assert not np.shares_memory(theta, params.flat)
    before = params.to_vector()
    for other in made:
        other.flat += 1.0
    theta += 1.0
    assert np.array_equal(params.to_vector(), before)


def test_constructor_copies_the_callers_arrays():
    src = _params(4)
    arrays = [getattr(src, f).copy() for f in enc.EncoderParams.FIELDS]
    params = enc.EncoderParams(*arrays)
    for a in arrays:
        a += 1.0
    assert np.array_equal(params.flat, src.flat)


def test_pickle_round_trip_keeps_fields_on_flat():
    params = _params(5)
    back = pickle.loads(pickle.dumps(params))
    assert np.array_equal(back.flat, params.flat)
    for f in enc.EncoderParams.FIELDS:
        assert np.shares_memory(getattr(back, f), back.flat)


def _grads_sequence(params, steps, seed):
    rng = np.random.default_rng(seed)
    return [params.from_vector(rng.normal(size=params.flat.size)) for _ in range(steps)]


def test_sgd_momentum_step_equals_per_field_loop_bitwise():
    lr, momentum = 0.05, 0.9
    flat_p, loop_p = _params(1), _params(1)
    flat_v, loop_v = flat_p.zeros_like(), loop_p.zeros_like()
    for grads in _grads_sequence(flat_p, 5, seed=2):
        enc.sgd_momentum_step(flat_p, flat_v, grads, lr, momentum)
        for f in enc.EncoderParams.FIELDS:     # the per-field update it replaced
            v = getattr(loop_v, f)
            v *= momentum
            v -= lr * getattr(grads, f)
            getattr(loop_p, f).__iadd__(v)
    assert np.array_equal(flat_p.flat, loop_p.flat)
    assert np.array_equal(flat_v.flat, loop_v.flat)


def test_adam_step_equals_per_field_loop_bitwise():
    lr, (beta1, beta2), eps = 1e-3, (0.9, 0.999), 1e-8
    flat_p, loop_p = _params(1), _params(1)
    flat_m, flat_v = flat_p.zeros_like(), flat_p.zeros_like()
    loop_m, loop_v = loop_p.zeros_like(), loop_p.zeros_like()
    for step, grads in enumerate(_grads_sequence(flat_p, 5, seed=3), start=1):
        enc.adam_step(flat_p, flat_m, flat_v, grads, step, lr)
        bc1 = 1.0 - beta1 ** step
        bc2 = 1.0 - beta2 ** step
        for f in enc.EncoderParams.FIELDS:     # the per-field update it replaced
            g = getattr(grads, f)
            m = getattr(loop_m, f)
            v = getattr(loop_v, f)
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            getattr(loop_p, f).__isub__(lr * (m / bc1) / (np.sqrt(v / bc2) + eps))
    assert np.array_equal(flat_p.flat, loop_p.flat)
    assert np.array_equal(flat_m.flat, loop_m.flat)
    assert np.array_equal(flat_v.flat, loop_v.flat)


def test_in_place_forward_backward_equal_the_allocating_formulas():
    rng = np.random.default_rng(6)
    params = _params(6)
    X = rng.normal(size=(40, DIMS.input))
    d_embed = rng.normal(size=(40, DIMS.embed))
    d_logits = rng.normal(size=(40, DIMS.shifts))
    cache = enc.forward(params, X)
    h1 = np.maximum(X @ params.w1.T + params.b1, 0.0)
    h2 = np.maximum(h1 @ params.w2.T + params.b2, 0.0)
    feature = h2 @ params.w3.T + params.b3
    assert np.array_equal(cache.h1, h1) and np.array_equal(cache.h2, h2)
    assert np.array_equal(cache.feature, feature)

    grads = enc.backward(params, cache, d_embed=d_embed, d_logits=d_logits)
    ref = params.zeros_like()      # zeroed gradients plus adds, as before
    df = np.zeros_like(feature)
    ref.wh += d_logits.T @ feature
    ref.bh += d_logits.sum(axis=0)
    df += d_logits @ params.wh
    proj = np.sum(d_embed * cache.embed, axis=1, keepdims=True)
    df += (d_embed - proj * cache.embed) / cache.norms[:, None]
    ref.w3 += df.T @ h2
    ref.b3 += df.sum(axis=0)
    dh2 = (df @ params.w3) * (h2 > 0)
    ref.w2 += dh2.T @ h1
    ref.b2 += dh2.sum(axis=0)
    dh1 = (dh2 @ params.w2) * (h1 > 0)
    ref.w1 += dh1.T @ X
    ref.b1 += dh1.sum(axis=0)
    assert np.array_equal(grads.flat, ref.flat)


def test_backward_allocates_no_batch_by_hidden_array():
    # The hidden layers' gradients are written over the cache's h2 and h1,
    # so the pass never allocates an array the size of one hidden activation.
    dims = enc.EncoderDims(input=6, hidden=64, embed=4, shifts=4)
    rng = np.random.default_rng(7)
    params = _params(7, dims)
    cache = enc.forward(params, rng.normal(size=(512, dims.input)))
    d_embed = rng.normal(size=(512, dims.embed))
    d_logits = rng.normal(size=(512, dims.shifts))
    one_hidden = cache.h1.nbytes
    tracemalloc.start()
    try:
        enc.backward(params, cache, d_embed=d_embed, d_logits=d_logits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_hidden
