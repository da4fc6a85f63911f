import numpy as np
import pytest

from protoad import prototypes as proto
from protoad.config import preset
from protoad.data import ValidationError


def _unit_rows(n, d, rng):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def best_two_partition(X):
    """Exhaustive spherical 2-means oracle: maximize (||sum_A|| + ||sum_B||)/n."""
    n = len(X)
    best_obj, best_mask = -np.inf, None
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        if mask.all() or not mask.any():
            continue
        obj = (np.linalg.norm(X[mask].sum(axis=0))
               + np.linalg.norm(X[~mask].sum(axis=0))) / n
        if obj > best_obj:
            best_obj, best_mask = obj, mask
    return best_obj, best_mask


def test_fit_k1_normalized_mean():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    result = proto.fit(X, k=1, seed=0)
    assert np.allclose(result.vectors[0, 0], np.sqrt([0.5, 0.5]), atol=1e-12)


def test_fit_k_equals_n():
    rng = np.random.default_rng(0)
    X = _unit_rows(6, 4, rng)
    result = proto.fit(X, k=6, seed=1)
    assert result.objective_trace[-1] == pytest.approx(1.0, abs=1e-12)
    sims = X @ result.vectors[0].T
    assert np.allclose(np.max(sims, axis=1), 1.0, atol=1e-9)


def test_fit_antipodal_clusters():
    rng = np.random.default_rng(2)
    base = rng.normal(size=5)
    base /= np.linalg.norm(base)
    cluster_a = base + 0.01 * rng.normal(size=(10, 5))
    cluster_a /= np.linalg.norm(cluster_a, axis=1, keepdims=True)
    cluster_b = -cluster_a
    X = np.vstack([cluster_a, cluster_b])
    result = proto.fit(X, k=2, seed=3)
    sims = result.vectors[0] @ np.stack([base, -base]).T
    # one prototype per direction
    assert sorted(np.argmax(sims, axis=1).tolist()) == [0, 1]
    assert np.min(np.max(sims, axis=1)) > 0.99


def test_fit_matches_exhaustive_oracle(monkeypatch):
    monkeypatch.setattr(proto, "_N_INIT", 20)
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(4, 13))
        X = _unit_rows(n, 3, rng)
        result = proto.fit(X, k=2, seed=trial)
        got = np.argmax(X @ result.vectors[0].T, axis=1)
        _, best_mask = best_two_partition(X)
        groups = {frozenset(np.flatnonzero(got == 0).tolist()),
                  frozenset(np.flatnonzero(got == 1).tolist())}
        expect = {frozenset(np.flatnonzero(best_mask).tolist()),
                  frozenset(np.flatnonzero(~best_mask).tolist())}
        assert groups == expect, f"trial {trial}: {groups} != {expect}"


def _lloyd_add_at(X, centroids):
    """The Lloyd loop with np.add.at centroid sums; also says whether any
    iteration re-seeded an empty cluster."""
    k = len(centroids)
    assign, trace, reseeded = None, [], False
    for _ in range(proto._MAX_ITER):
        sims = X @ centroids.T
        new_assign = np.argmax(sims, axis=1)
        trace.append(float(np.mean(sims[np.arange(len(X)), new_assign])))
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        nxt = np.zeros_like(centroids)
        counts = np.bincount(assign, minlength=k)
        np.add.at(nxt, assign, X)
        order = np.argsort(sims[np.arange(len(X)), assign])
        for ptr, e in enumerate(np.flatnonzero(counts == 0)):
            nxt[e] = X[int(order[ptr])]
            reseeded = True
        centroids = proto._normalize_rows(nxt)
    return centroids, assign, trace, reseeded


def _assert_lloyd_matches_add_at(X, start):
    got = proto._lloyd(X, start.copy())
    want = _lloyd_add_at(X, start.copy())
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    return want[3]


@pytest.mark.parametrize("n,d,k", [(30, 3, 4), (500, 8, 16), (5000, 16, 16)])
def test_lloyd_sums_equal_add_at_bitwise(n, d, k):
    # 5000 x 16 rows is past the size where a one-hot GEMM stops matching.
    rng = np.random.default_rng(n)
    X = _unit_rows(n, d, rng)
    _assert_lloyd_matches_add_at(X, proto._seed_plusplus(X, k, rng))


def test_lloyd_sums_equal_add_at_through_an_empty_cluster_reseed():
    rng = np.random.default_rng(9)
    X = np.abs(_unit_rows(200, 6, rng))      # every row in the positive orthant
    start = _unit_rows(5, 6, rng)
    start[0] = -np.ones(6) / np.sqrt(6.0)    # no row is nearest to this one
    assert _assert_lloyd_matches_add_at(X, start)


def test_fit_objective_nondecreasing():
    rng = np.random.default_rng(5)
    for trial in range(50):
        X = _unit_rows(int(rng.integers(8, 40)), 4, rng)
        result = proto.fit(X, k=int(rng.integers(2, 6)), seed=trial)
        trace = result.objective_trace
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


def test_fit_unit_norm_centroids():
    # One fit is one slot: a (1, k, d) stack.
    rng = np.random.default_rng(6)
    X = _unit_rows(40, 8, rng)
    result = proto.fit(X, k=5, seed=0)
    assert result.vectors.shape == (1, 5, 8)
    assert np.allclose(np.linalg.norm(result.vectors, axis=-1), 1.0, atol=1e-9)


def test_fit_deterministic():
    rng = np.random.default_rng(7)
    X = _unit_rows(30, 6, rng)
    a = proto.fit(X, k=4, seed=11)
    b = proto.fit(X, k=4, seed=11)
    assert np.array_equal(a.vectors, b.vectors)
    assert a.objective_trace == b.objective_trace


def test_fit_rejects_k_above_n():
    rng = np.random.default_rng(8)
    with pytest.raises(ValidationError):
        proto.fit(_unit_rows(3, 4, rng), k=4)


def test_prototype_set_rejects_non_unit():
    with pytest.raises(ValidationError, match="unit-norm"):
        proto.PrototypeSet(np.array([[[1.0, 1.0]]]))


@pytest.mark.parametrize("shape", [(2,), (2, 2), (0, 2, 2), (2, 0, 2), (1, 1, 1, 2)])
def test_prototype_set_is_a_nonempty_stack_of_slots(shape):
    vectors = np.zeros(shape)
    vectors[..., 0] = 1.0
    with pytest.raises(ValidationError, match=r"nonempty \(slots, m, d\) stack"):
        proto.PrototypeSet(vectors)


def test_refresh_every_epoch():
    rng = np.random.default_rng(10)
    X = _unit_rows(20, 4, rng)
    state = proto.fit(X, k=2, seed=0)
    for epoch in (1, 2, 3):
        nxt = proto.refresh(state, X, epoch=epoch, period=1)
        assert nxt is not state
        state = nxt


def test_refresh_period_three():
    rng = np.random.default_rng(11)
    X = _unit_rows(20, 4, rng)
    state = proto.fit(X, k=2, seed=0)
    refreshed_at = []
    for epoch in range(1, 10):
        nxt = proto.refresh(state, X, epoch=epoch, period=3)
        if nxt is not state:
            refreshed_at.append(epoch)
        state = nxt
    assert refreshed_at == [3, 6, 9]


@pytest.mark.parametrize("period", [1, 3])
def test_refresh_due_says_when_refresh_refits(period):
    rng = np.random.default_rng(13)
    X = _unit_rows(20, 4, rng)
    state = proto.fit(X, k=2, seed=0)
    for epoch in range(1, 10):
        due = proto.refresh_due(epoch, period)
        nxt = proto.refresh(state, X, epoch=epoch, period=period)
        assert due == (nxt is not state) == (epoch % period == 0)
        state = nxt


def test_refresh_warm_start_tracks_drifting_embeddings():
    # Small drift, as between fine-tuning epochs: the warm start keeps pace
    # with a cold refit.
    rng = np.random.default_rng(12)
    X = _unit_rows(30, 4, rng)
    state = proto.fit(X, k=3, seed=0)
    drifted = X + 0.02 * rng.normal(size=X.shape)
    drifted /= np.linalg.norm(drifted, axis=1, keepdims=True)
    warm = proto.refresh(state, drifted, epoch=1, period=1)
    cold = proto.fit(drifted, k=3, seed=0)
    assert warm.vectors.shape == (1, 3, 4)
    assert np.allclose(np.linalg.norm(warm.vectors, axis=-1), 1.0, atol=1e-9)
    assert warm.objective_trace[-1] >= cold.objective_trace[-1] - 1e-9


@pytest.mark.parametrize("epoch", [1, 2])
def test_refresh_refuses_a_set_of_several_slots(epoch):
    # The refit warm-starts from one slot; a stacked ELSA+ set would come
    # back as its first slot alone, so it is refused, due or not.
    rng = np.random.default_rng(14)
    X = _unit_rows(20, 4, rng)
    stack = proto.PrototypeSet(np.concatenate([proto.fit(X, k=2, seed=s).vectors
                                               for s in range(3)]))
    with pytest.raises(ValidationError, match="one-slot prototype set, got 3 slots"):
        proto.refresh(stack, X, epoch=epoch, period=2)


def test_prototype_vectors_are_read_only():
    # Sets are shared instead of copied (e.g. as a best-epoch snapshot).
    state = proto.fit(_unit_rows(20, 4, np.random.default_rng(0)), k=2, seed=0)
    with pytest.raises(ValueError):
        state.vectors[0, 0, 0] = 0.0
    own = np.eye(2)[None]
    proto.PrototypeSet(own)
    own[0, 0, 0] = 1.0    # the caller's array stays writable


@pytest.mark.parametrize("mode", ["elsa", "elsa_plus"])
def test_fit_prototypes_fits_each_slot_on_its_own_rows_alone(mode):
    # A (S, k/S, d) stack, each block equal to a fit of that slot's rows alone;
    # with one slot, the plain fit of every row.
    rc = preset("smoke").replace(mode=mode)
    slots = rc.shift_count
    rows = _unit_rows(30 * slots, 8, np.random.default_rng(3))
    got = rc.fit_prototypes(rows)
    assert got.vectors.shape == (slots, rc.n_prototypes // slots, 8)
    for block, own in zip(got.vectors, np.split(rows, slots)):
        assert np.array_equal(block, proto.fit(own, rc.n_prototypes // slots,
                                               seed=rc.seed + 4).vectors[0])
