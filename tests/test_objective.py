import math
import tracemalloc

import numpy as np
import pytest

from protoad import encoder as enc
from protoad import objective as obj
from protoad.augment import ShiftFamily, WeakAugConfig
from protoad.data import ValidationError
from protoad.mathcore import NumericError, softmax_rows

from gradcheck import grad_check
from oracles import (energy_score_by_copy, energy_score_grad_two_pass,
                     logsumexp_rows_by_copy, loss_shift_by_copy, prototype_posterior,
                     score_ensemble_by_copy, spearman)


def _unit(v):
    """One unit row: a batch of one sample."""
    v = np.asarray(v, dtype=float)
    return (v / np.linalg.norm(v))[None, :]


def _protos_with_sims(sims, dim=8, seed=0):
    """Prototypes realizing the given cosine similarities against a fixed e,
    returned as a batch of one row."""
    rng = np.random.default_rng(seed)
    e = np.zeros(dim)
    e[0] = 1.0
    rows = []
    for s in sims:
        orth = rng.normal(size=dim)
        orth[0] = 0.0
        orth = orth / np.linalg.norm(orth)
        rows.append(s * e + math.sqrt(1.0 - s * s) * orth)
    return e[None, :], np.stack(rows)


# ------------------------------------------------------------- posterior

def test_posterior_uniform_when_sims_equal():
    e, P = _protos_with_sims([0.4, 0.4, 0.4, 0.4])
    p = prototype_posterior(e, P, tau=0.5)
    assert np.allclose(p, 0.25, atol=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_posterior_low_temperature_one_hot():
    e, P = _protos_with_sims([0.9, -0.2, 0.5])
    p = prototype_posterior(e, P, tau=1e-4)
    assert abs(p[0, 0] - 1.0) < 1e-6


def test_posterior_oracle_values():
    e, P = _protos_with_sims([0.9, -0.2, 0.5])
    p = prototype_posterior(e, P, tau=0.5)
    # softmax([1.8, -0.4, 1.0]) at 40-digit precision
    assert np.allclose(p, [0.6409713546, 0.0710216505, 0.2880069948], atol=1e-9)


# ---------------------------------------------------------- energy score

def test_energy_single_perfect_prototype():
    P = e = _unit([1.0, 0.0])
    assert obj.energy_score(e, P, tau=0.5) == pytest.approx(2.0, abs=1e-12)


def test_energy_all_orthogonal():
    e, P = _protos_with_sims([0.0] * 100, dim=128)
    assert obj.energy_score(e, P, tau=0.5) == pytest.approx(math.log(100), abs=1e-9)


def test_energy_oracle_value():
    e, P = _protos_with_sims([0.9, -0.2, 0.5])
    assert obj.energy_score(e, P, tau=0.5) == pytest.approx(2.244770511572271,
                                                            abs=1e-9)


def test_energy_bounds_random():
    rng = np.random.default_rng(0)
    tau, k = 0.5, 16
    lo, hi = math.log(k) - 1 / tau, math.log(k) + 1 / tau
    for _ in range(200):
        e = _unit(rng.normal(size=8))
        P = rng.normal(size=(k, 8))
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        s = obj.energy_score(e, P, tau)
        assert lo - 1e-9 <= s <= hi + 1e-9


def test_energy_posterior_consistency():
    # log p(y|x) + S recovers the logit sim/tau.
    e, P = _protos_with_sims([0.7, -0.3, 0.1])
    tau = 0.5
    s = obj.energy_score(e, P, tau)
    p = prototype_posterior(e, P, tau)
    logits = (e @ P.T) / tau
    assert np.allclose(np.log(p) + s, logits, atol=1e-9)


def test_energy_monotone_in_single_similarity():
    sims = [0.2, 0.5, -0.1]
    e, P = _protos_with_sims(sims)
    base_energy = obj.energy_score(e, P, 0.5)
    base_cos = obj.score_cosine(e, P)
    sims2 = [0.2, 0.7, -0.1]  # raise the argmax prototype similarity
    _, P2 = _protos_with_sims(sims2)
    assert obj.energy_score(e, P2, 0.5) > base_energy
    assert obj.score_cosine(e, P2) > base_cos


def test_energy_grad():
    rng = np.random.default_rng(1)
    P = rng.normal(size=(5, 6))
    P /= np.linalg.norm(P, axis=1, keepdims=True)

    def f(flat):
        E = flat.reshape(2, 6)
        scores, dE = obj.energy_score_grad(E, P, 0.5)
        return float(scores.sum()), dE.ravel()

    report = grad_check(f, rng.normal(size=12), h=1e-5)
    assert report.max_rel_error < 1e-6


def test_energy_score_grad_matches_two_pass_oracle_bit_for_bit():
    # Oracle: logsumexp_rows for the scores, softmax_rows for dS/dE, each
    # with its own max, exp and sum over the same logits.
    rng = np.random.default_rng(3)
    E = rng.normal(size=(1024, 16))
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    P = rng.normal(size=(16, 16))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    for tau in (0.5, 0.07):
        logits = (E @ P.T) / tau
        scores, dE = obj.energy_score_grad(E, P, tau)
        assert np.array_equal(scores, logsumexp_rows_by_copy(logits))
        assert np.array_equal(dE, softmax_rows(logits) @ P / tau)


@pytest.mark.parametrize("score", [obj.energy_score,
                                   lambda E, P, tau: obj.energy_score_grad(E, P, tau)[0]],
                         ids=["energy_score", "energy_score_grad"])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_non_finite_energy_raises_on_both_paths(score):
    # At tau=1e-320 the logits overflow to +-inf, so no score is finite.
    E = _unit_rows(5, 4, seed=1)
    P = _unit_rows(3, 4, seed=2)
    with pytest.raises(NumericError, match="non-finite energy score"):
        score(E, P, 1e-320)


# ------------------------------------------------------------- loss_elsa

C100 = obj.c_constant(100, 0.5)


@pytest.mark.parametrize("n, k, tau", [(1000, 16, 0.5), (512, 16, 0.07),
                                       (1, 16, 0.5), (9, 40, 0.2)])
def test_energy_score_and_grad_equal_copying_oracles_bitwise(n, k, tau):
    rng = np.random.default_rng(n + k)
    E = rng.normal(size=(n, 8))
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    P = rng.normal(size=(k, 8))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    assert np.array_equal(obj.energy_score(E, P, tau), energy_score_by_copy(E, P, tau))
    assert np.array_equal(obj.energy_score(E[:1], P, tau),
                          energy_score_by_copy(E[:1], P, tau))
    scores, dE = obj.energy_score_grad(E, P, tau)
    o_scores, o_dE = energy_score_grad_two_pass(E, P, tau)
    assert np.array_equal(scores, o_scores)
    assert np.array_equal(dE, o_dE)


def test_c_constant_modes():
    assert C100 == pytest.approx(math.log(100) + 2.0, abs=1e-12)
    assert obj.c_constant(100, 0.5, "appendix") == pytest.approx(
        math.log(100 + 2.0), abs=1e-12)


def test_loss_elsa_oracle_value():
    breakdown, _ = obj.loss_elsa(np.array([3.0, 5.0]), [-1, 0], C100)
    assert breakdown.total == pytest.approx(0.2386897078932106, abs=1e-12)
    assert breakdown.total == pytest.approx(
        breakdown.anomaly_term + breakdown.normal_term, abs=1e-15)


def test_loss_elsa_normal_term_limit():
    s = C100 - 1e-9
    breakdown, _ = obj.loss_elsa(np.array([s, s]), [0, 1], C100)
    assert breakdown.normal_term == pytest.approx(1.0 / C100, rel=1e-6)
    assert breakdown.anomaly_term == 0.0


def test_loss_elsa_domain_errors():
    with pytest.raises(NumericError, match="score out of"):
        obj.loss_elsa(np.array([-0.1, 3.0]), [0, 0], C100)
    with pytest.raises(NumericError, match="score out of"):
        obj.loss_elsa(np.array([3.0, C100 + 0.1]), [0, -1], C100)


def test_loss_elsa_permissive_mode():
    breakdown, grad = obj.loss_elsa(np.array([-0.5, 3.0]), [0, -1], C100, strict=False)
    assert np.isfinite(breakdown.total)
    with pytest.raises(NumericError):
        obj.loss_elsa(np.array([0.0, 3.0]), [0, -1], C100, strict=False)


def test_loss_elsa_grad():
    semi = np.array([-1, 0, 1, 0, -1])

    def f(s):
        breakdown, grad = obj.loss_elsa(s, semi, C100)
        return breakdown.total, grad

    report = grad_check(f, np.array([3.0, 4.0, 5.5, 1.2, 6.0]), h=1e-5)
    assert report.max_rel_error < 1e-6


def test_loss_elsa_gradient_signs():
    _, grad = obj.loss_elsa(np.array([3.0, 4.0]), [-1, 0], C100)
    assert grad[0] > 0  # descending decreases anomaly scores
    assert grad[1] < 0  # and increases normal scores


# ------------------------------------------------------------ loss_shift

def test_loss_shift_uniform_logits():
    loss, _ = obj.loss_shift(np.zeros((6, 4)), np.array([0, 1, 2, 3, 0, 1]))
    assert loss == pytest.approx(math.log(4), abs=1e-12)


def test_loss_shift_confident_correct():
    ids = np.array([0, 1, 2, 3])
    logits = 100.0 * np.eye(4)
    loss, _ = obj.loss_shift(logits, ids)
    assert loss < 1e-6


def test_loss_shift_grad():
    rng = np.random.default_rng(2)
    ids = np.array([0, 2, 1])

    def f(flat):
        logits = flat.reshape(3, 4)
        loss, grad = obj.loss_shift(logits, ids)
        return loss, grad.ravel()

    report = grad_check(f, rng.normal(size=12), h=1e-5)
    assert report.max_rel_error < 1e-6


@pytest.mark.parametrize("n, k", [(512, 4), (1024, 4), (3, 4), (2, 8)])
def test_loss_shift_equals_copying_oracle_bitwise(n, k):
    rng = np.random.default_rng(n)
    logits = rng.normal(size=(n, k)) * 4.0
    ids = rng.integers(0, k, size=n)
    before = logits.copy()
    loss, grad = obj.loss_shift(logits, ids)
    o_loss, o_grad = loss_shift_by_copy(logits, ids)
    assert loss == o_loss
    assert np.array_equal(grad, o_grad)
    assert np.array_equal(logits, before)


def test_loss_shift_rejects_bad_ids():
    with pytest.raises(ValidationError):
        obj.loss_shift(np.zeros((2, 4)), np.array([0, 4]))


# ---------------------------------------------------------- score_cosine

def test_cosine_member_of_prototypes():
    e, P = _protos_with_sims([0.3, 0.8])
    P = np.vstack([P, e])
    assert obj.score_cosine(e, P) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    e, P = _protos_with_sims([0.0, 0.0])
    assert obj.score_cosine(e, P) == pytest.approx(0.0, abs=1e-12)


def test_cosine_is_max():
    e, P = _protos_with_sims([0.9, -0.2, 0.5])
    assert obj.score_cosine(e, P) == pytest.approx(0.9, abs=1e-9)


# ------------------------------------------------------ score_uniformity

def test_uniformity_empty_reference():
    with pytest.raises(ValidationError):
        obj.score_uniformity(_unit([1.0, 0.0]), np.empty((0, 2)))


def test_uniformity_single_orthogonal_reference():
    e = _unit([1.0, 0.0])
    assert obj.score_uniformity(e, np.array([[0.0, 1.0]])) == pytest.approx(
        0.0, abs=1e-12)


def test_uniformity_oracle_value():
    e, R = _protos_with_sims([0.5, -0.5])
    assert obj.score_uniformity(e, R) == pytest.approx(0.8132616875182228,
                                                       abs=1e-12)


def _unit_rows(n, dim, seed):
    X = np.random.default_rng(seed).normal(size=(n, dim))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


# With a budget of 24 similarities and 6 reference rows a block holds 4 rows.
@pytest.mark.parametrize("n_query", [1, 3, 4, 5, 13])
def test_uniformity_blocks_equal_one_shot_oracle(monkeypatch, n_query):
    monkeypatch.setattr(obj, "_UNIFORMITY_BLOCK", 24)
    E, R = _unit_rows(n_query, 5, seed=n_query), _unit_rows(6, 5, seed=99)
    got = obj.score_uniformity(E, R)
    assert got.shape == (n_query,)
    np.testing.assert_allclose(got, logsumexp_rows_by_copy(E @ R.T), rtol=1e-12, atol=0)


def test_uniformity_reference_above_budget_scores_one_row_per_block(monkeypatch):
    monkeypatch.setattr(obj, "_UNIFORMITY_BLOCK", 24)
    E, R = _unit_rows(7, 5, seed=1), _unit_rows(30, 5, seed=2)
    np.testing.assert_allclose(obj.score_uniformity(E, R), logsumexp_rows_by_copy(E @ R.T),
                               rtol=1e-12, atol=0)


def test_uniformity_zero_query_rows_give_empty_scores(monkeypatch):
    monkeypatch.setattr(obj, "_UNIFORMITY_BLOCK", 24)
    out = obj.score_uniformity(np.empty((0, 5)), _unit_rows(6, 5, seed=0))
    assert out.shape == (0,)


def test_uniformity_traced_peak_does_not_grow_with_queries():
    E, R = _unit_rows(3000, 16, seed=0), _unit_rows(1000, 16, seed=1)
    obj.score_uniformity(E[:2], R)
    tracemalloc.start()
    try:
        obj.score_uniformity(E, R)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One block of similarities (2 MB) reduced in place, plus its finiteness
    # mask and the scores: 2.38 MB measured. A shifted copy of each block
    # would take it to 4.3 MB; the one-shot 3000 x 1000 matrix alone is 24 MB.
    assert peak < 1.2 * obj._UNIFORMITY_BLOCK * 8


def test_uniformity_self_excludes_diagonal():
    rng = np.random.default_rng(3)
    E = rng.normal(size=(5, 4))
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    scores = obj.uniformity_scores_self(E)
    for i in range(5):
        ref = np.delete(E, i, axis=0)
        assert scores[i] == pytest.approx(obj.score_uniformity(E[i:i + 1], ref)[0],
                                          abs=1e-12)


# ------------------------------------------------------------ loss_naive

def test_loss_naive_values():
    b1, _ = obj.loss_naive(np.array([5.0]), [0])
    assert b1.total == -5.0
    b2, _ = obj.loss_naive(np.array([3.0, 5.0]), [-1, 1])
    assert b2.total == -1.0


def test_loss_naive_grad_structure():
    _, grad = obj.loss_naive(np.array([3.0, 5.0, 2.0, 1.0]), [-1, 0, 1, -1])
    assert np.allclose(grad, [0.25, -0.25, -0.25, 0.25])

    def f(s):
        breakdown, g = obj.loss_naive(s, [-1, 0, 1, -1])
        return breakdown.total, g

    report = grad_check(f, np.array([3.0, 5.0, 2.0, 1.0]), h=1e-5)
    assert report.max_rel_error < 1e-6


# ---------------------------------------------------------- loss_deepsad

def test_loss_deepsad_single_anomaly():
    b, _ = obj.loss_deepsad(np.array([3.0]), [-1], C100)
    assert b.total == pytest.approx(0.2773794157864211, abs=1e-12)


def test_loss_deepsad_all_normal_equals_naive():
    scores = np.array([2.0, 3.5, 4.0])
    semi = [0, 1, 0]
    sad, _ = obj.loss_deepsad(scores, semi, C100)
    naive, _ = obj.loss_naive(scores, semi)
    assert sad.total == pytest.approx(naive.total, abs=1e-15)


def test_loss_deepsad_grad():
    semi = np.array([-1, 0, 1])

    def f(s):
        breakdown, g = obj.loss_deepsad(s, semi, C100)
        return breakdown.total, g

    report = grad_check(f, np.array([3.0, 4.0, 5.0]), h=1e-5)
    assert report.max_rel_error < 1e-6


# --------------------------------------------------- gradient-step check

def test_elsa_gradient_step_moves_scores_correctly():
    # One descent step on the embeddings must push anomaly scores down and
    # normal scores up against frozen prototypes.
    rng = np.random.default_rng(4)
    P = rng.normal(size=(8, 6))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    E = rng.normal(size=(10, 6))
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    semi = np.array([-1] * 5 + [0] * 5)
    tau = 0.5
    C = obj.c_constant(8, tau)
    scores, dE = obj.energy_score_grad(E, P, tau)
    _, d_scores = obj.loss_elsa(scores, semi, C)
    E2 = E - 0.1 * d_scores[:, None] * dE
    scores2 = obj.energy_score(E2, P, tau)
    assert np.all(scores2[:5] < scores[:5])
    assert np.all(scores2[5:] > scores[5:])


# --------------------------------------------------------- score_ensemble

def _tiny_encoder(dim=6):
    return enc.init(0, enc.EncoderDims(input=dim, hidden=16, embed=5, shifts=2))


def test_ensemble_degenerate_equals_plain_energy():
    params = _tiny_encoder()
    rng = np.random.default_rng(5)
    X = rng.normal(size=(7, 6))
    P = rng.normal(size=(4, 5))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    plain = obj.energy_score(enc.embed(params, X), P, 0.5)
    identity = WeakAugConfig(noise_sigma=0.0, mask_fraction=0.0, scale_jitter=(1.0, 1.0))
    ens = obj.score_ensemble(X, params, P, 0.5, identity, ShiftFamily.random(6, count=1),
                             1, np.random.default_rng(0))
    assert np.allclose(ens, plain, atol=1e-12)


def test_ensemble_deterministic_under_seed():
    params = _tiny_encoder()
    rng = np.random.default_rng(6)
    X = rng.normal(size=(5, 6))
    P = rng.normal(size=(4, 5))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    fam = ShiftFamily.random(6, count=2, seed=1)
    kw = dict(tau=0.5, weak_cfg=WeakAugConfig(), shifts=fam, n_samples=3)
    a = obj.score_ensemble(X, params, P, rng=np.random.default_rng(9), **kw)
    b = obj.score_ensemble(X, params, P, rng=np.random.default_rng(9), **kw)
    assert np.array_equal(a, b)


def test_ensemble_modes_rank_correlated():
    # The two ensembling recipes differ numerically but order test points
    # almost identically.
    params = _tiny_encoder()
    rng = np.random.default_rng(7)
    X = np.vstack([rng.normal(size=(30, 6)), 3.0 + rng.normal(size=(30, 6))])
    P = rng.normal(size=(6, 5))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    fam = ShiftFamily.random(6, count=2, seed=2)
    kw = dict(tau=0.5, weak_cfg=WeakAugConfig(noise_sigma=0.05),
              shifts=fam, n_samples=8)
    a = obj.score_ensemble(X, params, P, rng=np.random.default_rng(11),
                           mode="scores", **kw)
    b = obj.score_ensemble(X, params, P, rng=np.random.default_rng(11),
                           mode="embeddings", **kw)
    assert not np.allclose(a, b)
    assert spearman(a, b) > 0.9


@pytest.mark.parametrize("mode", obj.ENSEMBLE_MODES)
@pytest.mark.parametrize("count", [1, 3])
def test_ensemble_equals_copying_oracle_bitwise(mode, count):
    params = _tiny_encoder()
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 6))
    P = rng.normal(size=(4, 5))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    kw = dict(tau=0.5, weak_cfg=WeakAugConfig(),
              shifts=ShiftFamily.random(6, count=count, seed=3), n_samples=3, mode=mode)
    got = obj.score_ensemble(X, params, P, rng=np.random.default_rng(12), **kw)
    want = score_ensemble_by_copy(X, params, P, rng=np.random.default_rng(12), **kw)
    assert np.array_equal(got, want)
