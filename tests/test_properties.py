"""Property tests of the paper's invariants and of the configuration rules.

Hypothesis runs derandomized with a fixed example budget and no example
database, so every run draws the same cases. It still writes to
``.hypothesis/`` (the constants it collects, and a patch file after a failing
example), which git ignores.
"""
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from protoad import encoder as enc
from protoad import objective as obj
from protoad import prototypes as proto
from protoad.augment import ShiftFamily
from protoad.checkpoint import load_checkpoint, save_checkpoint
from protoad.config import MODES, ConfigError, RunConfig
from protoad.data import SCENARIOS, ValidationError
from protoad.evalharness import auroc

from gradcheck import grad_check

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)


# ------------------------------------------------------------------ AUROC

@st.composite
def scored_labels(draw):
    """Integer-valued scores (ties likely), labels with both classes, a permutation."""
    labels = draw(st.lists(st.integers(0, 1), min_size=2, max_size=40)
                  .filter(lambda y: 0 < sum(y) < len(y)))
    n = len(labels)
    scores = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    return np.array(scores, dtype=np.float64), np.array(labels), np.array(perm)


@PROPERTY
@given(scored_labels())
def test_auroc_depends_only_on_the_joint_ranking(case):
    s, y, perm = case
    value = auroc(s, y)
    assert 0.0 <= value <= 1.0
    assert auroc(3.0 * s + 7.0, y) == value
    assert auroc(np.exp(s / 10.0), y) == value
    assert auroc(s[perm], y[perm]) == value
    assert auroc(-s, y) == pytest.approx(1.0 - value, abs=1e-12)


# ------------------------------------------------------------------ energy

def _unit(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@st.composite
def unit_rows_and_prototypes(draw):
    """``slots`` blocks of n unit rows, a (slots, per_slot, d) stack of unit
    prototypes, and tau."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    slots, per_slot = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    P = _unit(rng.standard_normal((slots * per_slot, d)))
    if draw(st.booleans()):     # rows on prototypes: the top of the range
        E = P[rng.integers(0, len(P), size=slots * n)]
    else:
        E = _unit(rng.standard_normal((slots * n, d)))
    return E.reshape(slots, n, d), P.reshape(slots, per_slot, d), draw(st.floats(0.05, 5.0))


@PROPERTY
@given(unit_rows_and_prototypes())
def test_energy_of_unit_rows_lies_in_its_bound(case):
    # Each row meets the k/S prototypes of its slot: S in [ln(k/S) - 1/tau, ln(k/S) + 1/tau].
    E, blocks, tau = case
    per_slot = blocks.shape[1]
    S = obj.energy_score(E, blocks, tau)
    lo, hi = math.log(per_slot) - 1.0 / tau, math.log(per_slot) + 1.0 / tau
    slack = 1e-12 * (1.0 + abs(hi))
    assert S.shape == E.shape[:-1]
    assert np.all(S >= lo - slack) and np.all(S <= hi + slack), (S, lo, hi)


@PROPERTY
@given(st.integers(1, 64), st.floats(0.05, 5.0), st.integers(1, 6))
def test_energy_reaches_the_cap_when_every_similarity_is_one(k, tau, d):
    p = np.zeros((1, d))
    p[0, 0] = 1.0
    S = obj.energy_score(p, np.repeat(p, k, axis=0), tau)
    assert S[0] == pytest.approx(obj.c_constant(k, tau), rel=1e-12)


# ------------------------------------------------------------------ losses

_POLE_MARGIN = 0.1


@st.composite
def loss_inputs(draw):
    """Scores in the energy range [ln k - 1/tau, C - margin], moved off the pole
    at 0, with semi-labels, k and tau."""
    k, tau = draw(st.integers(1, 64)), draw(st.floats(0.1, 5.0))
    C = obj.c_constant(k, tau)
    n = draw(st.integers(1, 12))
    scores = np.array(draw(st.lists(st.floats(math.log(k) - 1.0 / tau, C - _POLE_MARGIN),
                                    min_size=n, max_size=n)))
    scores[np.abs(scores) < _POLE_MARGIN] = _POLE_MARGIN
    semi = np.array(draw(st.lists(st.sampled_from([0, 1, -1]), min_size=n, max_size=n)))
    return scores, semi, k, tau


@settings(PROPERTY, max_examples=50)
@given(loss_inputs())
def test_losses_match_the_gradient_checker(case):
    scores, semi, k, tau = case
    C = obj.c_constant(k, tau)
    for name, loss in (("elsa", lambda s: obj.loss_elsa(s, semi, C)),
                       ("naive", lambda s: obj.loss_naive(s, semi)),
                       ("deepsad", lambda s: obj.loss_deepsad(s, semi, C))):
        def f(s, loss=loss):
            breakdown, grad = loss(s)
            return breakdown.total, grad

        report = grad_check(f, scores, h=1e-5)
        assert report.max_rel_error < 1e-6, (name, report)


# ------------------------------------------------------------------ prototypes

@st.composite
def unit_rows_and_starts(draw):
    """Unit rows picked with repeats from a small set, so that duplicates and
    empty-cluster re-seeds occur, optionally followed by their negations, so
    that a cluster's rows can sum to zero; k, a seed, and warm-start vectors."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 4))
    distinct = _unit(rng.standard_normal((draw(st.integers(1, 6)), d)))
    X = distinct[draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=15))]
    if draw(st.booleans()):
        X = np.vstack([X, -X])
    k = draw(st.integers(1, len(X)))
    return X, k, draw(st.integers(0, 2 ** 32 - 1)), rng.standard_normal((k, d))


@settings(PROPERTY, max_examples=50)
@given(unit_rows_and_starts())
def test_prototype_fit_is_unit_norm_and_never_lowers_its_objective(case):
    X, k, seed, warm = case
    for fitted in (proto.fit(X, k, seed=seed), proto.fit(X, k, init_vectors=warm)):
        assert fitted.vectors.shape == (1, k, X.shape[1])
        assert np.all(np.abs(np.linalg.norm(fitted.vectors, axis=-1) - 1.0) <= 1e-9)
        assert np.all(np.diff(fitted.objective_trace) >= -1e-12), fitted.objective_trace


# ------------------------------------------------------------------ files

_F32_MAX = float(np.finfo(np.float32).max)


@st.composite
def checkpoint_contents(draw):
    """Encoder weights of drawn dims at a drawn magnitude, some beyond the
    float32 range, and an optional (slots, m, d) stack of unit prototypes as wide
    as the embedding."""
    dims = enc.EncoderDims(*(draw(st.integers(1, 5)) for _ in range(4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    params = enc.init(0, dims)
    scale = draw(st.sampled_from([1e-40, 1e-3, 1.0, 1e30, 1e38, 1e39, 1e300]))
    params = params.from_vector(scale * rng.standard_normal(params.flat.size))
    protos = None
    if draw(st.booleans()):
        slots, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        protos = proto.PrototypeSet(_unit(rng.standard_normal((slots * m, dims.embed)))
                                    .reshape(slots, m, dims.embed))
    return params, protos, draw(st.integers(0, 1000))


@settings(PROPERTY, max_examples=50)
@given(checkpoint_contents())
def test_checkpoint_round_trips_as_float32_or_is_not_written(case):
    params, protos, epoch = case
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.ckpt"), Path(tmp, "b.ckpt")
        kw = dict(config={"seed": epoch}, epoch=epoch, rng_state={"seed": epoch})
        if np.abs(params.flat).max() > _F32_MAX:
            with pytest.raises(ValidationError, match="float32 range"):
                save_checkpoint(first, params=params, prototypes=protos, **kw)
            assert not first.exists()
            return
        save_checkpoint(first, params=params, prototypes=protos, **kw)
        loaded = load_checkpoint(first)
        for f in enc.EncoderParams.FIELDS:
            assert np.array_equal(getattr(loaded.params, f),
                                  getattr(params, f).astype(np.float32)), f
        assert (loaded.prototypes is None) == (protos is None)
        if protos is not None:
            assert np.array_equal(loaded.prototypes.vectors,
                                  protos.vectors.astype(np.float32))
        save_checkpoint(second, params=loaded.params, prototypes=loaded.prototypes,
                        config=loaded.config, epoch=loaded.epoch,
                        rng_state=loaded.rng_state)
        assert second.read_bytes() == first.read_bytes()


# ------------------------------------------------------------------ shifts

@PROPERTY
@given(st.integers(1, 24), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 5))
def test_shift_family_is_orthogonal_and_expand_stacks_each_shift(dim, count, seed, n):
    family = ShiftFamily.random(dim, count, seed=seed)
    eye = np.eye(dim)
    assert family.count == count and np.array_equal(family.matrices[0], eye)
    for q in family.matrices:
        assert np.max(np.abs(q.T @ q - eye)) < 1e-9
        assert np.max(np.abs(q @ q.T - eye)) < 1e-9
    X = np.random.default_rng(seed).standard_normal((n, dim))
    rows, ids = family.expand(X)
    assert rows.shape == (count * n, dim)
    for k in range(count):
        assert np.array_equal(ids[k * n:(k + 1) * n], np.full(n, k))
        assert np.array_equal(rows[k * n:(k + 1) * n], family.apply(X, k)), k


# ------------------------------------------------------------------ configuration

def _real(lo, hi):
    return st.one_of(st.floats(lo, hi), st.sampled_from([0.0, math.nan, math.inf, -math.inf]))


RULE_FIELDS = {
    "tau": st.one_of(_real(-1.0, 3.0), st.just("0.5")),
    "n_prototypes": st.integers(-1, 40),
    "gamma_l": _real(-0.5, 1.5),
    "gamma_p": _real(-0.5, 1.5),
    "scenario": st.sampled_from(SCENARIOS + ("s9",)),
    "mode": st.sampled_from(MODES + ("bogus",)),
    "loss_name": st.sampled_from(obj.LOSSES + ("x",)),
    "score_name": st.sampled_from(obj.SCORES + ("x",)),
    "n_ensemble": st.integers(-1, 3),
    "pretrain_batch": st.integers(0, 4),
    "pretrain_lr": _real(-0.1, 0.1),
    "finetune_lr": _real(-0.1, 0.1),
}


def _typed(changes) -> bool:
    """Whether every drawn value has its field's type: no string tau, finite floats."""
    return not isinstance(changes.get("tau"), str) and \
        all(not isinstance(x, float) or math.isfinite(x) for x in changes.values())


@settings(PROPERTY, max_examples=200)
@given(st.fixed_dictionaries({}, optional=RULE_FIELDS))
def test_violations_are_empty_exactly_when_every_stage_builds(changes):
    rc = RunConfig(**changes)
    problems = rc.violations()
    assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)
    if problems:
        with pytest.raises(ConfigError):
            rc.validated()
    else:
        assert rc.validated() is rc
    if not _typed(changes):
        assert problems
        return
    stages = {"data": rc.synthetic_spec, "scenario": rc.scenario_config,
              "encoder": rc.encoder_dims, "pretrain": rc.pretrain_config,
              "finetune": rc.finetune_config,
              "augmentation": lambda: rc.resolve_augs(np.array([-1.0, 1.0]))}
    for stage, build in stages.items():
        try:
            build()
            builds = True
        except ValidationError:
            builds = False
        # Every stage is built and reported, whatever the run-level rules say.
        assert builds != any(p.startswith(f"{stage} stage: ") for p in problems), stage
    if not problems:
        cfg = rc.finetune_config()
        obj.c_constant(rc.n_prototypes // rc.shift_count, cfg.tau)
        assert rc.shift_family().count == rc.shift_count
        assert rc.n_prototypes % rc.shift_count == 0
