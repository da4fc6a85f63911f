"""Property tests of the paper's invariants and of the configuration rules.

Hypothesis runs derandomized with a fixed example budget and no example
database, so every run draws the same cases and writes nothing.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from protoad import objective as obj
from protoad.augment import ShiftFamily
from protoad.config import MODES, ConfigError, RunConfig
from protoad.data import SCENARIOS, ValidationError
from protoad.evalharness import auroc

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
    n, k, d = draw(st.integers(1, 8)), draw(st.integers(1, 12)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    P = _unit(rng.standard_normal((k, d)))
    if draw(st.booleans()):     # rows on prototypes: the top of the range
        E = P[rng.integers(0, k, size=n)]
    else:
        E = _unit(rng.standard_normal((n, d)))
    return E, P, draw(st.floats(0.05, 5.0))


@PROPERTY
@given(unit_rows_and_prototypes())
def test_energy_of_unit_rows_lies_in_its_bound(case):
    E, P, tau = case
    k = len(P)
    S = obj.energy_score(E, P, tau)
    lo, hi = math.log(k) - 1.0 / tau, math.log(k) + 1.0 / tau
    slack = 1e-12 * (1.0 + abs(hi))
    assert S.shape == (len(E),)
    assert np.all(S >= lo - slack) and np.all(S <= hi + slack), (S, lo, hi)


@PROPERTY
@given(st.integers(1, 64), st.floats(0.05, 5.0), st.integers(1, 6))
def test_energy_reaches_the_cap_when_every_similarity_is_one(k, tau, d):
    p = np.zeros((1, d))
    p[0, 0] = 1.0
    S = obj.energy_score(p, np.repeat(p, k, axis=0), tau)
    assert S[0] == pytest.approx(obj.c_constant(k, tau), rel=1e-12)


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
    "shift_count": st.integers(-1, 5),
    "loss_name": st.sampled_from(obj.LOSSES + ("x",)),
    "score_name": st.sampled_from(obj.SCORES + ("x",)),
    "n_ensemble": st.integers(-1, 3),
    "pretrain_batch": st.integers(0, 4),
    "pretrain_lr": _real(-0.1, 0.1),
    "pretrain_momentum": _real(-0.5, 1.5),
    "finetune_lr": _real(-0.1, 0.1),
    "refresh_period": st.none() | st.integers(-1, 3),
    "strict_scores": st.booleans(),
    "weak_jitter": st.tuples(_real(0.0, 2.5), _real(0.0, 2.5)),
}


def _typed(changes) -> bool:
    """Whether every drawn value has its field's type: no string tau, finite floats."""
    values = [x for v in changes.values() for x in (v if isinstance(v, tuple) else (v,))]
    return not isinstance(changes.get("tau"), str) and \
        all(not isinstance(x, float) or math.isfinite(x) for x in values)


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
        obj.c_constant(rc.n_prototypes, cfg.tau)
        rc.shift_family()
        assert rc.energy_positive or not rc.strict_scores
