import numpy as np
import pytest

from protoad.mathcore import (NumericError, as_f64, logsumexp_rows_inplace, row_max,
                              softmax_rows)

from gradcheck import GradCheckReport, grad_check
from oracles import logsumexp_rows_by_copy


def test_softmax_rows_sums_to_one():
    rng = np.random.default_rng(1)
    p = softmax_rows(rng.normal(size=(6, 9)) * 10)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("shape, scale", [((5, 7), 1.0), ((40, 3), 30.0),
                                          ((1, 1), 1.0), ((64, 200), 5.0),
                                          ((1000, 16), 20.0), ((1, 16), 20.0),
                                          ((40, 1), 20.0), ((16, 16), 20.0)])
def test_row_reductions_keep_input_and_match_out_of_place_formula(shape, scale):
    rng = np.random.default_rng(shape[0])
    m = rng.normal(size=shape) * scale
    before = m.copy()
    shift = np.max(m, axis=1, keepdims=True)
    ex = np.exp(m - shift)
    lse = logsumexp_rows_inplace(m.copy())
    assert np.array_equal(
        lse, (shift + np.log(np.sum(ex, axis=1, keepdims=True)))[:, 0])
    p = softmax_rows(m)
    assert np.array_equal(m, before)
    assert np.array_equal(p, ex / np.sum(ex, axis=1, keepdims=True))


def test_grad_check_quadratic():
    def f(x):
        return float(x[0] ** 2), np.array([2.0 * x[0]])

    report = grad_check(f, np.array([3.0]), h=1e-5)
    assert report.max_rel_error < 1e-8


def test_grad_check_logsumexp():
    rng = np.random.default_rng(42)
    point = rng.normal(size=8)

    def f(x):
        value = float(logsumexp_rows_by_copy(x[None, :])[0])
        return value, softmax_rows(x[None, :])[0]

    report = grad_check(f, point, h=1e-5)
    assert report.max_rel_error < 1e-6


def test_grad_check_inverse_score_loss_batch():
    # The fine-tuning loss as a function of a 4-score batch.
    from protoad.objective import c_constant, loss_elsa

    C = c_constant(100, 0.5)
    semi = np.array([-1, 0, 1, 0])
    point = np.array([3.0, 4.5, 5.0, 2.2])

    def f(s):
        breakdown, grad = loss_elsa(s, semi, C)
        return breakdown.total, grad

    report = grad_check(f, point, h=1e-5)
    assert report.max_rel_error < 1e-5


def test_grad_check_detects_wrong_gradient():
    def f(x):
        return float(np.sin(x[0])), np.array([np.cos(x[0]) + 0.1])

    report = grad_check(f, np.array([0.3]), h=1e-5)
    assert report.max_rel_error > 1e-3


def test_grad_check_report_invariant():
    with pytest.raises(ValueError):
        GradCheckReport(max_rel_error=-1.0, argmax_coordinate=0,
                        analytic=0.0, numeric=0.0)


def test_grad_check_nonfinite_evaluation():
    def f(x):
        if x[0] > 1.0:
            return float("inf"), np.array([0.0])
        return float(x[0]), np.array([1.0])

    with pytest.raises(NumericError):
        grad_check(f, np.array([1.0]), h=1e-1)


# ------------------------------------------------------------- as_f64

@pytest.mark.parametrize("values", [
    [1.0, float("nan")], [float("inf"), 2.0], [-3.0, float("-inf")],
    [float("inf"), float("-inf")],
])
def test_as_f64_rejects_every_non_finite_entry(values):
    with pytest.raises(NumericError, match="non-finite"):
        as_f64(np.array(values))
    with pytest.raises(NumericError, match="non-finite"):
        as_f64(np.array(values * 50).reshape(10, 10))


def test_as_f64_accepts_finite_entries_whose_sum_overflows():
    # 1e308 + 1e308 is inf in float64; each entry is finite.
    assert np.array_equal(as_f64([1e308, 1e308]), [1e308, 1e308])


def test_as_f64_accepts_empty_and_returns_float64_unchanged():
    assert as_f64(np.zeros((0, 3))).shape == (0, 3)
    a = np.arange(6, dtype=np.float64)
    assert as_f64(a) is a


# 1 x k, n x 1, n x k with fewer columns than rows, square, and wide.
_ROW_MAX_SHAPES = [(1, 16), (1, 1), (40, 1), (1000, 16), (7, 3), (16, 16), (5, 200)]


@pytest.mark.parametrize("shape", _ROW_MAX_SHAPES)
def test_row_max_equals_np_max(shape):
    m = np.random.default_rng(shape[0] * 1000 + shape[1]).normal(size=shape) * 30.0
    m[0, -1] = -np.inf          # a -inf entry never wins unless the row is all -inf
    before = m.copy()
    assert np.array_equal(row_max(m), np.max(m, axis=1))
    assert np.array_equal(m, before)


def test_logsumexp_rows_inplace_overwrites_only_its_argument():
    m = np.random.default_rng(4).normal(size=(300, 16)) * 5.0
    want = logsumexp_rows_by_copy(m)
    owned = m.copy()
    assert np.array_equal(logsumexp_rows_inplace(owned), want)
    # The argument now holds the shifted exponentials: each row peaks at 1.
    assert np.array_equal(owned.max(axis=1), np.ones(300))
    assert np.array_equal(logsumexp_rows_inplace(m.astype(np.float32)),
                          logsumexp_rows_by_copy(m.astype(np.float32)))


def test_logsumexp_rows_inplace_keeps_the_finiteness_check():
    m = np.zeros((3, 4))
    m[1, 2] = np.nan
    with pytest.raises(NumericError):
        logsumexp_rows_inplace(m)
    with pytest.raises(NumericError):
        logsumexp_rows_inplace(np.zeros((3, 0)))
