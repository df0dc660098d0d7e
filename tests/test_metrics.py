"""Metric tests against hand values and a brute-force oracle."""

import re

import numpy as np
import pytest

from metacl.errors import ContractError, DimensionError, MetricUndefinedError
from metacl.metrics import AccuracyMatrix, acc, fm, la


def brute_force_acc(rows, k):
    return sum(rows[k - 1]) / k


def brute_force_fm(rows, k):
    drops = []
    for j in range(1, k):
        best = -1.0
        for l in range(j, k):
            if rows[l - 1][j - 1] > best:
                best = rows[l - 1][j - 1]
        drops.append(best - rows[k - 1][j - 1])
    return sum(drops) / (k - 1)


def brute_force_la(rows, k):
    return sum(rows[j][j] for j in range(k)) / k


def random_matrix(rng, k):
    return [[float(rng.uniform()) for _ in range(i + 1)] for i in range(k)]


def test_acc_hand_case():
    m = AccuracyMatrix.from_rows([[0.5], [0.6, 0.7], [0.7, 0.8, 0.9]])
    assert abs(acc(m, 3) - 0.8) < 1e-15


def test_acc_single_task():
    m = AccuracyMatrix.from_rows([[0.42]])
    assert acc(m, 1) == 0.42


def test_acc_perfect_learner():
    m = AccuracyMatrix.from_rows([[1.0], [1.0, 1.0]])
    assert acc(m, 2) == 1.0


def test_acc_incomplete_row_is_error():
    # row 2 cannot go in with one entry, so acc(m, 2) reads past the last row
    m = AccuracyMatrix.from_rows([[0.5]])
    with pytest.raises(DimensionError):
        m.append([0.5])
    with pytest.raises(ContractError):
        acc(m, 2)
    with pytest.raises(ContractError):
        la(m, 2)


def test_fm_hand_case():
    m = AccuracyMatrix.from_rows([[0.9], [0.8, 0.85]])
    assert abs(fm(m, 2) - 0.1) < 1e-15


def test_fm_nondecreasing_columns_nonpositive():
    m = AccuracyMatrix.from_rows([[0.5], [0.6, 0.4], [0.7, 0.5, 0.9]])
    assert fm(m, 3) <= 0.0


def test_fm_constant_columns_zero():
    m = AccuracyMatrix.from_rows([[0.5], [0.5, 0.7], [0.5, 0.7, 0.9]])
    assert fm(m, 3) == 0.0


def test_fm_before_second_task_is_error():
    m = AccuracyMatrix.from_rows([[0.9]])
    with pytest.raises(MetricUndefinedError):
        fm(m, 1)


@pytest.mark.parametrize("row", [
    [0.5, 0.6],          # one entry too many for row 2
    [0.5, 0.6, 0.7, 0.8],
    [0.5],               # one too few
    [],
    [0.5, 0.6, 1.5],     # right length, an accuracy above 1
    [-0.1, 0.6, 0.7],
    [0.5, float("nan"), 0.7],
])
def test_bad_append_raises_and_leaves_matrix_unchanged(row):
    m = AccuracyMatrix.from_rows([[0.9], [0.8, 0.7]])
    with pytest.raises(DimensionError):
        m.append(row)
    assert m.n_rows == 2
    assert m.to_rows() == [[0.9], [0.8, 0.7]]


@pytest.mark.parametrize("row, match", [
    ([0.5, "0.6"], "entry '0.6' is str"),
    ([0.5, True], "entry True is bool"),
    ([0.5, None], "entry None is NoneType"),
    ((0.5, 0.6), "row 3 is tuple, not list"),
    ("01", "row 3 is str, not list"),
])
def test_mistyped_append_raises_and_leaves_matrix_unchanged(row, match):
    # entries are checked, not coerced: float("0.6") and float(True) would
    # pass the range check
    m = AccuracyMatrix.from_rows([[0.9], [0.8, 0.7]])
    with pytest.raises(TypeError, match=re.escape(match)):
        m.append(row)
    assert m.to_rows() == [[0.9], [0.8, 0.7]]
    m.append([np.float64(0.5), 1, 0.25])
    assert m.row(3) == [0.5, 1.0, 0.25]


def test_matrix_validation():
    with pytest.raises(DimensionError):
        AccuracyMatrix().append([0.5, 0.6])
    with pytest.raises(DimensionError):
        AccuracyMatrix.from_rows([[0.5], [1.5, 0.5]])
    with pytest.raises(DimensionError):
        AccuracyMatrix.from_rows([[0.5, 0.6]])


def test_matrix_round_trip():
    rows = [[0.1], [0.2, 0.3], [0.4, 0.5, 0.6]]
    assert AccuracyMatrix.from_rows(rows).to_rows() == rows
    rng = np.random.default_rng(2)
    for _ in range(50):
        rows = random_matrix(rng, int(rng.integers(0, 9)))
        m = AccuracyMatrix.from_rows(rows)
        assert m.n_rows == len(rows)
        assert m.to_rows() == rows


def test_la_hand_case():
    m = AccuracyMatrix.from_rows([[0.5], [0.6, 0.7], [0.7, 0.8, 0.9]])
    assert abs(la(m, 3) - 0.7) < 1e-15
    assert la(m, 1) == 0.5


def test_extending_matrix_leaves_earlier_metrics_unchanged():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        rows = random_matrix(rng, k + 1)
        m_small = AccuracyMatrix.from_rows(rows[:k])
        m_big = AccuracyMatrix.from_rows(rows)
        assert fm(m_small, k) == fm(m_big, k)
        assert acc(m_small, k) == acc(m_big, k)
        assert la(m_small, k) == la(m_big, k)


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        rows = random_matrix(rng, k)
        m = AccuracyMatrix.from_rows(rows)
        assert abs(acc(m, k) - brute_force_acc(rows, k)) <= 1e-12
        assert abs(la(m, k) - brute_force_la(rows, k)) <= 1e-12
        if k >= 2:
            assert abs(fm(m, k) - brute_force_fm(rows, k)) <= 1e-12
