"""ACC, FM and learning accuracy (LA) over the accuracy matrix."""

from __future__ import annotations

import numbers

from .errors import ContractError, DimensionError, MetricUndefinedError


class AccuracyMatrix:
    """Lower-triangular record, one complete row per trained task: row k
    holds the accuracy on tasks 1..k measured after training task k."""

    def __init__(self):
        self._rows = []

    def append(self, row):
        """Add row ``n_rows + 1``: a list of that many accuracies, each a
        real number (no bool) in [0, 1]; a row or entry of another type
        fails as ``TypeError``, one of another length or value as
        ``DimensionError``."""
        k = len(self._rows) + 1
        if not isinstance(row, list):
            raise TypeError(f"row {k} is {type(row).__name__}, not list")
        for v in row:
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise TypeError(f"entry {v!r} is {type(v).__name__}, "
                                f"not int or float")
        row = [float(v) for v in row]
        if len(row) != k:
            raise DimensionError(f"row {k} has {len(row)} entries, wants {k}")
        for v in row:
            if not 0.0 <= v <= 1.0:
                raise DimensionError(f"accuracy {v} outside [0, 1]")
        self._rows.append(row)

    @property
    def n_rows(self):
        return len(self._rows)

    def row(self, k):
        if not 1 <= k <= len(self._rows):
            raise ContractError(f"row {k} was never recorded")
        return list(self._rows[k - 1])

    def to_rows(self):
        """Nested-list form, row k as a length-k list."""
        return [list(row) for row in self._rows]

    @classmethod
    def from_rows(cls, rows):
        m = cls()
        for row in rows:
            m.append(row)
        return m


def acc(matrix, k):
    """Averaged accuracy after task k: the mean of row k."""
    if k < 1:
        raise ContractError("acc needs at least one trained task")
    row = matrix.row(k)
    return sum(row) / k


def fm(matrix, k):
    """Forgetting measure after task k.

    Mean over previous tasks j < k of the drop from the best accuracy any
    earlier row achieved on j down to row k's accuracy on j. Negative values
    (backward transfer) are reported as-is.
    """
    if k < 2:
        raise MetricUndefinedError("forgetting is undefined before task 2")
    rows = [matrix.row(l) for l in range(1, k + 1)]
    total = 0.0
    for j in range(1, k):
        best = max(rows[l - 1][j - 1] for l in range(j, k))
        total += best - rows[k - 1][j - 1]
    return total / (k - 1)


def la(matrix, k):
    """Learning accuracy after task k: the mean of the diagonal entries
    1..k, each task's accuracy right after its own training."""
    if k < 1:
        raise ContractError("la needs at least one trained task")
    return sum(matrix.row(j)[j - 1] for j in range(1, k + 1)) / k
