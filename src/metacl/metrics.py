"""Averaged accuracy and forgetting measure over the accuracy matrix."""

from __future__ import annotations

from .errors import ContractError, DimensionError, MetricUndefinedError


class AccuracyMatrix:
    """Lower-triangular record: entry (k, j) is the accuracy on task j
    measured after training task k, for 1 <= j <= k."""

    def __init__(self):
        self._cells = {}

    def set(self, k, j, value):
        if not 1 <= j <= k:
            raise DimensionError(f"entry ({k}, {j}) is above the diagonal")
        if not 0.0 <= value <= 1.0:
            raise DimensionError(f"accuracy {value} outside [0, 1]")
        self._cells[(k, j)] = float(value)

    def get(self, k, j):
        if (k, j) not in self._cells:
            raise ContractError(f"entry ({k}, {j}) was never recorded")
        return self._cells[(k, j)]

    @property
    def n_rows(self):
        return max((k for k, _ in self._cells), default=0)

    def row(self, k):
        return [self.get(k, j) for j in range(1, k + 1)]

    def to_rows(self):
        """Nested-list form, row k as a length-k list; rows must be complete."""
        return [self.row(k) for k in range(1, self.n_rows + 1)]

    @classmethod
    def from_rows(cls, rows):
        m = cls()
        for k, row in enumerate(rows, start=1):
            if len(row) != k:
                raise DimensionError(f"row {k} has {len(row)} entries, wants {k}")
            for j, v in enumerate(row, start=1):
                m.set(k, j, v)
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
    total = 0.0
    for j in range(1, k):
        best = max(matrix.get(l, j) for l in range(j, k))
        total += best - matrix.get(k, j)
    return total / (k - 1)
