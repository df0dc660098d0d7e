"""Shared episodic memory with a fixed per-task budget, stored as arrays.

Each task owns a reservoir of at most ``budget_per_task`` rows, filled by
one-pass reservoir sampling (the stream is seen exactly once). Every kept row
lives in one set of per-field arrays: inputs ``x``, labels ``y``, task ids
``t``, and the classifier and discriminator logit snapshots ``h`` and
``h_disc``. Each snapshot field is zero-padded to the widest row seen so far
and has a width column beside it, where 0 means the row carries no snapshot.

Tasks arrive in order, as an online task-incremental stream presents them,
so the arrays hold the rows in (task, slot) order, the order draws number
them in, and a new row always goes at the end. There are no per-task blocks:
the capacity doubles as rows are stored, so storage follows the rows held,
not the budget. A draw is an index vector over the rows, gathered into a
``Draw`` of row arrays with one fancy index per field; the losses read those
arrays directly. Snapshots are copied in at observation time and never
change while their row is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, MemoryConsistencyError, check_integer


@dataclass(frozen=True, slots=True)
class MemoryEntry:
    """One sample: input, label, task ID, and logit snapshots.

    ``h`` holds the classifier logits and ``h_disc`` the discriminator logits
    (sliced to the arity valid at insertion time). Baselines that replay
    labels only may leave the snapshots as None.
    """

    x: np.ndarray
    y: int
    t: int
    h: Optional[np.ndarray] = None
    h_disc: Optional[np.ndarray] = None


def _frozen_copy(a):
    if a is None:
        return None
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def make_entry(x, y, t, h=None, h_disc=None):
    """Build an immutable entry; array fields are copied and write-locked.
    A label or task id that is a bool or no integer fails as
    ContractError."""
    for name, snap in (("classifier", h), ("discriminator", h_disc)):
        if snap is not None and (np.ndim(snap) != 1 or np.size(snap) == 0):
            raise MemoryConsistencyError(
                f"{name} snapshot must be a non-empty 1-D logit row")
    return MemoryEntry(x=_frozen_copy(x), y=int(check_integer(y, "label")),
                       t=int(check_integer(t, "task id")),
                       h=_frozen_copy(h), h_disc=_frozen_copy(h_disc))


@dataclass(frozen=True)
class Draw:
    """Memory rows in draw order, one array per field.

    ``h`` and ``h_disc`` are zero-padded; ``h_width`` and ``h_disc_width``
    hold each row's snapshot width, 0 where the row has no snapshot.
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    h: np.ndarray
    h_width: np.ndarray
    h_disc: np.ndarray
    h_disc_width: np.ndarray

    FIELDS = ("x", "y", "t", "h", "h_width", "h_disc", "h_disc_width")

    def __len__(self):
        return len(self.y)


def _put_snapshot(data, width, i, row):
    """Store ``row`` (or no snapshot) at row ``i``; returns ``data``, widened
    to fit when ``row`` is wider than every row before it."""
    if row is None:
        data[i] = 0.0
        width[i] = 0
        return data
    w = len(row)
    if w > data.shape[1]:
        data = np.pad(data, ((0, 0), (0, w - data.shape[1])))
    data[i, :w] = row
    data[i, w:] = 0.0
    width[i] = w
    return data


def empty_fields(rows, x_shape=(0,)):
    """Zeroed field arrays for ``rows`` rows, snapshots zero columns wide."""
    return {"x": np.zeros((rows,) + tuple(x_shape)),
            "y": np.zeros(rows, dtype=np.int64),
            "t": np.zeros(rows, dtype=np.int64),
            "h": np.zeros((rows, 0)),
            "h_width": np.zeros(rows, dtype=np.int64),
            "h_disc": np.zeros((rows, 0)),
            "h_disc_width": np.zeros(rows, dtype=np.int64)}


class EpisodicMemory:
    """Single memory shared by all tasks; per-task reservoirs of fixed budget.

    The reservoir decision for the i-th observation of a task (i > budget)
    draws one integer j uniform on [0, i); the entry replaces slot j when
    j < budget, which keeps every prefix of the stream uniformly represented.
    A task therefore holds ``min(budget, seen)`` rows, so ``seen_counts`` is
    the only per-task state. Tasks arrive in order: once a task has a row, no
    earlier task is observed again. A budget that is a bool or no integer
    fails as ContractError.
    """

    def __init__(self, budget_per_task, rng):
        check_integer(budget_per_task, "budget_per_task", 0)
        self.budget_per_task = int(budget_per_task)
        self.rng = rng
        self.seen_counts = {}
        self._n = 0
        self._f = None  # field name -> array of rows; made with the first row

    def __len__(self):
        return self._n

    def _new_row(self, x_shape):
        """The free row at the end of the table; the arrays double when full."""
        f, n = self._f, self._n
        if f is None:
            self._f = empty_fields(1, x_shape)
        elif n == len(f["y"]):
            self._f = {name: np.concatenate([a, np.zeros_like(a)])
                       for name, a in f.items()}
        self._n = n + 1
        return n

    def observe(self, entry):
        """Offer one entry to its task's reservoir; returns True if stored.

        An entry of a task id below 1 (0 is the discriminator's fake class),
        of a negative label or of a task before the last row's fails as
        ContractError, and one of another input shape as
        MemoryConsistencyError, with nothing changed."""
        f, n, t = self._f, self._n, entry.t
        if t < 1 or entry.y < 0:
            raise ContractError(f"row of task {t}, label {entry.y}: task ids "
                                f"start at 1 and labels at 0")
        if f is not None and entry.x.shape != f["x"].shape[1:]:
            raise MemoryConsistencyError(
                f"input of shape {entry.x.shape}, memory stores "
                f"{f['x'].shape[1:]}")
        if n and t < f["t"][n - 1]:
            raise ContractError(f"task {t} arrives after task {f['t'][n - 1]}: "
                                f"tasks must arrive in order")
        count = self.seen_counts.get(t, 0) + 1
        self.seen_counts[t] = count
        budget = self.budget_per_task
        if budget == 0:
            return False
        if count > budget:
            slot = int(self.rng.integers(0, count))
            if slot >= budget:
                return False
            i = n - budget + slot  # task t's rows end the table
        else:
            i = self._new_row(entry.x.shape)
        f = self._f
        f["x"][i] = entry.x
        f["y"][i] = entry.y
        f["t"][i] = t
        f["h"] = _put_snapshot(f["h"], f["h_width"], i, entry.h)
        f["h_disc"] = _put_snapshot(f["h_disc"], f["h_disc_width"], i,
                                    entry.h_disc)
        return True

    def _gather(self, rows):
        if self._f is None:
            return Draw(**empty_fields(0))
        return Draw(**{name: a[rows] for name, a in self._f.items()})

    def rows(self):
        """A copy of every stored row, in (task, slot) order, as a ``Draw``."""
        return self._gather(np.arange(self._n))

    def entries(self):
        """Every stored row as a ``MemoryEntry`` of write-locked views of a
        copy, in (task, slot) order; later observations leave them as they
        are."""
        d = self.rows()
        for a in (d.x, d.h, d.h_disc):
            a.setflags(write=False)
        return [MemoryEntry(x=d.x[i], y=y, t=t,
                            h=d.h[i, :hw] if hw else None,
                            h_disc=d.h_disc[i, :hdw] if hdw else None)
                for i, (y, t, hw, hdw) in enumerate(zip(
                    d.y.tolist(), d.t.tolist(), d.h_width.tolist(),
                    d.h_disc_width.tolist()))]

    def sample(self, batch_size, rng):
        """Uniform draw with replacement over all rows; empty when no rows."""
        if self._n == 0 or batch_size <= 0:
            return self._gather(np.zeros(0, dtype=np.int64))
        return self._gather(rng.integers(0, self._n, size=batch_size))

    def partition(self, rng, replay_batch_size):
        """The (train, val) memory draws of one optimization round.

        Both sides share the round's current batch, which the caller holds;
        each side gets its own memory draw, so the two draws are independent
        while the current data is consumed exactly once. All randomness comes
        from plain draws on ``rng``, so its bit-generator state fully captures
        partition progress (spawned substreams would not survive a
        checkpoint).
        """
        return (self.sample(replay_batch_size, rng),
                self.sample(replay_batch_size, rng))

    @classmethod
    def from_rows(cls, budget_per_task, rows, seen_counts, rng):
        """Rebuild a memory from ``rows()`` output and its reservoir state."""
        mem = cls(budget_per_task, rng=rng)
        mem.seen_counts = dict(seen_counts)
        n = len(rows)
        if any(len(getattr(rows, name)) != n for name in Draw.FIELDS):
            raise MemoryConsistencyError("memory fields differ in length")
        if rows.h.ndim != 2 or rows.h_disc.ndim != 2:
            raise MemoryConsistencyError("memory snapshots must be 2-D")
        if (np.any(rows.h_width < 0) or np.any(rows.h_width > rows.h.shape[1])
                or np.any(rows.h_disc_width < 0)
                or np.any(rows.h_disc_width > rows.h_disc.shape[1])):
            raise MemoryConsistencyError("snapshot widths exceed their padding")
        if np.any(np.diff(rows.t) < 0):
            raise MemoryConsistencyError("memory rows are not in task order")
        if np.any(rows.t < 1) or np.any(rows.y < 0):
            raise MemoryConsistencyError(
                "memory rows hold a task id below 1 or a negative label")
        tasks, counts = np.unique(rows.t, return_counts=True)
        held = dict(zip(tasks.tolist(), counts.tolist()))
        for t in sorted(held.keys() | mem.seen_counts.keys()):
            seen = mem.seen_counts.get(t, 0)
            if held.get(t, 0) != min(budget_per_task, seen):
                raise MemoryConsistencyError(
                    f"task {t}: {held.get(t, 0)} stored rows, budget "
                    f"{budget_per_task}, seen {seen}")
        if n:
            mem._n = n
            mem._f = {name: np.array(getattr(rows, name), dtype=a.dtype)
                      for name, a in empty_fields(0).items()}
        return mem
