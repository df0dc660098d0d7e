"""Shared episodic memory with a fixed per-task budget, stored as arrays.

Each task owns a reservoir of at most ``budget_per_task`` rows, filled by
one-pass reservoir sampling (the stream is seen exactly once). The rows live
in preallocated per-field arrays: inputs ``x``, labels ``y``, task ids ``t``,
and the classifier and discriminator logit snapshots ``h`` and ``h_disc``.
Each snapshot field is zero-padded to the widest row seen so far and has a
width column beside it, where 0 means the row carries no snapshot. A task
gets a block of ``budget_per_task`` rows when it is first seen.

Rows are numbered in (task, slot) order. A draw is an index vector over that
numbering, gathered into a ``Draw`` of row arrays with one fancy index per
field; the losses read those arrays directly. Snapshots are copied in at
observation time and never change while their row is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, MemoryConsistencyError


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
    """Build an immutable entry; array fields are copied and write-locked."""
    for name, snap in (("classifier", h), ("discriminator", h_disc)):
        if snap is not None and (np.ndim(snap) != 1 or np.size(snap) == 0):
            raise MemoryConsistencyError(
                f"{name} snapshot must be a non-empty 1-D logit row")
    return MemoryEntry(x=_frozen_copy(x), y=int(y), t=int(t),
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


def _fields(rows, x_shape=(0,)):
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
    """

    def __init__(self, budget_per_task, rng):
        if budget_per_task < 0:
            raise ContractError("budget_per_task must be non-negative")
        self.budget_per_task = budget_per_task
        self.rng = rng
        self.seen_counts = {}
        self._start = {}  # task -> first row of its block, blocks in arrival order
        self._fill = {}  # task -> rows stored in its block
        self._n = 0
        self._order = None  # cached block rows in (task, slot) order
        self._f = None  # field name -> array; made with the first block
        self._x_shape = None

    def __len__(self):
        return self._n

    def _add_block(self, t, x_shape):
        """Append an empty block of ``budget_per_task`` rows for task ``t``."""
        b = self.budget_per_task
        if self._f is None:
            self._f = _fields(b, x_shape)
            self._x_shape = tuple(x_shape)
        else:
            self._f = {name: np.concatenate([a, np.zeros((b,) + a.shape[1:], a.dtype)])
                       for name, a in self._f.items()}
        self._start[t] = len(self._start) * b
        self._fill[t] = 0

    def observe(self, entry):
        """Offer one entry to its task's reservoir; returns True if stored."""
        x_shape = entry.x.shape
        if self._x_shape is not None and x_shape != self._x_shape:
            raise MemoryConsistencyError(
                f"input of shape {x_shape}, memory stores {self._x_shape}")
        t = entry.t
        count = self.seen_counts.get(t, 0) + 1
        self.seen_counts[t] = count
        budget = self.budget_per_task
        if budget == 0:
            return False
        slot = self._fill.get(t)
        if slot is None:
            self._add_block(t, x_shape)
            slot = 0
        if slot < budget:
            self._fill[t] = slot + 1
            self._n += 1
            self._order = None
        else:
            slot = int(self.rng.integers(0, count))
            if slot >= budget:
                return False
        i = self._start[t] + slot
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
            return Draw(**_fields(0))
        return Draw(**{name: a[rows] for name, a in self._f.items()})

    def _rows(self):
        """Array rows of every stored sample, in (task, slot) order."""
        if self._order is None:
            self._order = np.concatenate(
                [np.zeros(0, dtype=np.int64)]
                + [np.arange(self._start[t], self._start[t] + self._fill[t])
                   for t in sorted(self._start)])
        return self._order

    def rows(self):
        """A copy of every stored row, in (task, slot) order, as a ``Draw``."""
        return self._gather(self._rows())

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
        idx = rng.integers(0, self._n, size=batch_size)
        return self._gather(self._rows()[idx])

    def partition(self, current_batch, rng, replay_batch_size):
        """The (train, val) memory draws of one optimization round.

        Both sides share the full current batch, which the caller holds;
        each side gets its own memory draw, so the two draws are independent
        while the current data is consumed exactly once. All randomness comes from plain draws on
        ``rng``, so its bit-generator state fully captures partition progress
        (spawned substreams would not survive a checkpoint).
        """
        if len(current_batch.x) == 0:
            raise ContractError("partition requires a non-empty current batch")
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
        tasks, starts, counts = np.unique(rows.t, return_index=True,
                                          return_counts=True)
        for t, c in zip(tasks.tolist(), counts.tolist()):
            if c > min(budget_per_task, mem.seen_counts.get(t, 0)):
                raise MemoryConsistencyError(
                    f"task {t}: {c} stored rows, budget {budget_per_task}, "
                    f"seen {mem.seen_counts.get(t, 0)}")
            mem._start[t] = len(mem._start) * budget_per_task
            mem._fill[t] = c
        if n == 0:
            return mem
        mem._n = n
        mem._x_shape = rows.x.shape[1:]
        capacity = len(tasks) * budget_per_task
        slots = np.repeat(np.arange(len(tasks)) * budget_per_task - starts,
                          counts) + np.arange(n)
        mem._f = {}
        for name, a in _fields(0).items():
            column = getattr(rows, name)
            mem._f[name] = np.zeros((capacity,) + column.shape[1:], a.dtype)
            mem._f[name][slots] = column
        return mem
