"""Versioned checkpoint files, and the one atomic writer for every file metacl
writes.

A checkpoint is a single ``.npz`` container with nine members at most, however
many tasks and rows it holds: a JSON metadata blob, every parameter as one flat
float64 ``params`` array in ``all_params()`` order, and one member per memory
field (``x``, ``y``, ``t``, the padded snapshots ``h`` and ``h_disc`` and their
width columns). The metadata keeps ``ContinualModel.arguments`` and the seen
tasks, the memory's budget, per-task seen counts and reservoir RNG state, and
the accuracy matrix. All of these reload bit-exact.

A checkpoint restores those objects, not a run: a ``Trainer`` built on a loaded
model and memory starts from an empty ``RunState`` and restarts its random
streams from the seed. The seed-run is the unit of resumption; its
``record.json`` is byte-stable, so a run-set stopped part way is finished by
running its missing seeds again.

This reader handles format version 3 only; version 1 (one member per stored
sample) and version 2 (one member per parameter) files are rejected. Any
malformed content fails as ``FormatError`` naming the path (a memory budget
or seen count that is no JSON integer among it), and so do memory
members of another dtype than the memory keeps and memory rows the loaded
model cannot train on: inputs not ``input_dim`` wide, labels outside
``[0, classes_per_task)`` or tasks outside its seen tasks. A missing file
raises ``FileNotFoundError``.
"""

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, FormatError, MemoryConsistencyError
from .memory import Draw, EpisodicMemory, empty_fields
from .metrics import AccuracyMatrix
from .networks import ContinualModel

FORMAT_VERSION = 3
_KIND = "continual-model-checkpoint"


def atomic_write(path, write):
    """Write ``path`` whole or not at all: ``write(f)`` fills a binary temp
    file beside it, which then replaces it. If anything raises, the temp file
    is removed and ``path`` keeps its old contents. The file gets the mode a
    plain ``open`` would create it with, 0o666 less the umask, not
    ``mkstemp``'s 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    umask = os.umask(0)  # reading the umask means setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            os.fchmod(fd, 0o666 & ~umask)
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@dataclass
class Checkpoint:
    model: ContinualModel
    memory: Optional[EpisodicMemory]
    matrix: Optional[AccuracyMatrix]


def save_checkpoint(path, model, memory=None, matrix=None):
    """Write a versioned checkpoint atomically (write then rename)."""
    arrays = {"params": np.concatenate(
        [p.data.ravel() for p in model.all_params()], dtype=np.float64)}
    mem_meta = None
    if memory is not None:
        rows = memory.rows()
        for name in Draw.FIELDS:
            arrays[f"mem/{name}"] = getattr(rows, name)
        mem_meta = {
            "budget_per_task": memory.budget_per_task,
            "seen_counts": {str(t): int(c) for t, c in memory.seen_counts.items()},
            "rng_state": memory.rng.bit_generator.state,
        }
    meta = {
        "kind": _KIND,
        "version": FORMAT_VERSION,
        "model": model.arguments,
        "seen_tasks": [int(t) for t in model.seen_tasks],
        "memory": mem_meta,
        "matrix": matrix.to_rows() if matrix is not None else None,
    }
    arrays["__meta__"] = np.array(json.dumps(meta))
    atomic_write(path, lambda f: np.savez(f, **arrays))


def load_checkpoint(path):
    """Rebuild model, memory, and matrix from ``path``; bit-exact."""
    try:
        data = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise FormatError(f"{path}: unreadable checkpoint ({exc})") from exc
    with data:
        try:
            return _decode(path, data)
        except (AttributeError, KeyError, TypeError, ValueError, ContractError,
                MemoryConsistencyError) as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(f"{path}: malformed checkpoint ({exc!r})") from exc


def _member(path, data, key, dtype):
    """Member ``key``, of ``dtype``: a cast would load label 0.7 as 0."""
    if key not in data.files:
        raise FormatError(f"{path}: missing array {key!r}")
    a = data[key]
    if a.dtype != dtype:
        raise FormatError(f"{path}: {key!r} is {a.dtype}, not {np.dtype(dtype)}")
    return a


def _check_rows_fit(path, model, fields, seen_counts):
    """Memory rows the loaded model can train on: ``(n, input_dim)`` inputs,
    labels in ``[0, classes_per_task)`` and tasks the model has seen. Rows
    that ``from_rows`` took hold only tasks in ``seen_counts``, so checking
    those tasks checks every row's."""
    x, y = fields["x"], fields["y"]
    if x.ndim != 2 or (len(x) and x.shape[1] != model.input_dim):
        raise FormatError(f"{path}: 'mem/x' is {x.shape}, the model takes "
                          f"(n, {model.input_dim}) inputs")
    classes = model.arguments["classes_per_task"]
    if np.any((y < 0) | (y >= classes)):
        raise FormatError(f"{path}: memory label outside [0, {classes})")
    unseen = sorted(seen_counts.keys() - set(model.seen_tasks))
    if unseen:
        raise FormatError(f"{path}: memory holds tasks {unseen} the model "
                          f"has not seen")


def _decode(path, data):
    if "__meta__" not in data.files:
        raise FormatError(f"{path}: not a checkpoint (missing metadata)")
    meta = json.loads(str(data["__meta__"]))
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: not a checkpoint (metadata is not an object)")
    if meta.get("kind") != _KIND:
        raise FormatError(f"{path}: not a checkpoint (kind {meta.get('kind')!r})")
    if meta.get("version") != FORMAT_VERSION:
        raise FormatError(
            f"{path}: version {meta.get('version')!r} unsupported "
            f"(this reader handles {FORMAT_VERSION})")

    model = ContinualModel(**meta["model"])
    seen = meta["seen_tasks"]
    if len(set(seen)) != len(seen):
        raise FormatError(f"{path}: seen task repeated in {seen}")
    for t in seen:
        model.register_task(t)
    params = model.all_params()
    sizes = [p.data.size for p in params]
    flat = _member(path, data, "params", np.float64)
    if flat.shape != (sum(sizes),):
        raise FormatError(f"{path}: 'params' is {flat.shape}, rebuilt model "
                          f"needs ({sum(sizes)},)")
    for p, part in zip(params, np.split(flat, np.cumsum(sizes)[:-1])):
        p.data = part.reshape(p.data.shape)

    memory = None
    if meta["memory"] is not None:
        m = meta["memory"]
        fields = {name: _member(path, data, f"mem/{name}", kept.dtype)
                  for name, kept in empty_fields(0).items()}
        rng = np.random.default_rng(0)
        rng.bit_generator.state = m["rng_state"]
        seen_counts = {}
        for t, c in m["seen_counts"].items():
            if (str(int(t)) != t or isinstance(c, bool)
                    or not isinstance(c, int)):
                raise FormatError(f"{path}: seen count {c!r} of task {t!r} is "
                                  f"no integer keyed by a task id")
            seen_counts[int(t)] = c
        memory = EpisodicMemory.from_rows(m["budget_per_task"], Draw(**fields),
                                          seen_counts, rng)
        _check_rows_fit(path, model, fields, seen_counts)

    matrix = None
    if meta["matrix"] is not None:
        matrix = AccuracyMatrix.from_rows(meta["matrix"])
    return Checkpoint(model=model, memory=memory, matrix=matrix)
