"""Versioned checkpoint files, written with ``experiments.atomic_write``.

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
sample) and version 2 (one member per parameter) files are rejected. The
metadata is declared once, in ``Metadata``, which ``save_checkpoint`` writes
and ``experiments.check_format`` checks. The loader adds the rules across
fields and members: no member the writer does not write, no repeated seen
task, an ``rng_state`` that reads back as saved, memory members of the dtype
the memory keeps and rows the model can train on (``input_dim`` wide inputs,
labels in ``[0, classes_per_task)``, seen tasks). Any fault fails as
``FormatError`` naming the path; a missing file raises ``FileNotFoundError``.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ContractError, FormatError, MemoryConsistencyError
from .experiments import atomic_write, check_format
from .memory import Draw, EpisodicMemory, empty_fields
from .metrics import AccuracyMatrix
from .networks import ContinualModel

FORMAT_VERSION = 3
_KIND = "continual-model-checkpoint"


def _model(arguments):
    """The model ``arguments`` rebuild, if they are all its arguments."""
    model = ContinualModel(**arguments)
    if model.arguments != arguments:
        raise ValueError(f"{arguments} are not all of {model.arguments}")
    return model


@dataclass
class MemoryMetadata:
    """``Metadata.memory``; ``from_rows`` checks it, ``rng_state`` reads back."""

    budget_per_task: int
    seen_counts: dict[int, int]
    rng_state: dict


@dataclass
class Metadata:
    """A checkpoint's ``__meta__`` member, as JSON holds it."""

    kind: str = field(metadata={"values": (_KIND,)})
    version: int = field(metadata={"values": (FORMAT_VERSION,)})
    model: dict[str, int | str | bool] = field(metadata={"check": _model})
    seen_tasks: list  # each checked as ContinualModel.register_task takes it
    memory: MemoryMetadata | None
    matrix: list[list[float]] | None = field(
        metadata={"check": AccuracyMatrix.from_rows})


@dataclass
class Checkpoint:
    model: ContinualModel
    memory: EpisodicMemory | None
    matrix: AccuracyMatrix | None


def save_checkpoint(path, model, memory=None, matrix=None):
    """Write a versioned checkpoint atomically (write then rename)."""
    arrays = {"params": np.concatenate(
        [p.data.ravel() for p in model.all_params()], dtype=np.float64)}
    if memory is not None:
        rows = memory.rows()
        arrays |= {f"mem/{name}": getattr(rows, name) for name in Draw.FIELDS}
    meta = Metadata(
        kind=_KIND, version=FORMAT_VERSION, model=model.arguments,
        seen_tasks=[int(t) for t in model.seen_tasks],
        memory=None if memory is None else MemoryMetadata(
            budget_per_task=memory.budget_per_task,
            seen_counts=memory.seen_counts,
            rng_state=memory.rng.bit_generator.state),
        matrix=matrix.to_rows() if matrix is not None else None)
    arrays["__meta__"] = np.array(json.dumps(asdict(meta)))
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
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError,
                ContractError, MemoryConsistencyError) as exc:
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
    labels in ``[0, classes_per_task)`` and tasks the model has seen (rows
    that ``from_rows`` took hold only the tasks of ``seen_counts``)."""
    x, y = fields["x"], fields["y"]
    if x.ndim != 2 or (len(x) and x.shape[1] != model.input_dim):
        raise FormatError(f"{path}: 'mem/x' is {x.shape}, the model takes "
                          f"(n, {model.input_dim}) inputs")
    classes = model.classes_per_task
    if np.any((y < 0) | (y >= classes)):
        raise FormatError(f"{path}: memory label outside [0, {classes})")
    if unseen := sorted(seen_counts.keys() - set(model.seen_tasks)):
        raise FormatError(f"{path}: memory holds tasks {unseen} the model "
                          f"has not seen")


def _decode(path, data):
    if "__meta__" not in data.files:
        raise FormatError(f"{path}: not a checkpoint (missing metadata)")
    meta = check_format(path, json.loads(str(data["__meta__"])), Metadata)
    members = {"__meta__", "params"} | {
        f"mem/{name}" for name in Draw.FIELDS if meta["memory"] is not None}
    if unknown := sorted(set(data.files) - members):
        raise FormatError(f"{path}: unknown members {unknown}")

    model, seen = meta["model"], meta["seen_tasks"]
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
    if (m := meta["memory"]) is not None:
        fields = {name: _member(path, data, f"mem/{name}", kept.dtype)
                  for name, kept in empty_fields(0).items()}
        rng = np.random.default_rng(0)
        rng.bit_generator.state = m["rng_state"]
        # the setter ignores keys it does not know, and takes 1 for true
        if (json.dumps(rng.bit_generator.state, sort_keys=True)
                != json.dumps(m["rng_state"], sort_keys=True)):
            raise FormatError(f"{path}: rng_state does not read back as saved")
        memory = EpisodicMemory.from_rows(m["budget_per_task"], Draw(**fields),
                                          m["seen_counts"], rng)
        _check_rows_fit(path, model, fields, m["seen_counts"])
    return Checkpoint(model=model, memory=memory, matrix=meta["matrix"])
