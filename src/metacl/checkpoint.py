"""Versioned checkpoint files.

A checkpoint is a single ``.npz`` container holding a JSON metadata blob,
one array member per parameter, and one member per memory field (``x``,
``y``, ``t``, the padded snapshots ``h`` and ``h_disc`` and their width
columns), so the member count does not grow with the stored rows. The
metadata keeps the memory's budget, per-task seen counts and reservoir RNG
state. Round trips are bit-exact: parameters, memory contents (including
logit snapshots and the reservoir RNG state), and the accuracy matrix all
reload to identical values, so a run can stop between tasks and resume as if
uninterrupted. This reader handles format version 2 only; version 1 files
(one member per stored sample) are rejected.
"""

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FormatError, MemoryConsistencyError
from .memory import Draw, EpisodicMemory
from .metrics import AccuracyMatrix
from .networks import ContinualModel

FORMAT_VERSION = 2
_KIND = "continual-model-checkpoint"


def model_config(model):
    """Constructor arguments that rebuild ``model``'s architecture."""
    gen = model.generator
    return {
        "input_dim": int(model.input_dim),
        "classes_per_task": int(model.classes_per_task),
        "feature_width": int(model.extractor.width),
        "depth": len(model.extractor.layers),
        "head_mode": model.head_mode,
        "k_max": int(model.k_max),
        "embed_dim": int(gen.embed_dim),
        "transform_mode": model.transform_mode,
        "share_embedding": bool(gen.share_embedding),
        "disc_hidden": int(model.discriminator.w1.data.shape[1]),
        "seed": int(model.seed),
    }


@dataclass
class Checkpoint:
    model: ContinualModel
    memory: Optional[EpisodicMemory]
    matrix: Optional[AccuracyMatrix]
    extra: dict
    meta: dict


def save_checkpoint(path, model, memory=None, matrix=None, extra=None):
    """Write a versioned checkpoint atomically (write then rename)."""
    arrays = {}
    params = model.all_params()
    for i, p in enumerate(params):
        arrays[f"param/{i}"] = p.data
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
        "model": model_config(model),
        "seen_tasks": [int(t) for t in model.seen_tasks],
        "n_params": len(params),
        "memory": mem_meta,
        "matrix": matrix.to_rows() if matrix is not None else None,
        "extra": extra or {},
    }
    arrays["__meta__"] = np.array(json.dumps(meta))

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Rebuild model, memory, and matrix from ``path``; bit-exact."""
    try:
        data = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise FormatError(f"{path}: unreadable checkpoint ({exc})") from exc
    with data:
        return _decode(path, data)


def _decode(path, data):
    files = set(data.files)
    if "__meta__" not in files:
        raise FormatError(f"{path}: not a checkpoint (missing metadata)")
    meta = json.loads(str(data["__meta__"]))
    if meta.get("kind") != _KIND:
        raise FormatError(f"{path}: not a checkpoint (kind {meta.get('kind')!r})")
    if meta.get("version") != FORMAT_VERSION:
        raise FormatError(
            f"{path}: version {meta.get('version')!r} unsupported "
            f"(this reader handles {FORMAT_VERSION})")

    model = ContinualModel(**meta["model"])
    for t in meta["seen_tasks"]:
        model.register_task(t)
    params = model.all_params()
    if meta["n_params"] != len(params):
        raise FormatError(
            f"{path}: {meta['n_params']} stored parameters, "
            f"rebuilt model has {len(params)}")
    for i, p in enumerate(params):
        key = f"param/{i}"
        if key not in files:
            raise FormatError(f"{path}: missing array {key!r}")
        arr = data[key]
        if arr.shape != p.data.shape:
            raise FormatError(
                f"{path}: {key} has shape {arr.shape}, expected {p.data.shape}")
        p.data = arr.astype(np.float64, copy=True)

    memory = None
    if meta["memory"] is not None:
        m = meta["memory"]
        fields = {}
        for name in Draw.FIELDS:
            key = f"mem/{name}"
            if key not in files:
                raise FormatError(f"{path}: missing array {key!r}")
            fields[name] = data[key]
        rng = np.random.default_rng(0)
        rng.bit_generator.state = m["rng_state"]
        seen_counts = {int(t): int(c) for t, c in m["seen_counts"].items()}
        try:
            memory = EpisodicMemory.from_rows(m["budget_per_task"], Draw(**fields),
                                              seen_counts, rng)
        except MemoryConsistencyError as exc:
            raise FormatError(f"{path}: inconsistent memory ({exc})") from exc

    matrix = None
    if meta["matrix"] is not None:
        matrix = AccuracyMatrix.from_rows(meta["matrix"])
    return Checkpoint(model=model, memory=memory, matrix=matrix,
                      extra=meta["extra"], meta=meta)
