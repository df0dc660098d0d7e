"""Checkpoint tests: bit-exact round trips, tamper rejection, resume."""

import glob
import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from helpers import fail_writes_after
from metacl.checkpoint import (
    FORMAT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from metacl.datasets import make_synthetic
from metacl.errors import FormatError
from metacl.memory import Draw, EpisodicMemory, make_entry
from metacl.metrics import AccuracyMatrix
from metacl.config import RunConfig
from metacl.trainer import Trainer, build_model, build_trainer

SMALL = RunConfig(feature_width=16, depth=2, embed_dim=4, disc_hidden=8,
                  batch_size=10, replay_batch_size=16, inner_lr=0.1)


def small_stream(seed=0, protocol="split"):
    return make_synthetic(RunConfig(
        n_tasks=3, classes_per_task=2, train_per_class=15, test_per_class=10,
        input_dim=8, center_scale=3.0, protocol=protocol, data_seed=seed))


def trained_trainer(seed=0, n_tasks=2, budget=5):
    stream = small_stream(seed)
    config = replace(SMALL, memory_budget=budget)
    trainer = build_trainer(stream, config, seed)
    for task in stream.tasks[:n_tasks]:
        trainer.train_task(task)
    return trainer, stream, config


def params_equal(a, b):
    pa, pb = a.all_params(), b.all_params()
    return len(pa) == len(pb) and all(
        np.array_equal(p.data, q.data) for p, q in zip(pa, pb))


def entries_equal(a, b):
    ea, eb = a.entries(), b.entries()
    if len(ea) != len(eb):
        return False
    for x, y in zip(ea, eb):
        if x.y != y.y or x.t != y.t:
            return False
        if not np.array_equal(x.x, y.x):
            return False
        for field in ("h", "h_disc"):
            fa, fb = getattr(x, field), getattr(y, field)
            if (fa is None) != (fb is None):
                return False
            if fa is not None and not np.array_equal(fa, fb):
                return False
    return True


def rewrite(src, dst, mutate):
    """Reload an archive, apply a mutation, and write it back out; a
    mutation may return metadata to write in place of the old."""
    with np.load(src, allow_pickle=False) as d:
        arrays = {k: d[k] for k in d.files}
    meta = json.loads(str(arrays["__meta__"]))
    meta = mutate(arrays, meta) or meta
    arrays["__meta__"] = np.array(json.dumps(meta))
    with open(dst, "wb") as f:
        np.savez(f, **arrays)


def test_parameter_round_trip_bit_exact(tmp_path):
    trainer, _, _ = trained_trainer()
    path = tmp_path / "model.npz"
    save_checkpoint(path, trainer.model)
    loaded = load_checkpoint(path)
    assert params_equal(loaded.model, trainer.model)
    assert loaded.model.seen_tasks == trainer.model.seen_tasks
    assert loaded.memory is None
    assert loaded.matrix is None


@pytest.mark.parametrize("transform", ["per_layer", "last", "off"])
def test_mode_flags_survive(tmp_path, transform):
    stream = small_stream(protocol="permuted")
    model = build_model(stream, replace(SMALL, transform_mode=transform), 0)
    model.register_task(1)
    path = tmp_path / "m.npz"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.model.head_mode == "single"
    assert loaded.model.transform_mode == transform
    assert loaded.model.arguments == model.arguments


# format 3's metadata text: a change to it is a change to every saved file
PINNED_META = (
    '{"kind": "continual-model-checkpoint", "version": 3, "model": '
    '{"input_dim": 8, "classes_per_task": 2, "feature_width": 16, "depth": 2, '
    '"head_mode": "multi", "k_max": 32, "embed_dim": 4, '
    '"transform_mode": "per_layer", "share_embedding": false, '
    '"disc_hidden": 8, "seed": 0}, "seen_tasks": [1, 2], "memory": '
    '{"budget_per_task": 5, "seen_counts": {"1": 5, "2": 5}, "rng_state": '
    '{"bit_generator": "PCG64", "state": {"state": '
    '207833532711051698738587646355624148094, "inc": '
    '194290289479364712180083596243593368443}, "has_uint32": 0, '
    '"uinteger": 0}}, "matrix": [[0.5], [0.25, 0.75]]}')


def test_metadata_text_is_pinned(tmp_path):
    model = build_model(small_stream(), replace(SMALL, share_embedding=False),
                        0)
    model.register_task(1)
    model.register_task(2)
    path = tmp_path / "c.npz"
    save_checkpoint(path, model, memory=filled_memory(10),
                    matrix=AccuracyMatrix.from_rows([[0.5], [0.25, 0.75]]))
    with np.load(path, allow_pickle=False) as archive:
        assert str(archive["__meta__"]) == PINNED_META


def test_memory_round_trip(tmp_path):
    trainer, _, _ = trained_trainer()
    assert len(trainer.memory) > 0
    path = tmp_path / "c.npz"
    save_checkpoint(path, trainer.model, memory=trainer.memory)
    loaded = load_checkpoint(path)
    assert entries_equal(loaded.memory, trainer.memory)
    assert loaded.memory.seen_counts == trainer.memory.seen_counts
    assert loaded.memory.budget_per_task == trainer.memory.budget_per_task
    for e in loaded.memory.entries():
        assert not e.x.flags.writeable


def test_memory_without_snapshots_round_trips(tmp_path):
    rng = np.random.default_rng(0)
    memory = EpisodicMemory(3, rng=np.random.default_rng(1))
    for i in range(10):
        memory.observe(make_entry(rng.normal(size=8), i % 2, 1))
    model = build_model(small_stream(), SMALL, 0)
    model.register_task(1)
    path = tmp_path / "c.npz"
    save_checkpoint(path, model, memory=memory)
    loaded = load_checkpoint(path)
    assert entries_equal(loaded.memory, memory)
    assert all(e.h is None and e.h_disc is None for e in loaded.memory.entries())


def test_memory_rng_continuation(tmp_path):
    rng = np.random.default_rng(2)
    xs = rng.normal(size=(60, 8))
    mem_a = EpisodicMemory(3, rng=np.random.default_rng(7))
    for i in range(30):
        mem_a.observe(make_entry(xs[i], 0, 1))
    model = build_model(small_stream(), SMALL, 0)
    model.register_task(1)
    path = tmp_path / "c.npz"
    save_checkpoint(path, model, memory=mem_a)
    mem_b = load_checkpoint(path).memory
    for i in range(30, 60):
        mem_a.observe(make_entry(xs[i], 0, 1))
        mem_b.observe(make_entry(xs[i], 0, 1))
    assert entries_equal(mem_a, mem_b)
    assert mem_a.seen_counts == mem_b.seen_counts


def test_matrix_round_trip(tmp_path):
    matrix = AccuracyMatrix.from_rows([[0.5], [0.25, 0.75]])
    model = build_model(small_stream(), SMALL, 0)
    path = tmp_path / "c.npz"
    save_checkpoint(path, model, matrix=matrix)
    loaded = load_checkpoint(path)
    assert loaded.matrix.to_rows() == matrix.to_rows()


def test_resume_equals_uninterrupted_run(tmp_path):
    seed = 3
    stream = small_stream(seed)
    config = replace(SMALL, memory_budget=5)

    def fresh():
        return build_trainer(stream, config, seed)

    straight = fresh()
    for task in stream.tasks:
        straight.train_task(task)

    interrupted = fresh()
    interrupted.train_task(stream.tasks[0])
    path = tmp_path / "resume.npz"
    save_checkpoint(path, interrupted.model, memory=interrupted.memory)
    ck = load_checkpoint(path)
    resumed = Trainer(ck.model, ck.memory, config, seed)
    # a checkpoint holds no trainer streams: hand them over, so the
    # remaining tasks draw what an uninterrupted run draws
    for name in ("partition_rng", "noise_rng", "replay_rng"):
        setattr(resumed, name, getattr(interrupted, name))
    for task in stream.tasks[1:]:
        resumed.train_task(task)

    assert params_equal(resumed.model, straight.model)
    assert entries_equal(resumed.memory, straight.memory)


def test_wrong_version_rejected(tmp_path):
    model = build_model(small_stream(), SMALL, 0)
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(src, model)

    def bump(arrays, meta):
        meta["version"] = FORMAT_VERSION + 1

    rewrite(src, dst, bump)
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(dst)


@pytest.mark.parametrize("version", [1, 2])
def test_older_format_rejected(tmp_path, version):
    # version 1 held one member per stored sample, version 2 one per parameter
    model = build_model(small_stream(), SMALL, 0)
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(src, model)

    def downgrade(arrays, meta):
        meta["version"] = version

    rewrite(src, dst, downgrade)
    with pytest.raises(FormatError, match=(
            f"^{re.escape(str(dst))}: field version: {version} is not one "
            r"of \(3,\)$")):
        load_checkpoint(dst)


def filled_memory(rows, seed=0):
    """A memory holding all of ``rows`` rows, half of task 1 and half of
    task 2, made alternately and observed task by task."""
    rng = np.random.default_rng(seed)
    entries = [make_entry(rng.normal(size=8), i % 2, 1 + i % 2,
                          h=rng.normal(size=2), h_disc=rng.normal(size=3))
               for i in range(rows)]
    memory = EpisodicMemory(rows // 2, rng=np.random.default_rng(seed + 1))
    for entry in sorted(entries, key=lambda e: e.t):
        memory.observe(entry)
    return memory


def test_member_count_grows_with_neither_parameters_nor_rows(tmp_path):
    want = sorted(["__meta__", "params"] + [f"mem/{name}" for name in
                                            ("x", "y", "t", "h", "h_width",
                                             "h_disc", "h_disc_width")])
    sizes = set()
    for n_tasks, rows in ((0, 10), (1, 1000), (3, 10)):
        model = build_model(small_stream(), SMALL, 0)
        for t in range(1, n_tasks + 1):
            model.register_task(t)
        memory = filled_memory(rows)
        assert len(memory) == rows
        path = tmp_path / f"m{n_tasks}-{rows}.npz"
        save_checkpoint(path, model, memory=memory)
        with np.load(path) as archive:
            assert sorted(archive.files) == want
            assert archive["params"].shape == (
                sum(p.data.size for p in model.all_params()),)
            sizes.add(archive["params"].size)
    assert len(sizes) == 3  # each model has a different parameter count


def test_mixed_snapshot_widths_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    memory = EpisodicMemory(4, rng=np.random.default_rng(5))
    for i in range(30):
        t = 1 + i // 10
        h = None if i % 4 == 0 else rng.normal(size=2)
        h_disc = None if i % 5 == 0 else rng.normal(size=2 + i % 4)
        memory.observe(make_entry(rng.normal(size=8), i % 2, t, h=h,
                                  h_disc=h_disc))
    model = build_model(small_stream(), SMALL, 0)
    for t in (1, 2, 3):
        model.register_task(t)
    path = tmp_path / "c.npz"
    save_checkpoint(path, model, memory=memory)
    loaded = load_checkpoint(path).memory

    def same(a, b):
        if a is None or b is None:
            return a is b
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())

    ea, eb = memory.entries(), loaded.entries()
    assert len(ea) == len(eb) == 12
    assert {e.h is None for e in ea} == {True, False}
    assert len({e.h_disc.shape for e in ea if e.h_disc is not None}) > 1
    for a, b in zip(ea, eb):
        assert (a.y, a.t) == (b.y, b.t)
        assert same(a.x, b.x) and same(a.h, b.h) and same(a.h_disc, b.h_disc)
    assert loaded.seen_counts == memory.seen_counts
    assert loaded.rng.bit_generator.state == memory.rng.bit_generator.state


def test_inconsistent_memory_rejected(tmp_path):
    model = build_model(small_stream(), SMALL, 0)
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(src, model, memory=filled_memory(10))

    def shuffle_tasks(arrays, meta):
        arrays["mem/t"] = arrays["mem/t"][::-1].copy()

    rewrite(src, dst, shuffle_tasks)
    with pytest.raises(FormatError, match="task order"):
        load_checkpoint(dst)


def _unseen_tasks(arrays, meta):
    arrays["mem/t"] = arrays["mem/t"] + 5
    counts = meta["memory"]["seen_counts"]
    meta["memory"]["seen_counts"] = {str(int(t) + 5): c
                                     for t, c in counts.items()}


# memory rows the loaded model cannot train on, each with what names it
ROW_TAMPERINGS = {
    "input one column wider": (lambda arrays, meta: arrays.update(
        {"mem/x": np.pad(arrays["mem/x"], ((0, 0), (0, 1)))}), "'mem/x'"),
    "rank-3 input": (lambda arrays, meta: arrays.update(
        {"mem/x": arrays["mem/x"][:, None, :]}), "'mem/x'"),
    "labels past classes_per_task": (lambda arrays, meta: arrays.update(
        {"mem/y": arrays["mem/y"] + 2}), "label outside"),
    "rows of unseen tasks": (_unseen_tasks, r"tasks \[6, 7\]"),
}


@pytest.mark.parametrize("tamper", sorted(ROW_TAMPERINGS))
def test_memory_rows_the_model_cannot_take_rejected(tmp_path, tamper):
    model = build_model(small_stream(), SMALL, 0)
    model.register_task(1)
    model.register_task(2)
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(src, model, memory=filled_memory(10))
    load_checkpoint(src)  # the untampered file loads
    mutate, named = ROW_TAMPERINGS[tamper]
    rewrite(src, dst, mutate)
    with pytest.raises(FormatError, match=f"^{re.escape(str(dst))}: .*{named}"):
        load_checkpoint(dst)


@pytest.mark.parametrize("name", Draw.FIELDS)
def test_memory_member_of_another_dtype_rejected(tmp_path, name):
    # each field loaded cast to the memory's dtype: float labels 0.7 became 0
    model = build_model(small_stream(), SMALL, 0)
    model.register_task(1)
    model.register_task(2)
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(src, model, memory=filled_memory(10))
    with np.load(src) as d:
        kept = d[f"mem/{name}"].dtype
    other = np.float32 if kept == np.float64 else np.float64
    rewrite(src, dst, lambda arrays, meta: arrays.update(
        {f"mem/{name}": arrays[f"mem/{name}"].astype(other)}))
    with pytest.raises(FormatError,
                       match=f"'mem/{name}' is {np.dtype(other)}, not {kept}"):
        load_checkpoint(dst)


def test_missing_memory_field_rejected(tmp_path):
    model = build_model(small_stream(), SMALL, 0)
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(src, model, memory=filled_memory(10))

    def drop(arrays, meta):
        del arrays["mem/h_disc"]

    rewrite(src, dst, drop)
    with pytest.raises(FormatError, match="mem/h_disc"):
        load_checkpoint(dst)


@pytest.mark.parametrize("tamper", ["missing", "truncated", "2-D", "float32"])
def test_bad_params_member_rejected(tmp_path, tamper):
    model = build_model(small_stream(), SMALL, 0)
    model.register_task(1)
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(src, model)

    def mutate(arrays, meta):
        flat = arrays["params"]
        if tamper == "missing":
            del arrays["params"]
        elif tamper == "truncated":
            arrays["params"] = flat[:-1]
        elif tamper == "2-D":
            arrays["params"] = flat.reshape(1, -1)
        else:
            arrays["params"] = flat.astype(np.float32)

    rewrite(src, dst, mutate)
    with pytest.raises(FormatError, match="'params'"):
        load_checkpoint(dst)


def _pop(mapping, key):
    del mapping[key]


TAMPERINGS = {
    "model key missing": lambda meta: _pop(meta["model"], "depth"),
    "extra model key": lambda meta: meta["model"].update(colour=1),
    "mistyped model key": lambda meta: meta["model"].update(
        depht=meta["model"].pop("depth")),
    "model value of the wrong type": lambda meta: meta["model"].update(
        feature_width="16"),
    "model null": lambda meta: meta.update(model=None),
    "no seen_tasks": lambda meta: _pop(meta, "seen_tasks"),
    "seen task outside capacity": lambda meta: meta.update(seen_tasks=[99]),
    "seen task 0": lambda meta: meta.update(seen_tasks=[0]),
    "seen task repeated": lambda meta: meta.update(seen_tasks=[1, 1, 2]),
    "bad rng_state": lambda meta: meta["memory"].update(rng_state="pcg"),
    "no seen_counts": lambda meta: _pop(meta["memory"], "seen_counts"),
    "seen_counts a list": lambda meta: meta["memory"].update(
        seen_counts=list(meta["memory"]["seen_counts"].values())),
    "negative budget": lambda meta: meta["memory"].update(budget_per_task=-1),
    "budget a float": lambda meta: meta["memory"].update(
        budget_per_task=float(meta["memory"]["budget_per_task"])),
    "seen count a string": lambda meta: meta["memory"].update(seen_counts={
        t: str(c) for t, c in meta["memory"]["seen_counts"].items()}),
    "seen count a fraction": lambda meta: meta["memory"].update(seen_counts={
        t: c + 0.9 for t, c in meta["memory"]["seen_counts"].items()}),
    "seen count keyed by no decimal task id": lambda meta: meta[
        "memory"].update(seen_counts={
            f"0{t}": c for t, c in meta["memory"]["seen_counts"].items()}),
    "matrix entry above 1": lambda meta: meta["matrix"][1].__setitem__(0, 2.0),
    "matrix entry a string": lambda meta: meta["matrix"][0].__setitem__(
        0, "0.5"),
    "seen task a bool": lambda meta: meta.update(seen_tasks=[True, 2]),
    "metadata not an object": lambda meta: [meta],
    # each of these once loaded coerced: depth 1, seed 1, True and False
    "depth a bool": lambda meta: meta["model"].update(depth=True),
    "seed a bool": lambda meta: meta["model"].update(seed=True),
    "share_embedding a string": lambda meta: meta["model"].update(
        share_embedding="no"),
    "share_embedding an int": lambda meta: meta["model"].update(
        share_embedding=0),
    "extra metadata key": lambda meta: meta.update(colour=1),
    "extra memory key": lambda meta: meta["memory"].update(colour=1),
    # numpy's state setter ignores keys it does not know
    "extra rng_state key": lambda meta: meta["memory"]["rng_state"].update(
        colour=1),
    "extra rng_state state key": lambda meta: meta["memory"]["rng_state"][
        "state"].update(colour=1),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERINGS))
def test_malformed_metadata_fails_as_format_error_naming_the_path(tmp_path,
                                                                  tamper):
    # depth 1: one FiLM layer, so a model rebuilt at depth true or with
    # either share_embedding has the saved parameter layout
    model = build_model(small_stream(), replace(SMALL, depth=1), 0)
    model.register_task(1)
    model.register_task(2)
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(src, model, memory=filled_memory(10),
                    matrix=AccuracyMatrix.from_rows([[0.5], [0.25, 0.75]]))
    load_checkpoint(src)  # the untampered file loads
    rewrite(src, dst, lambda arrays, meta: TAMPERINGS[tamper](meta))
    with pytest.raises(FormatError, match=f"^{re.escape(str(dst))}: "):
        load_checkpoint(dst)


@pytest.mark.parametrize("named, mutate", [
    ("unknown fields", lambda arrays, meta: meta.update(colour=1)),
    ("field memory: unknown fields",
     lambda arrays, meta: meta["memory"].update(colour=1)),
    ("unknown members", lambda arrays, meta: arrays.update(colour=np.zeros(1))),
], ids=["metadata key", "memory key", "member"])
def test_a_key_the_writer_never_writes_is_named(tmp_path, named, mutate):
    model = build_model(small_stream(), SMALL, 0)
    model.register_task(1)
    model.register_task(2)
    src, dst = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(src, model, memory=filled_memory(10))
    load_checkpoint(src)  # the untampered file loads
    rewrite(src, dst, mutate)
    with pytest.raises(FormatError, match=(f"^{re.escape(str(dst))}: {named} "
                                           r"\['colour'\]$")):
        load_checkpoint(dst)


def test_non_checkpoint_files_rejected(tmp_path):
    bare = tmp_path / "bare.npz"
    with open(bare, "wb") as f:
        np.savez(f, a=np.zeros(3))
    with pytest.raises(FormatError):
        load_checkpoint(bare)
    text = tmp_path / "notes.txt"
    text.write_text("not an archive")
    with pytest.raises(FormatError):
        load_checkpoint(text)


def test_missing_file_raises_filenotfound(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "absent.npz")


def test_save_is_atomic(tmp_path):
    model = build_model(small_stream(), SMALL, 0)
    path = tmp_path / "c.npz"
    save_checkpoint(path, model)
    save_checkpoint(path, model)
    assert sorted(os.listdir(tmp_path)) == ["c.npz"]
    assert glob.glob(str(tmp_path / "*.tmp")) == []


def test_written_files_get_the_mode_open_would_give(tmp_path):
    # not mkstemp's 0o600: 0o666 less the umask, as for a plain open
    model = build_model(small_stream(), SMALL, 0)
    before = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            os.umask(umask)
            path = tmp_path / f"{umask:o}.npz"
            save_checkpoint(path, model)
            assert os.stat(path).st_mode & 0o777 == mode
    finally:
        os.umask(before)


@pytest.mark.parametrize("budget", [0, 100, 10_000])
def test_failed_save_keeps_the_old_file(tmp_path, monkeypatch, budget):
    trainer, _, _ = trained_trainer()
    path = tmp_path / "c.npz"
    save_checkpoint(path, build_model(small_stream(), SMALL, 0))
    before = path.read_bytes()
    fail_writes_after(monkeypatch, budget)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, trainer.model, memory=trainer.memory)
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["c.npz"]
