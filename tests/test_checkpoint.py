"""Checkpoint tests: bit-exact round trips, tamper rejection, resume."""

import glob
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from helpers import fail_writes_after
from metacl.checkpoint import (
    FORMAT_VERSION,
    load_checkpoint,
    model_config,
    save_checkpoint,
)
from metacl.datasets import make_synthetic
from metacl.errors import FormatError
from metacl.memory import EpisodicMemory, make_entry
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
    """Reload an archive, apply a mutation, and write it back out."""
    with np.load(src, allow_pickle=False) as d:
        arrays = {k: d[k] for k in d.files}
    meta = json.loads(str(arrays["__meta__"]))
    mutate(arrays, meta)
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


def test_mode_flags_survive(tmp_path):
    stream = small_stream(protocol="permuted")
    model = build_model(stream, replace(SMALL, transform_mode="last"), 0)
    model.register_task(1)
    path = tmp_path / "m.npz"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.model.head_mode == "single"
    assert loaded.model.transform_mode == "last"
    assert model_config(loaded.model) == model_config(model)


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
        memory.observe(make_entry(rng.normal(size=4), i % 2, 1))
    model = build_model(small_stream(), SMALL, 0)
    path = tmp_path / "c.npz"
    save_checkpoint(path, model, memory=memory)
    loaded = load_checkpoint(path)
    assert entries_equal(loaded.memory, memory)
    assert all(e.h is None and e.h_disc is None for e in loaded.memory.entries())


def test_memory_rng_continuation(tmp_path):
    rng = np.random.default_rng(2)
    xs = rng.normal(size=(60, 4))
    mem_a = EpisodicMemory(3, rng=np.random.default_rng(7))
    for i in range(30):
        mem_a.observe(make_entry(xs[i], 0, 1))
    model = build_model(small_stream(), SMALL, 0)
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
    with pytest.raises(FormatError, match=f"version {version} unsupported"):
        load_checkpoint(dst)


def filled_memory(rows, seed=0):
    rng = np.random.default_rng(seed)
    memory = EpisodicMemory(rows // 2, rng=np.random.default_rng(seed + 1))
    for i in range(rows):
        memory.observe(make_entry(rng.normal(size=8), i % 2, 1 + i % 2,
                                  h=rng.normal(size=2),
                                  h_disc=rng.normal(size=3)))
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
        t = (3, 1, 2)[i % 3]
        h = None if i % 4 == 0 else rng.normal(size=2)
        h_disc = None if i % 5 == 0 else rng.normal(size=2 + i % 4)
        memory.observe(make_entry(rng.normal(size=4), i % 2, t, h=h,
                                  h_disc=h_disc))
    model = build_model(small_stream(), SMALL, 0)
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
