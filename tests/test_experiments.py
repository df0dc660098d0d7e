"""Experiment-runner tests: records, determinism, sweeps, reporting."""

import csv
import hashlib
import json
import math
import os
import re
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import fail_writes_after
from metacl import experiments
from metacl.config import RunConfig, apply_overrides
from metacl.errors import ConfigurationError, FormatError, NoDataError
from metacl.experiments import (
    GRID_SPACE,
    GRID_TASKS,
    LAMBDA3_SWEEP_VALUES,
    MEMORY_SWEEP_VALUES,
    ResultRecord,
    ablate,
    build_stream,
    execute_run,
    find_records,
    grid,
    load_record,
    report,
    run_dir_name,
    run_single,
    sweep,
    write_record,
)
from metacl.trainer import build_trainer, run_stream

TINY = [
    "n_tasks=3", "train_per_class=10", "test_per_class=5", "input_dim=8",
    "feature_width=16", "embed_dim=4", "disc_hidden=8", "batch_size=10",
    "replay_batch_size=8", "memory_budget=5", "seeds=[0]",
]


def tiny_config(*extra):
    return apply_overrides(RunConfig(), TINY + list(extra))


def csv_header(path):
    with open(path, newline="") as f:
        return next(csv.reader(f))


STATS = ["n_seeds", "mean_acc", "std_acc", "mean_fm", "std_fm", "mean_la"]


def test_build_stream_synthetic_shapes():
    stream = build_stream(tiny_config())
    assert len(stream.tasks) == 3
    assert stream.tasks[0].train.x.shape == (20, 8)
    assert stream.protocol == "split"


def _write_tiny_idx(d, gz=False, lacking=None):
    """Four classes, 12 train and 8 test rows, each class equally often;
    the ``lacking`` split ("train" or "test"), if any, holds only classes
    0 and 1."""
    import gzip
    import struct

    import numpy as np

    def dump(name, payload):
        if gz:
            (d / (name + ".gz")).write_bytes(gzip.compress(payload))
        else:
            (d / name).write_bytes(payload)

    rng = np.random.default_rng(0)
    for split, prefix, n in (("train", "train", 12), ("test", "t10k", 8)):
        imgs = rng.integers(0, 256, size=(n, 3, 3), dtype=np.uint8)
        labels = np.tile(np.arange(4, dtype=np.uint8), n // 4)
        if split == lacking:
            labels %= 2
        dump(f"{prefix}-images-idx3-ubyte",
             struct.pack(">IIII", 0x00000803, *imgs.shape) + imgs.tobytes())
        dump(f"{prefix}-labels-idx1-ubyte",
             struct.pack(">II", 0x00000801, n) + labels.tobytes())


@pytest.mark.parametrize("gz", [False, True])
def test_build_stream_idx_permuted(tmp_path, gz):
    _write_tiny_idx(tmp_path, gz=gz)
    config = tiny_config(f"idx_dir={tmp_path}", "dataset=idx",
                         "protocol=permuted", "n_tasks=2",
                         "train_per_task=8", "test_per_task=4")
    stream = build_stream(config)
    assert stream.protocol == "permuted"
    assert len(stream.tasks) == 2
    assert stream.tasks[0].train.x.shape == (8, 9)
    assert stream.tasks[0].n_classes == 4


@pytest.mark.parametrize("split", ["train", "test"])
def test_split_stream_rejects_a_task_with_an_empty_split(tmp_path, split):
    # four classes in two tasks, and ``split`` holds no row of the second:
    # that fails naming the task and the split, not in numpy
    _write_tiny_idx(tmp_path, lacking=split)
    config = tiny_config(f"idx_dir={tmp_path}", "dataset=idx",
                         "protocol=split", "classes_per_task=2", "n_tasks=2")
    with pytest.raises(ConfigurationError,
                       match=rf"task [12] \(classes .*\) has no {split} rows"):
        build_stream(config)


@pytest.mark.parametrize("split", ["train", "test"])
def test_idx_split_stream_builds_no_class_group_past_n_tasks(tmp_path, split):
    # the second class group has no ``split`` rows, but n_tasks=1 never
    # builds it, so the stream is the first task alone
    _write_tiny_idx(tmp_path, lacking=split)
    config = tiny_config(f"idx_dir={tmp_path}", "dataset=idx",
                         "protocol=split", "classes_per_task=2", "n_tasks=1")
    stream = build_stream(config)
    assert [t.label_set for t in stream.tasks] == [(0, 1)]


@pytest.mark.parametrize("n_tasks", [1, 2])
def test_idx_split_stream_keeps_the_first_n_tasks(tmp_path, n_tasks):
    # four classes in pairs make two tasks; n_tasks keeps the first of them
    _write_tiny_idx(tmp_path)
    config = tiny_config(f"idx_dir={tmp_path}", "dataset=idx",
                         "protocol=split", "classes_per_task=2",
                         f"n_tasks={n_tasks}")
    stream = build_stream(config)
    assert [t.task_id for t in stream.tasks] == list(range(1, n_tasks + 1))
    assert [t.label_set for t in stream.tasks] == [(0, 1), (2, 3)][:n_tasks]


@pytest.mark.parametrize("protocol", ["split", "permuted"])
@pytest.mark.parametrize("cut", [(8, 4), (2, 1), (0, 0)])
def test_idx_cut_applies_to_each_task(tmp_path, protocol, cut):
    # a split task holds 6 train and 4 test rows, a permuted task all 12
    # and 8; each keeps min(rows, cut) of them, and 0 keeps every row
    _write_tiny_idx(tmp_path)
    config = tiny_config(f"idx_dir={tmp_path}", "dataset=idx",
                         f"protocol={protocol}", "classes_per_task=2",
                         "n_tasks=2", f"train_per_task={cut[0]}",
                         f"test_per_task={cut[1]}")
    stream = build_stream(config)
    rows = (6, 4) if protocol == "split" else (12, 8)
    kept = tuple(min(n, c or n) for n, c in zip(rows, cut))
    assert [(len(t.train), len(t.test)) for t in stream.tasks] == [kept] * 2


def test_idx_split_tasks_do_not_depend_on_the_tasks_after_them(tmp_path):
    # each task draws its cut before the tasks after it: a shorter stream
    # is a longer one's first tasks, byte for byte
    _write_tiny_idx(tmp_path)
    one, two = (build_stream(tiny_config(
        f"idx_dir={tmp_path}", "dataset=idx", "protocol=split",
        "classes_per_task=2", f"n_tasks={n}", "train_per_task=3",
        "test_per_task=2")) for n in (1, 2))
    assert stream_digest(one) == stream_digest(replace(two, tasks=two.tasks[:1]))


def test_idx_split_stream_with_too_few_tasks_fails_naming_both_counts(
        tmp_path):
    _write_tiny_idx(tmp_path)
    config = tiny_config(f"idx_dir={tmp_path}", "dataset=idx",
                         "protocol=split", "classes_per_task=2", "n_tasks=3")
    with pytest.raises(ConfigurationError,
                       match=r"n_tasks=3, .* makes only 2 tasks"):
        build_stream(config)


def test_run_single_record_fields():
    config = tiny_config()
    record = run_single(config, seed=0)
    assert record.method == "scale"
    assert record.seed == 0
    assert [len(r) for r in record.acc_matrix] == [1, 2, 3]
    assert 0.0 <= record.final_acc <= 1.0
    assert record.samples_seen == {1: 20, 2: 20, 3: 20}
    assert record.counters["inner_updates"] == 6
    assert record.wall_s > 0


def test_identical_config_and_seed_identical_record_bytes():
    config = tiny_config()
    a = run_single(config, seed=0)
    b = run_single(config, seed=0)
    assert a.record_bytes() == b.record_bytes()
    c = run_single(config, seed=1)
    assert c.record_bytes() != a.record_bytes()


def test_finetune_equals_degenerate_scale_config():
    ft = run_single(tiny_config("method=finetune"), seed=0)
    degenerate = tiny_config(
        "ablation=A", "lambda1=0", "lambda2=0", "lambda3=0",
        "memory_budget=0", "transform_mode=off")
    sc = run_single(degenerate, seed=0)
    assert ft.acc_matrix == sc.acc_matrix
    assert ft.final_acc == sc.final_acc


def test_er_budget_zero_equals_finetune():
    er = run_single(tiny_config("method=er", "memory_budget=0"), seed=0)
    ft = run_single(tiny_config("method=finetune"), seed=0)
    assert er.acc_matrix == ft.acc_matrix


def test_er_one_epoch_counters():
    record = run_single(tiny_config("method=er"), seed=0)
    assert record.samples_seen == {1: 20, 2: 20, 3: 20}
    assert record.counters["outer_updates"] == 0


def test_execute_run_writes_layout(tmp_path):
    config = tiny_config("seeds=[0,1]")
    records = execute_run(config, out_dir=str(tmp_path))
    assert len(records) == 2
    run_dir = tmp_path / run_dir_name(config)
    assert (run_dir / "config.txt").exists()
    assert (run_dir / "summary.csv").exists()
    for seed in (0, 1):
        assert (run_dir / f"seed-{seed}" / "record.json").exists()
        assert (run_dir / f"seed-{seed}" / "timing.json").exists()


@pytest.mark.parametrize("override, missing", [
    ("ablation=full", ()),
    ("ablation=A", ("mean_disc_loss",)),
    ("ablation=C", ("mean_outer_loss",)),
    ("method=er", ("mean_outer_loss", "mean_disc_loss")),
])
def test_timing_carries_each_tasks_mean_step_losses(tmp_path, override,
                                                    missing):
    config = tiny_config(override)
    (record,) = execute_run(config, out_dir=str(tmp_path))
    seed_dir = tmp_path / run_dir_name(config) / "seed-0"
    timing = json.loads((seed_dir / "timing.json").read_text())
    assert timing["task_losses"] == record.task_losses
    assert len(record.task_losses) == 3
    for losses in record.task_losses:
        assert sorted(losses) == ["mean_disc_loss", "mean_inner_loss",
                                  "mean_outer_loss"]
        for key, value in losses.items():
            assert (value is None) == (key in missing), key
    assert load_record(str(seed_dir)).task_losses == record.task_losses
    # the byte-stable record holds no loss
    assert "loss" not in (seed_dir / "record.json").read_text()


@pytest.mark.parametrize("method", ["scale", "er"])
def test_execute_run_rejects_k_max_below_task_count(tmp_path, method):
    config = tiny_config("k_max=2", f"method={method}")
    with pytest.raises(ConfigurationError, match="k_max=2 .* 3 tasks"):
        execute_run(config, out_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_execute_run_accepts_k_max_equal_to_task_count(tmp_path):
    records = execute_run(tiny_config("k_max=3"), out_dir=str(tmp_path))
    assert records[0].acc_matrix and len(records[0].acc_matrix) == 3


def test_emitted_records_byte_identical_across_reruns(tmp_path):
    config = tiny_config()
    execute_run(config, out_dir=str(tmp_path / "a"))
    execute_run(config, out_dir=str(tmp_path / "b"))
    rel = os.path.join(run_dir_name(config), "seed-0", "record.json")
    with open(tmp_path / "a" / rel, "rb") as f:
        a = f.read()
    with open(tmp_path / "b" / rel, "rb") as f:
        b = f.read()
    assert a == b


@pytest.mark.parametrize("method", ["scale", "er"])
def test_record_reload_reproduces_values(tmp_path, method):
    # every field comes back, and each file holds exactly its own fields:
    # a field list that drops or moves a field fails here
    config = tiny_config(f"method={method}")
    record = execute_run(config, out_dir=str(tmp_path))[0]
    seed_dir = tmp_path / run_dir_name(config) / "seed-0"
    assert load_record(str(seed_dir)) == record
    assert record.wall_s > 0 and len(record.task_wall_s) == 3
    assert len(record.task_losses) == 3
    timing = {"wall_s", "task_wall_s", "task_losses"}
    every = {f.name for f in fields(ResultRecord)}
    stable = json.loads((seed_dir / "record.json").read_text())
    assert set(stable) == every - timing | {"record_version"}
    assert stable["record_version"] == 1
    assert set(json.loads((seed_dir / "timing.json").read_text())) == timing


def _without(raw, key):
    return {k: v for k, v in raw.items() if k != key}


@pytest.mark.parametrize("name, tamper, match", [
    ("record.json", lambda raw: {**raw, "record_version": 2},
     "record_version 2 unsupported"),
    ("record.json", lambda raw: _without(raw, "record_version"),
     "record_version None unsupported"),
    ("record.json", lambda raw: _without(raw, "final_fm"),
     r"missing fields \['final_fm'\]"),
    ("record.json", lambda raw: [raw], "holds list, not an object"),
    ("timing.json", lambda raw: [raw], "holds list, not an object"),
    ("record.json", None, "not valid JSON"),
    ("timing.json", None, "not valid JSON"),
    ("record.json", lambda raw: {**raw, "samples_seen": [10]},
     "field samples_seen holds list, not dict"),
    ("record.json", lambda raw: {**raw, "final_acc": "high"},
     "field final_acc holds str, not float"),
    ("record.json", lambda raw: {**raw, "samples_seen": {"x": 10}},
     "field samples_seen has a non-integer key"),
    ("timing.json", lambda raw: {**raw, "wall_s": "slow"},
     r"field wall_s holds str, not float \| None"),
    ("record.json", lambda raw: {**raw, "seed": True},
     "field seed holds bool, not int"),
    ("record.json", lambda raw: {**raw, "acc_matrix": [[0.5], [0.5]]},
     "field acc_matrix: row 2 has 1 entries, wants 2"),
    ("record.json", lambda raw: {**raw, "acc_matrix": [[1.5]]},
     r"field acc_matrix: accuracy 1.5 outside \[0, 1\]"),
    ("record.json", lambda raw: {**raw, "acc_matrix": [0.5]},
     "field acc_matrix: "),
    ("record.json", lambda raw: {**raw, "acc_matrix": []},
     "field acc_matrix: holds no row"),
    ("record.json", lambda raw: {**raw, "acc_matrix": [["0.5"]]},
     "field acc_matrix: entry '0.5' is str, not int or float"),
    ("record.json", lambda raw: {**raw, "acc_matrix": [[True]]},
     "field acc_matrix: entry True is bool, not int or float"),
    ("record.json", lambda raw: {**raw, "samples_seen": {"1": "ten"}},
     "field samples_seen: entry 'ten' is str, not int"),
    ("record.json", lambda raw: {**raw, "counters": {"inner_updates": "x"}},
     "field counters: entry 'x' is str, not int"),
], ids=["version 2", "no version", "no final_fm", "record list", "timing list",
        "record bad JSON", "timing bad JSON", "samples_seen list",
        "final_acc str", "samples_seen key x", "wall_s str", "seed bool",
        "acc_matrix short row", "acc_matrix above 1", "acc_matrix flat",
        "acc_matrix empty", "acc_matrix str entry", "acc_matrix bool entry",
        "samples_seen str value", "counters str value"])
def test_load_record_rejects_a_malformed_file_naming_it(tmp_path, name, tamper,
                                                        match):
    record = ResultRecord(config_hash="0" * 64, method="scale", ablation="full",
                          seed=0, acc_matrix=[[0.5]], final_acc=0.5,
                          final_fm=0.0, samples_seen={1: 10}, counters={})
    write_record(str(tmp_path), record)
    path = tmp_path / name
    text = path.read_text()
    path.write_text(text[:-3] if tamper is None  # cut the closing brace
                    else json.dumps(tamper(json.loads(text))))
    with pytest.raises(FormatError, match=match) as info:
        load_record(str(tmp_path))
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("budget", [0, 10])
def test_failed_record_write_keeps_the_old_file(tmp_path, monkeypatch, budget):
    record = ResultRecord(config_hash="0" * 64, method="scale", ablation="full",
                          seed=0, acc_matrix=[[0.5]], final_acc=0.5,
                          final_fm=0.0, samples_seen={1: 10}, counters={})
    write_record(str(tmp_path), record)
    before = (tmp_path / "record.json").read_bytes()
    fail_writes_after(monkeypatch, budget)
    with pytest.raises(OSError, match="no space"):
        write_record(str(tmp_path), replace(record, final_acc=0.75))
    assert (tmp_path / "record.json").read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["record.json", "timing.json"]


def test_summary_csv_columns_and_round_trip(tmp_path):
    config = tiny_config()
    records = execute_run(config, out_dir=str(tmp_path))
    path = tmp_path / run_dir_name(config) / "summary.csv"
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0]) == ["method", "ablation", "seed", "task_index",
                             "acc_row", "final_acc", "final_fm", "wall_s"]
    assert len(rows) == 3
    last = rows[-1]
    assert float(last["final_acc"]) == records[0].final_acc
    parsed_row = [float(v) for v in last["acc_row"].split(";")]
    assert parsed_row == records[0].acc_matrix[-1]


def test_sweep_defaults_and_degenerate(tmp_path):
    assert MEMORY_SWEEP_VALUES == (50, 100, 150, 200)
    assert LAMBDA3_SWEEP_VALUES == (0.03, 0.09, 0.3, 0.9)
    config = tiny_config(f"out_dir={tmp_path}")
    table = sweep(config, "memory", values=[50])
    assert list(table) == [50]
    plain = run_single(apply_overrides(config, ["memory_budget=50"]), seed=0)
    assert table[50][0].record_bytes() == plain.record_bytes()
    assert csv_header(tmp_path / "sweep-memory.csv") == ["axis", "value"] + STATS


def test_sweep_validation(tmp_path):
    config = tiny_config(f"out_dir={tmp_path}")
    with pytest.raises(ConfigurationError):
        sweep(config, "memory", values=[])
    with pytest.raises(ConfigurationError):
        sweep(config, "memory", values=[37])
    with pytest.raises(ConfigurationError):
        sweep(config, "nonsense")
    with pytest.raises(ConfigurationError,
                       match="memory sweep has the value 50 twice"):
        sweep(config, "memory", values=[50, 50.0])
    assert not list(tmp_path.iterdir())


def test_grid_restricted_space(tmp_path):
    config = tiny_config("n_tasks=5", f"out_dir={tmp_path}")
    best, rows = grid(config,
                      space={"inner_lr": [0.1], "lambda3": [0.03, 0.09]})
    assert len(rows) == 2
    assert best["inner_lr"] == 0.1
    assert best["lambda3"] in (0.03, 0.09)
    assert csv_header(tmp_path / "grid.csv") == ["inner_lr", "lambda3"] + STATS


def test_grid_runs_each_combination_as_execute_run_does(tmp_path):
    # a 2x2 grid leaves one run directory per combination, holding what
    # execute_run of that combination's config writes, byte for byte
    config = tiny_config("n_tasks=2", "seeds=[0,1]",
                         f"out_dir={tmp_path / 'grid'}")
    _, rows = grid(config, space={"inner_lr": [0.1, 0.01],
                                  "lambda3": [0.03, 0.3]})
    names = []
    for row in rows:
        cfg = replace(config, inner_lr=row["inner_lr"], lambda3=row["lambda3"])
        execute_run(cfg, out_dir=str(tmp_path / "alone"))
        names.append(run_dir_name(cfg))
        for rel in ("config.txt", "seed-0/record.json", "seed-1/record.json"):
            assert (tmp_path / "grid" / names[-1] / rel).read_bytes() == (
                tmp_path / "alone" / names[-1] / rel).read_bytes()
    assert len(set(names)) == 4
    assert sorted(p.name for p in (tmp_path / "grid").iterdir()) == sorted(
        names + ["grid.csv"])


def test_grid_truncates_to_first_three_tasks(tmp_path):
    config = tiny_config("n_tasks=5", "seeds=[0]", f"out_dir={tmp_path}")
    _, rows = grid(config, space={"lambda3": [0.03]})
    assert GRID_TASKS == 3
    record = run_single(apply_overrides(config, [f"n_tasks={GRID_TASKS}"]),
                        seed=0)
    assert rows[0]["mean_acc"] == record.final_acc


def test_grid_validation(tmp_path):
    config = tiny_config(f"out_dir={tmp_path}")
    with pytest.raises(ConfigurationError):
        grid(config, space={"bogus": [1]})
    with pytest.raises(ConfigurationError):
        grid(config, space={"inner_lr": [0.5]})
    with pytest.raises(ConfigurationError):
        grid(config, space={"inner_lr": []})
    # an axis value that is not a list is named, not iterated, before any
    # run starts
    for value in (0.03, "0.03"):
        with pytest.raises(ConfigurationError, match="lambda3.*0.03"):
            grid(config, space={"lambda3": value})
    with pytest.raises(ConfigurationError, match="names no axis"):
        grid(config, space={})
    with pytest.raises(ConfigurationError,
                       match="grid axis lambda3 has the value 0.03 twice"):
        grid(config, space={"lambda3": [0.03, 0.03]})
    assert not list(tmp_path.iterdir())
    assert set(GRID_SPACE) == {"inner_lr", "outer_lr",
                               "lambda1", "lambda2", "lambda3"}


def test_grid_checks_every_combination_before_the_first_run(tmp_path,
                                                            monkeypatch):
    # true passes the axis's membership check (it equals 1.0), and RunConfig
    # rejects it: the grid must fail before it runs 3.0
    monkeypatch.setattr(experiments, "run_single",
                        lambda *args, **kwargs: pytest.fail("a run started"))
    with pytest.raises(ConfigurationError, match="lambda1"):
        grid(tiny_config(f"out_dir={tmp_path}"),
             space={"lambda1": [3.0, True]})


def test_ablate_runs_all_modes(tmp_path):
    table = ablate(tiny_config(f"out_dir={tmp_path}"), modes=("full", "C"))
    assert sorted(table) == ["C", "full"]
    assert csv_header(tmp_path / "ablations.csv") == ["ablation"] + STATS


def test_ablate_rejects_empty_and_repeated_modes(tmp_path):
    config = tiny_config(f"out_dir={tmp_path}")
    with pytest.raises(ConfigurationError,
                       match="ablation needs at least one value"):
        ablate(config, modes=())
    with pytest.raises(ConfigurationError,
                       match="ablation has the value 'A' twice"):
        ablate(config, modes=("A", "full", "A"))
    with pytest.raises(ConfigurationError, match="ablation accepts .*'Z'"):
        ablate(config, modes=("full", "Z"))
    assert not list(tmp_path.iterdir())


def test_execute_run_er(tmp_path):
    records = execute_run(replace(tiny_config(), method="er"),
                          out_dir=str(tmp_path))
    assert records[0].method == "er"


# sha256 of record.json, computed before trainers and losses read RunConfig
# directly: a refactor of the run path must not change a single number
PINNED_RECORDS = {
    ("scale", "full"):
        "7743d06d381b3e6458997a84007a52e54695de5fcb8bc949c172bf1269f931b8",
    ("scale", "A"):
        "4a60c615d8377b88129e88a9226452e98ac585d383f219084f84d449bf9f6fdb",
    ("scale", "B"):
        "30b73f73c0b71c83f8d9071fe44c0ccac46b01006dfa3eb11149aa65721cb88d",
    ("scale", "C"):
        "50089deb11d68535ffede190abeb68003d43d50aa45f8520ee2c8349097f4ba0",
    ("er", "full"):
        "b32e71eeccc9e149e52e21db14ce1672592a34924844a2dc20319c6b3ebf5ecd",
    ("finetune", "full"):
        "c82c1a525b88b54338c2f9247ff07598d2ceee63b6d774792d6dc9cbae0e1258",
    # the permuted protocol's one head (w, b) is shared by every task group;
    # at 10 samples per class every accuracy of this run is 0.5, which no
    # small change of a gradient would move, so it takes 15 and 25
    ("scale", "full", "protocol=permuted", "train_per_class=15",
     "test_per_class=25"):
        "c730b1aacf5d74d57f7e42080bcc9fbc77630cb6843d44ec436d481d435e33a7",
}


@pytest.mark.parametrize("key", sorted(PINNED_RECORDS), ids="-".join)
def test_records_pinned(tmp_path, key):
    method, ablation, *overrides = key
    config = apply_overrides(
        RunConfig(method=method, ablation=ablation, n_tasks=3,
                  train_per_class=10, test_per_class=10, seeds=(0,)),
        overrides)
    execute_run(config, out_dir=str(tmp_path))
    (path,) = tmp_path.glob("*/seed-0/record.json")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PINNED_RECORDS[key]


# sha256 of a finished seed-run (seed 0): every parameter's shape and bytes
# in all_params() order, the memory's classifier and discriminator snapshot
# arrays, and each task's mean inner, outer and discriminator loss. Records
# hold accuracies, which a one-ulp change of a gradient can leave as they
# are; these digests change with it. Taken before the grouped forwards,
# backwards and evaluation were cut down to fewer numpy calls; the finetune
# and ablation digests, while each method still had a trainer class of its own.
# B's was re-pinned once when its memory rows stopped carrying the snapshots
# that no loss of B reads: its snapshot arrays went from (250, 2) and
# (250, 6) to (250, 0) each, and test_ablation_b_learner_is_pinned shows
# that nothing else moved.
PINNED_RUNS = {
    "desk5-scale": (
        {}, "029824bb4c7326c853e9aa05fafaa9067cd17c667aa2abc988ad9284a3ac7e0c"),
    "desk5-scale-A": (
        {"ablation": "A"},
        "50eb021b0a659647067ec1bb6c200056cf812fe9767a3b819ffcf618ad022bf3"),
    "desk5-scale-B": (
        {"ablation": "B"},
        "cb09b18005309d7e24e7358c666fdda6763210cfb11db24476ae06a2dae3c0f4"),
    "desk5-scale-C": (
        {"ablation": "C"},
        "d34df3e4949fa60316d83a1bee94d9632d73e3ddcc766ec980be263cb8a4ab37"),
    "desk5-finetune": (
        {"method": "finetune"},
        "b119b29712da8d59c4d1e1ad03f6d6421bef1fd1882eb1141e3aae50724e7624"),
    "long20-scale": (
        {"n_tasks": 20, "train_per_class": 20},
        "7cb2b7b29e7c5fb910222bcbef4983abfbaddde1c538a1e8ea105281fa4354b1"),
    "last-negative-ce": (
        {"transform_mode": "last", "generator_mode": "negative-ce",
         "share_embedding": False, "train_per_class": 40},
        "8f73988f759845cd545ed870459ba625a93250afb8951b1d0617424baeb50e5c"),
    "er20": (
        {"method": "er", "n_tasks": 20, "memory_budget": 200},
        "f61ce849615eaaf47f0b930e6f80055aa858e1848dfa304c1a9367a343f4ffc8"),
}


def run_digest(config, memory_fields=("h", "h_disc")):
    stream = build_stream(config)
    trainer = build_trainer(stream, config, 0)
    run_stream(trainer, stream)
    h = hashlib.sha256()
    for p in trainer.model.all_params():
        h.update(f"{p.data.shape}".encode("ascii"))
        h.update(p.data.tobytes())
    rows = trainer.memory.rows()
    for a in (getattr(rows, name) for name in memory_fields):
        h.update(f"{a.shape}".encode("ascii"))
        h.update(a.tobytes())
    for losses in trainer.state.task_losses:
        h.update(repr([losses[f"mean_{kind}_loss"]
                       for kind in ("inner", "outer", "disc")]).encode("ascii"))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_runs_pinned(name):
    fields, digest = PINNED_RUNS[name]
    assert run_digest(RunConfig(**fields)) == digest


def test_ablation_b_learner_is_pinned():
    # B's parameters, per-task losses and memory rows (x, y, t), taken while
    # B's memory rows still carried logit snapshots: dropping the snapshots,
    # which no loss of B reads, leaves everything B learns as it was
    assert run_digest(RunConfig(ablation="B"), ("x", "y", "t")) == (
        "7d4510813f95ed8537712b56f2c2a6adb2c412aab160b389dff4c60914137f6b")


# sha256 over every task's train/test x and y (dtype, shape, bytes), computed
# while the synthetic stream still had its own spec type: the stream a
# RunConfig names must not change by a single byte
PINNED_STREAMS = {
    "split": (
        (), "4ca8a4c693d64b2bddd575ea28911b46009f1b729349c450f51f2aa36ed3572b"),
    "permuted": (
        ("protocol=permuted", "n_tasks=4"),
        "91c9c421b2ed3f9404390460554f8b836fbd11d495e2f43d57f57e9c7a221262"),
}


def stream_digest(stream):
    h = hashlib.sha256()
    for task in stream.tasks:
        for a in (task.train.x, task.train.y, task.test.x, task.test.y):
            h.update(f"{a.dtype}{a.shape}".encode("ascii"))
            h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
def test_streams_pinned(name):
    overrides, digest = PINNED_STREAMS[name]
    stream = build_stream(apply_overrides(RunConfig(), overrides))
    assert stream_digest(stream) == digest


def test_report_aggregates(tmp_path):
    records = execute_run(tiny_config("seeds=[0,1]"), out_dir=str(tmp_path))
    execute_run(tiny_config("method=finetune", "seeds=[0]"),
                out_dir=str(tmp_path))
    text, rows = report(str(tmp_path))
    assert len(rows) == 2
    by_method = {r["method"]: r for r in rows}
    assert by_method["finetune"]["std_acc"] == 0.0
    assert by_method["scale"]["n_seeds"] == 2
    # LA: each record's mean diagonal, then the mean over seeds
    diagonals = [sum(row[-1] for row in r.acc_matrix) / len(r.acc_matrix)
                 for r in records]
    assert abs(by_method["scale"]["mean_la"] - sum(diagonals) / 2) < 1e-12
    assert text.splitlines()[0].split()[-2] == "LA"
    assert "scale" in text and "finetune" in text
    assert csv_header(tmp_path / "report.csv") == (
        ["run", "method", "ablation"] + STATS + ["mean_seed_run_s"])
    # csv round trip without loss
    with open(tmp_path / "report.csv", newline="") as f:
        loaded = list(csv.DictReader(f))
    for raw, row in zip(loaded, rows):
        assert float(raw["mean_acc"]) == row["mean_acc"]
        assert float(raw["std_fm"]) == row["std_fm"]
        assert float(raw["mean_la"]) == row["mean_la"]
        assert float(raw["mean_seed_run_s"]) == row["mean_seed_run_s"]


def test_report_prints_one_row_per_run(tmp_path):
    # two budgets of one method and ablation are two runs, not one run of
    # two seeds; each row is named by its run directory
    config = tiny_config("n_tasks=2", f"out_dir={tmp_path}")
    sweep(config, "memory", values=[50, 100])
    text, rows = report(str(tmp_path))
    names = sorted(run_dir_name(replace(config, memory_budget=budget))
                   for budget in (50, 100))
    assert [row["run"] for row in rows] == names
    assert [row["n_seeds"] for row in rows] == [1, 1]
    assert [line.split()[0] for line in text.splitlines()[2:]] == names
    with open(tmp_path / "report.csv", newline="") as f:
        assert [raw["run"] for raw in csv.DictReader(f)] == names


def test_report_mean_seconds_per_seed_run_skips_untimed_records(tmp_path):
    records = execute_run(tiny_config("seeds=[0,1]"), out_dir=str(tmp_path))
    execute_run(tiny_config("method=finetune", "seeds=[0]"),
                out_dir=str(tmp_path))
    _, rows = report(str(tmp_path))
    by_method = {r["method"]: r for r in rows}
    assert by_method["scale"]["mean_seed_run_s"] == (
        (records[0].wall_s + records[1].wall_s) / 2)
    # a record without timing.json counts for ACC/FM but not for time
    (scale_dir,) = tmp_path.glob("scale-*")
    (scale_dir / "seed-1" / "timing.json").unlink()
    for timing in tmp_path.glob("finetune-*/seed-*/timing.json"):
        timing.unlink()
    text, rows = report(str(tmp_path))
    by_method = {r["method"]: r for r in rows}
    assert by_method["scale"]["mean_seed_run_s"] == records[0].wall_s
    assert by_method["scale"]["n_seeds"] == 2
    assert by_method["finetune"]["mean_seed_run_s"] is None
    assert text.splitlines()[0].split()[-1] == "s/seed-run"
    # a line starts with its run's directory name, <method>-<ablation>-<hash8>
    lines = {line.split("-")[0]: line.split()
             for line in text.splitlines()[2:]}
    assert lines["finetune"][-1] == "-"
    assert lines["scale"][-1] == f"{records[0].wall_s:.3f}"
    with open(tmp_path / "report.csv", newline="") as f:
        loaded = {raw["method"]: raw for raw in csv.DictReader(f)}
    assert loaded["finetune"]["mean_seed_run_s"] == ""


def test_seed_stats_mean_and_population_std():
    import numpy as np
    from types import SimpleNamespace
    from metacl.experiments import STATS_COLUMNS, seed_stats
    records = [SimpleNamespace(final_acc=0.7, final_fm=0.1,
                               acc_matrix=[[0.5], [0.6, 0.7], [0.7, 0.8, 0.9]]),
               SimpleNamespace(final_acc=0.9, final_fm=0.3,
                               acc_matrix=[[0.9], [0.1, 0.5]])]
    stats = seed_stats(records)
    assert list(stats) == list(STATS_COLUMNS) == STATS
    assert stats["n_seeds"] == 2
    assert abs(stats["mean_acc"] - 0.8) < 1e-15
    assert abs(stats["std_acc"] - np.std([0.7, 0.9])) < 1e-15
    assert abs(stats["mean_fm"] - 0.2) < 1e-15
    assert abs(stats["std_fm"] - np.std([0.1, 0.3])) < 1e-15
    # LA is the diagonal's mean: 0.7 and 0.7
    assert abs(stats["mean_la"] - 0.7) < 1e-15


def test_report_empty_dir_raises(tmp_path):
    with pytest.raises(NoDataError):
        report(str(tmp_path))


def test_find_records_sorted(tmp_path):
    execute_run(tiny_config("seeds=[1,0]"), out_dir=str(tmp_path))
    records = find_records(str(tmp_path))
    assert [r.seed for r in records] == [0, 1]


# -- config inputs, property-based -------------------------------------------

# at most 3 tasks of at most 5 samples per class, and a small network
PROPERTY_BASE = ["n_tasks=2", "train_per_class=3", "test_per_class=2",
                 "input_dim=4", "depth=2", "feature_width=8", "embed_dim=2",
                 "disc_hidden=4", "batch_size=4", "replay_batch_size=4",
                 "memory_budget=4", "seeds=[0]"]
# --set values per field: valid ones, edge ones and ones RunConfig rejects
SET_TOKENS = {
    "method": ["scale", "er", "finetune", "sgd"],
    "ablation": ["full", "A", "B", "C", "D"],
    "seeds": ["1", "[0, 1]", "[]", "-1", "[0, 0]", '"a"', "1.5", "[true]"],
    "dataset": ["synthetic", "idx"],
    "protocol": ["split", "permuted", "domain"],
    "n_tasks": ["1", "3", "0", "2.5"],
    "classes_per_task": ["2", "3", "1"],
    "train_per_class": ["1", "5", "0"],
    "test_per_class": ["1", "5", "0"],
    "input_dim": ["1", "3", "0"],
    "center_scale": ["0", "1e3", "-6", "1e308", "NaN"],
    "noise_scale": ["0", "5", "-1", "Infinity", "1e308"],
    "data_seed": ["0", "7", "-1", "1e20"],
    "feature_width": ["1", "3", "0"],
    "depth": ["1", "3", "0"],
    "embed_dim": ["1", "3", "0"],
    "disc_hidden": ["1", "0"],
    "transform_mode": ["per_layer", "last", "off", "first"],
    "share_embedding": ["true", "false", "1"],
    "k_max": ["0", "1", "3", "-1"],
    "inner_lr": ["0.01", "0.35", "100", "1e300", "0", "Infinity"],
    "outer_lr": ["0.01", "100", "1e300", "0"],
    "adversarial_lr": ["0.001", "100", "1e300", "-1"],
    "n_in": ["1", "2", "0"],
    "n_out": ["1", "2", "0"],
    "n_ad": ["1", "2", "0"],
    "batch_size": ["1", "3", "100", "0"],
    "replay_batch_size": ["1", "100", "0"],
    "lambda1": ["0", "3", "1e300", "-1"],
    "lambda2": ["0", "3", "1e300", "-1"],
    "lambda3": ["0", "0.9", "1e300", "-1"],
    "noise_mean": ["0", "-3", "1e300"],
    "noise_std": ["1", "1e-300", "1e300", "0"],
    "generator_mode": ["uniform-confusion", "negative-ce", "none"],
    "fake_fraction": ["1", "0.01", "1.5", "1e300", "0"],
    "memory_budget": ["0", "1", "5", "-1", "1000000000"],
}
DIVERGED = re.compile(r"(inner|outer|adversarial)-step loss on task \d+ "
                      r"contains NaN or Inf")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(sorted(SET_TOKENS)), max_size=4,
                unique=True).flatmap(lambda keys: st.fixed_dictionaries(
                    {key: st.sampled_from(SET_TOKENS[key]) for key in keys})))
def test_config_inputs_run_or_fail_by_name(drawn):
    # in-process, so the exception type shows: a bad value fails by name
    # before a write, a diverging run names its step and task, and anything
    # else runs to finite records
    pairs = [f"{key}={value}" for key, value in drawn.items()]
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        try:
            config = apply_overrides(RunConfig(), PROPERTY_BASE + pairs)
            records = execute_run(config, out_dir=tmp)
        except ConfigurationError:
            event("fails by name")
            assert not list(Path(tmp).iterdir())
            return
        except FloatingPointError as exc:
            event("diverges")
            assert DIVERGED.fullmatch(str(exc)), exc
            return
    event("runs")
    assert [r.seed for r in records] == list(config.seeds)
    for r in records:
        cells = [r.final_acc, r.final_fm, *(a for row in r.acc_matrix
                                            for a in row)]
        assert all(math.isfinite(v) for v in cells)


def test_large_memory_budget_costs_only_the_rows_held(tmp_path):
    # memory grows with the rows it stores: a budget far above a task's row
    # count reserves nothing
    config = apply_overrides(RunConfig(), [
        "method=er", "n_tasks=2", "train_per_class=3", "test_per_class=3",
        "seeds=[0]", "memory_budget=1000000000"])
    tracemalloc.start()
    try:
        records = execute_run(config, out_dir=str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.seed for r in records] == [0]
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"
