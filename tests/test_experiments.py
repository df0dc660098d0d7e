"""Experiment-runner tests: records, determinism, sweeps, reporting."""

import csv
import hashlib
import json
import os
from dataclasses import replace

import pytest

from helpers import fail_writes_after
from metacl.config import RunConfig, apply_overrides
from metacl.errors import ConfigurationError, NoDataError
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


STATS = ["n_seeds", "mean_acc", "std_acc", "mean_fm", "std_fm"]


def test_build_stream_synthetic_shapes():
    stream = build_stream(tiny_config())
    assert len(stream.tasks) == 3
    assert stream.tasks[0].train.x.shape == (20, 8)
    assert stream.protocol == "split"


def _write_tiny_idx(d, gz=False):
    import gzip
    import struct

    import numpy as np

    def dump(name, payload):
        if gz:
            (d / (name + ".gz")).write_bytes(gzip.compress(payload))
        else:
            (d / name).write_bytes(payload)

    rng = np.random.default_rng(0)
    for prefix, n in (("train", 12), ("t10k", 8)):
        imgs = rng.integers(0, 256, size=(n, 3, 3), dtype=np.uint8)
        labels = np.tile(np.arange(4, dtype=np.uint8), n // 4)
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


def test_record_reload_reproduces_values(tmp_path):
    config = tiny_config()
    record = execute_run(config, out_dir=str(tmp_path))[0]
    seed_dir = tmp_path / run_dir_name(config) / "seed-0"
    loaded = load_record(str(seed_dir))
    assert loaded.acc_matrix == record.acc_matrix
    assert loaded.final_acc == record.final_acc
    assert loaded.final_fm == record.final_fm
    assert loaded.samples_seen == record.samples_seen
    assert loaded.counters == record.counters
    assert loaded.wall_s == record.wall_s


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


def test_grid_restricted_space(tmp_path):
    config = tiny_config("n_tasks=5", f"out_dir={tmp_path}")
    best, rows = grid(config,
                      space={"inner_lr": [0.1], "lambda3": [0.03, 0.09]})
    assert len(rows) == 2
    assert best["inner_lr"] == 0.1
    assert best["lambda3"] in (0.03, 0.09)
    assert csv_header(tmp_path / "grid.csv") == ["inner_lr", "lambda3"] + STATS


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
    assert not list(tmp_path.iterdir())
    assert set(GRID_SPACE) == {"inner_lr", "outer_lr",
                               "lambda1", "lambda2", "lambda3"}


def test_ablate_runs_all_modes(tmp_path):
    table = ablate(tiny_config(f"out_dir={tmp_path}"), modes=("full", "C"))
    assert sorted(table) == ["C", "full"]
    assert csv_header(tmp_path / "ablations.csv") == ["ablation"] + STATS


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
PINNED_RUNS = {
    "desk5-scale": (
        {}, "029824bb4c7326c853e9aa05fafaa9067cd17c667aa2abc988ad9284a3ac7e0c"),
    "desk5-scale-A": (
        {"ablation": "A"},
        "50eb021b0a659647067ec1bb6c200056cf812fe9767a3b819ffcf618ad022bf3"),
    "desk5-scale-B": (
        {"ablation": "B"},
        "beac66cd4fc72334bf24b9464ec2f6163e9149e7254a7ee89da8ee081e620ed6"),
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


def run_digest(config):
    stream = build_stream(config)
    trainer = build_trainer(stream, config, 0)
    records = run_stream(trainer, stream)
    h = hashlib.sha256()
    for p in trainer.model.all_params():
        h.update(f"{p.data.shape}".encode("ascii"))
        h.update(p.data.tobytes())
    rows = trainer.memory.rows()
    for a in (rows.h, rows.h_disc):
        h.update(f"{a.shape}".encode("ascii"))
        h.update(a.tobytes())
    for r in records:
        h.update(repr([r[f"mean_{kind}_loss"]
                       for kind in ("inner", "outer", "disc")]).encode("ascii"))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_runs_pinned(name):
    fields, digest = PINNED_RUNS[name]
    assert run_digest(RunConfig(**fields)) == digest


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
    execute_run(tiny_config("seeds=[0,1]"), out_dir=str(tmp_path))
    execute_run(tiny_config("method=finetune", "seeds=[0]"),
                out_dir=str(tmp_path))
    text, rows = report(str(tmp_path))
    assert len(rows) == 2
    by_method = {r["method"]: r for r in rows}
    assert by_method["finetune"]["std_acc"] == 0.0
    assert by_method["scale"]["n_seeds"] == 2
    assert "scale" in text and "finetune" in text
    assert csv_header(tmp_path / "report.csv") == (
        ["method", "ablation"] + STATS + ["mean_seed_run_s"])
    # csv round trip without loss
    with open(tmp_path / "report.csv", newline="") as f:
        loaded = list(csv.DictReader(f))
    for raw, row in zip(loaded, rows):
        assert float(raw["mean_acc"]) == row["mean_acc"]
        assert float(raw["std_fm"]) == row["std_fm"]
        assert float(raw["mean_seed_run_s"]) == row["mean_seed_run_s"]


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
    lines = {line.split()[0]: line.split() for line in text.splitlines()[2:]}
    assert lines["finetune"][-1] == "-"
    assert lines["scale"][-1] == f"{records[0].wall_s:.3f}"
    with open(tmp_path / "report.csv", newline="") as f:
        loaded = {raw["method"]: raw for raw in csv.DictReader(f)}
    assert loaded["finetune"]["mean_seed_run_s"] == ""


def test_seed_stats_mean_and_population_std():
    import numpy as np
    from types import SimpleNamespace
    from metacl.experiments import STATS_COLUMNS, seed_stats
    records = [SimpleNamespace(final_acc=0.7, final_fm=0.1),
               SimpleNamespace(final_acc=0.9, final_fm=0.3)]
    stats = seed_stats(records)
    assert list(stats) == list(STATS_COLUMNS) == STATS
    assert stats["n_seeds"] == 2
    assert abs(stats["mean_acc"] - 0.8) < 1e-15
    assert abs(stats["std_acc"] - np.std([0.7, 0.9])) < 1e-15
    assert abs(stats["mean_fm"] - 0.2) < 1e-15
    assert abs(stats["std_fm"] - np.std([0.1, 0.3])) < 1e-15


def test_report_empty_dir_raises(tmp_path):
    with pytest.raises(NoDataError):
        report(str(tmp_path))


def test_find_records_sorted(tmp_path):
    execute_run(tiny_config("seeds=[1,0]"), out_dir=str(tmp_path))
    records = find_records(str(tmp_path))
    assert [r.seed for r in records] == [0, 1]
