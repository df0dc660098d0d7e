"""Experiment runner: build streams, execute runs, emit records and tables.

Output layout: one directory per run-set, ``<out>/<method>-<ablation>-<hash8>/``,
holding ``config.txt``, one ``seed-N/record.json`` per seed (byte-stable), a
``seed-N/timing.json`` side file, and ``summary.csv``. ``execute_run`` writes
it, for a ``run`` and for each variant of a ``sweep``, ``grid`` or ``ablate``
(``_run_set``, which adds one stats CSV per set). Wall-clock times and
each task's mean step losses live in the side file, so records stay
byte-identical across reruns. The step losses per task are
``mean_inner_loss`` (the full objective, ``losses.total_loss``),
``mean_outer_loss`` (CE + dark replay, ``losses.classification_loss``:
the outer step leaves out the alignment term) and ``mean_disc_loss``; each
is null where its step never ran: the outer step under ablation C, the
discriminator step under ablation A, and both in the replay baselines.
"""

import csv
import io
import itertools
import json
import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import get_args, get_type_hints

import numpy as np

from .checkpoint import atomic_write
from .config import ABLATION_MODES, config_hash, serialize_config
from .datasets import make_idx_stream, make_synthetic
from .errors import ConfigurationError, FormatError, NoDataError
from .metrics import AccuracyMatrix, acc, fm, la
from .trainer import build_trainer, run_stream, task_capacity

MEMORY_SWEEP_VALUES = (50, 100, 150, 200)
LAMBDA3_SWEEP_VALUES = (0.03, 0.09, 0.3, 0.9)
GRID_TASKS = 3  # the grid's n_tasks: a rebuilt stream, not a prefix (grid)
GRID_SPACE = {
    "inner_lr": (0.001, 0.01, 0.1),
    "outer_lr": (0.001, 0.01, 0.1),
    "lambda1": (1.0, 3.0),
    "lambda2": (1.0, 3.0),
    "lambda3": (0.03, 0.09, 0.3, 0.9),
}
RECORD_VERSION = 1
TIMING = {"timing": True}  # metadata of the ResultRecord fields in timing.json
STATS_COLUMNS = ("n_seeds", "mean_acc", "std_acc", "mean_fm", "std_fm",
                 "mean_la")
SUMMARY_COLUMNS = ("method", "ablation", "seed", "task_index", "acc_row",
                   "final_acc", "final_fm", "wall_s")

def atomic_write_text(path, text):
    atomic_write(path, lambda f: f.write(text.encode("utf-8")))


# -- streams -----------------------------------------------------------------------


def build_stream(config):
    """TaskStream per the config's dataset block: ``make_synthetic`` or
    ``datasets.make_idx_stream``."""
    if config.dataset == "synthetic":
        return make_synthetic(config)
    return make_idx_stream(config)


# -- single runs -------------------------------------------------------------------


@dataclass
class ResultRecord:
    """One completed run: everything needed to rebuild the metrics. Fields
    marked ``TIMING`` go to timing.json (``wall_s`` None if it is missing),
    the rest to record.json."""

    config_hash: str
    method: str
    ablation: str
    seed: int
    acc_matrix: list
    final_acc: float
    final_fm: float
    samples_seen: dict
    counters: dict
    wall_s: float | None = field(default=None, metadata=TIMING)
    task_wall_s: list = field(default_factory=list, metadata=TIMING)
    task_losses: list = field(default_factory=list, metadata=TIMING)

    def stable_dict(self):
        """The byte-stable part (no timing)."""
        out = {name: getattr(self, name) for name in STABLE_FIELDS}
        out["samples_seen"] = {str(k): v for k, v in self.samples_seen.items()}
        return {"record_version": RECORD_VERSION, **out}

    def record_bytes(self):
        return (json.dumps(self.stable_dict(), sort_keys=True, indent=2)
                + "\n").encode("utf-8")


STABLE_FIELDS = tuple(f.name for f in fields(ResultRecord) if not f.metadata)
TIMING_FIELDS = tuple(f.name for f in fields(ResultRecord) if f.metadata)


def run_single(config, seed, stream=None):
    """Train one method for one seed; returns a ResultRecord."""
    stream = stream if stream is not None else build_stream(config)
    started = time.perf_counter()
    trainer = build_trainer(stream, config, seed)
    run_stream(trainer, stream)
    wall = time.perf_counter() - started

    state = trainer.state
    k = state.matrix.n_rows
    return ResultRecord(
        config_hash=config_hash(config),
        method=config.method,
        ablation=config.ablation,
        seed=seed,
        acc_matrix=state.matrix.to_rows(),
        final_acc=acc(state.matrix, k),
        final_fm=fm(state.matrix, k) if k >= 2 else 0.0,
        samples_seen=dict(state.samples_seen),
        counters={
            "inner_updates": state.inner_updates,
            "outer_updates": state.outer_updates,
            "adversarial_updates": state.adversarial_updates,
        },
        wall_s=wall,
        task_wall_s=list(state.task_wall_s),
        task_losses=list(state.task_losses),
    )


# -- run sets and emission ------------------------------------------------------------


def run_name(method, ablation, config_hash):
    """``<method>-<ablation>-<hash8>``: a run-set's directory and report row."""
    return f"{method}-{ablation}-{config_hash[:8]}"


def run_dir_name(config):
    return run_name(config.method, config.ablation, config_hash(config))


def write_record(seed_dir, record):
    atomic_write_text(os.path.join(seed_dir, "record.json"),
                      record.record_bytes().decode("utf-8"))
    timing = {name: getattr(record, name) for name in TIMING_FIELDS}
    atomic_write_text(os.path.join(seed_dir, "timing.json"),
                      json.dumps(timing, sort_keys=True, indent=2) + "\n")


def _read_json_object(path):
    """The JSON object in ``path``; anything else fails as ``FormatError``."""
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: holds {type(raw).__name__}, not an object")
    return raw


def _typed_fields(path, raw, names):
    """``raw``'s values of those ``names`` it holds, each of the type its
    ``ResultRecord`` annotation names (never a bool; an int where a float
    is due), else ``FormatError`` naming the file and the field."""
    hints = get_type_hints(ResultRecord)
    out = {name: raw[name] for name in names if name in raw}
    for name, value in out.items():
        kind = hints[name]
        kinds = get_args(kind) or (kind,)
        if isinstance(value, bool) or not isinstance(
                value, kinds + ((int,) if float in kinds else ())):
            raise FormatError(f"{path}: field {name} holds {type(value).__name__}"
                              f", not {getattr(kind, '__name__', kind)}")
    return out


def _typed_entries(path, name, entries, kinds):
    """``FormatError`` naming the file and the field ``name`` at the first
    of ``entries`` whose type, as JSON reads it (a bool is no int), is none
    of ``kinds``."""
    for v in entries:
        if type(v) not in kinds:
            raise FormatError(f"{path}: field {name}: entry {v!r} is "
                              f"{type(v).__name__}, not "
                              f"{' or '.join(k.__name__ for k in kinds)}")


def load_record(seed_dir):
    """Rebuild a ResultRecord from record.json (+ timing.json if present);
    a record of another version, or one missing a field, holding one of
    the wrong type, an accuracy matrix that is not complete rows of
    numbers in [0, 1], or a ``samples_seen`` or ``counters`` value that is
    not an int, fails as ``FormatError`` naming the file and the field."""
    path = os.path.join(seed_dir, "record.json")
    raw = _read_json_object(path)
    if raw.get("record_version") != RECORD_VERSION:
        raise FormatError(f"{path}: record_version {raw.get('record_version')!r}"
                          f" unsupported (this reader handles {RECORD_VERSION})")
    missing = [name for name in STABLE_FIELDS if name not in raw]
    if missing:
        raise FormatError(f"{path}: missing fields {missing}")
    values = _typed_fields(path, raw, STABLE_FIELDS)
    try:  # the rows seed_stats reads LA from
        if not AccuracyMatrix.from_rows(values["acc_matrix"]).n_rows:
            raise ValueError("holds no row")
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: field acc_matrix: {exc}") from exc
    if not all(map(str.isdecimal, values["samples_seen"])):
        raise FormatError(f"{path}: field samples_seen has a non-integer key")
    for name in ("samples_seen", "counters"):
        _typed_entries(path, name, values[name].values(), (int,))
    values["samples_seen"] = {int(k): v for k, v in raw["samples_seen"].items()}
    timing_path = os.path.join(seed_dir, "timing.json")
    if os.path.exists(timing_path):
        values.update(_typed_fields(timing_path, _read_json_object(timing_path),
                                    TIMING_FIELDS))
    return ResultRecord(**values)


def summary_rows(records):
    """One ``SUMMARY_COLUMNS`` row per record and task index: the record's
    fields of those names, and that row of its accuracy matrix."""
    return [{**{c: getattr(r, c, None) for c in SUMMARY_COLUMNS},
             "task_index": k, "acc_row": ";".join(str(a) for a in row)}
            for r in records for k, row in enumerate(r.acc_matrix, start=1)]


def write_csv(path, columns, rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns))
    writer.writeheader()
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def execute_run(config, out_dir=None, stream=None):
    """Run every seed; write per-seed records plus summary.csv; return records."""
    out_dir = out_dir if out_dir is not None else config.out_dir
    stream = stream if stream is not None else build_stream(config)
    task_capacity(stream, config)  # a too-small k_max fails before any write
    run_dir = os.path.join(out_dir, run_dir_name(config))
    atomic_write_text(os.path.join(run_dir, "config.txt"),
                      serialize_config(config))
    records = []
    for seed in config.seeds:
        record = run_single(config, seed, stream=stream)
        write_record(os.path.join(run_dir, f"seed-{seed}"), record)
        records.append(record)
    write_csv(os.path.join(run_dir, "summary.csv"), SUMMARY_COLUMNS,
              summary_rows(records))
    return records


def seed_stats(records):
    """The ``STATS_COLUMNS`` row of a set of seed-runs: their count, the
    mean and (population) std of final ACC and FM, and the mean final LA,
    read from each record's accuracy matrix."""
    accs = np.array([r.final_acc for r in records], dtype=np.float64)
    fms = np.array([r.final_fm for r in records], dtype=np.float64)
    las = np.array([la(AccuracyMatrix.from_rows(r.acc_matrix),
                       len(r.acc_matrix)) for r in records], dtype=np.float64)
    return {"n_seeds": len(records),
            "mean_acc": float(accs.mean()), "std_acc": float(accs.std()),
            "mean_fm": float(fms.mean()), "std_fm": float(fms.std()),
            "mean_la": float(las.mean())}


# -- sweeps, grid, ablations ------------------------------------------------------------


SWEEP_AXES = {
    "memory": ("memory_budget", MEMORY_SWEEP_VALUES),
    "lambda": ("lambda3", LAMBDA3_SWEEP_VALUES),
}


def _checked_values(name, values, allowed):
    """``values`` as a list, if they form a non-empty list (or tuple) of
    ``allowed`` values with none repeated; otherwise fails naming ``name``."""
    if not isinstance(values, (list, tuple)):
        raise ConfigurationError(
            f"{name} takes a list of values, got {values!r}")
    if not values:
        raise ConfigurationError(f"{name} needs at least one value")
    for v in values:
        if v not in allowed:
            raise ConfigurationError(f"{name} accepts {allowed}, got {v!r}")
        if values.count(v) > 1:
            raise ConfigurationError(f"{name} has the value {v!r} twice")
    return list(values)


def _run_set(path, variants):
    """One ``execute_run`` per (columns, config) of ``variants``; writes
    ``path``, a row of columns and seed stats per variant, and returns (rows,
    records per variant)."""
    table = [execute_run(cfg) for _, cfg in variants]
    rows = [{**columns, **seed_stats(records)}
            for (columns, _), records in zip(variants, table)]
    write_csv(path, (*variants[0][0], *STATS_COLUMNS), rows)
    return rows, table


def sweep(config, axis, values=None):
    """One run-set per axis value; returns {value: records} and writes
    ``sweep-<axis>.csv``. Keys and rows hold each value as the config
    holds it (``memory_budget`` 50.0 is 50)."""
    if axis not in SWEEP_AXES:
        raise ConfigurationError(
            f"sweep axis must be one of {sorted(SWEEP_AXES)}, got {axis!r}")
    field_name, canonical = SWEEP_AXES[axis]
    values = _checked_values(f"{axis} sweep",
                             canonical if values is None else values, canonical)
    configs = [replace(config, **{field_name: v}) for v in values]
    rows, table = _run_set(
        os.path.join(config.out_dir, f"sweep-{axis}.csv"),
        [({"axis": axis, "value": getattr(cfg, field_name)}, cfg)
         for cfg in configs])
    return {row["value"]: records for row, records in zip(rows, table)}


def grid(config, space=None):
    """Grid search on a stream rebuilt with ``n_tasks = GRID_TASKS``,
    restricted to known values.

    On a synthetic split stream that is not the run stream's first tasks.
    ``make_synthetic`` draws every class centre, then every class's
    samples, from one RNG, so its grid tasks share the run stream's first
    centres but not its samples. A permuted stream's and an IDX split
    stream's are the run stream's first tasks. ROADMAP item 4 plans a true
    prefix.

    Returns (best_combo, rows) where best is the first combo of highest mean
    final accuracy; writes ``grid.csv`` (the axes, sorted, then the stats).
    Every combination's config is made, and so checked, before it runs, as
    a sweep value does.
    """
    space = dict(GRID_SPACE if space is None else space)
    if not space:
        raise ConfigurationError("the grid space names no axis")
    for key, values in space.items():
        if key not in GRID_SPACE:
            raise ConfigurationError(f"unknown grid axis {key!r}")
        space[key] = _checked_values(f"grid axis {key}", values,
                                     GRID_SPACE[key])
    base = replace(config, n_tasks=min(GRID_TASKS, config.n_tasks))
    keys = sorted(space)
    configs = [replace(base, **dict(zip(keys, values)))
               for values in itertools.product(*(space[key] for key in keys))]
    rows, _ = _run_set(
        os.path.join(config.out_dir, "grid.csv"),
        [({key: getattr(cfg, key) for key in keys}, cfg) for cfg in configs])
    best = max(rows, key=lambda row: row["mean_acc"])
    return {key: best[key] for key in keys}, rows


def ablate(config, modes=ABLATION_MODES):
    """Run every ablation of the full method; returns {mode: records} and
    writes ``ablations.csv``."""
    modes = _checked_values("ablation", modes, ABLATION_MODES)
    _, table = _run_set(
        os.path.join(config.out_dir, "ablations.csv"),
        [({"ablation": mode}, replace(config, method="scale", ablation=mode))
         for mode in modes])
    return dict(zip(modes, table))


# -- reporting ----------------------------------------------------------------------------


def find_records(result_dir):
    records = []
    for root, _dirs, files in os.walk(result_dir):
        if "record.json" in files:
            records.append(load_record(root))
    records.sort(key=lambda r: (r.method, r.ablation, r.config_hash, r.seed))
    return records


def report(result_dir):
    """Aggregate every record under ``result_dir`` into one mean±std line per
    run (config hash), named by its run directory: ACC and FM mean±std, mean
    LA, and the mean seconds per seed-run over the records that have a
    timing.json.

    Returns (text, rows); also writes report.csv next to the records.
    """
    records = find_records(result_dir)
    if not records:
        raise NoDataError(f"no record.json files under {result_dir}")
    rows = []  # one per run: find_records keeps a run's records together
    for _, group in itertools.groupby(records, lambda r: r.config_hash):
        group = list(group)
        timed = [r.wall_s for r in group if r.wall_s is not None]
        r = group[0]
        rows.append({"run": run_name(r.method, r.ablation, r.config_hash),
                     "method": r.method, "ablation": r.ablation,
                     **seed_stats(group),
                     "mean_seed_run_s": float(np.mean(timed)) if timed else None})
    write_csv(os.path.join(result_dir, "report.csv"),
              ("run", "method", "ablation") + STATS_COLUMNS
              + ("mean_seed_run_s",), rows)
    header = (f"{'run':<24} {'n':>3} {'ACC':>15} {'FM':>15} {'LA':>6}"
              f" {'s/seed-run':>10}")
    lines = [header, "-" * len(header)]
    for row in rows:
        acc_txt = f"{row['mean_acc']:.4f}±{row['std_acc']:.4f}"
        fm_txt = f"{row['mean_fm']:.4f}±{row['std_fm']:.4f}"
        seconds = row["mean_seed_run_s"]
        time_txt = "-" if seconds is None else f"{seconds:.3f}"
        lines.append(f"{row['run']:<24} {row['n_seeds']:>3} {acc_txt:>15}"
                     f" {fm_txt:>15} {row['mean_la']:>6.4f} {time_txt:>10}")
    return "\n".join(lines), rows
