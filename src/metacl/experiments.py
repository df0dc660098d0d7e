"""Experiment runner: build streams, execute runs, emit records and tables.
Each file is written whole by ``atomic_write`` and read back through
``check_format`` against its one declaration; checkpoints use both too.

Output layout: one directory per run-set, ``<out>/<method>-<ablation>-<hash8>/``,
holding ``config.txt``, one ``seed-N/record.json`` per seed (byte-stable), a
``seed-N/timing.json`` side file and ``summary.csv``, as ``execute_run``
writes it for a ``run`` and for each variant of a ``sweep``, ``grid`` or
``ablate`` (``_run_set``: one stream for all variants, and one stats CSV).
Wall-clock times and each task's mean step losses live in the side file, so
records stay byte-identical across reruns. The step losses per task are
``mean_inner_loss`` (the full objective, ``losses.total_loss``),
``mean_outer_loss`` (CE + dark replay, ``losses.classification_loss``: the
outer step leaves out the alignment term) and ``mean_disc_loss``; each is
null where its step never ran: the outer step under ablation C, the
discriminator step under ablation A, and both in the replay baselines.
"""

import csv
import io
import itertools
import json
import math
import os
import re
import sys
import tempfile
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from types import MappingProxyType, NoneType, UnionType
from typing import get_args, get_origin

import numpy as np

from .config import (ABLATION_MODES, METHODS, config_hash, load_config,
                     serialize_config)
from .datasets import make_idx_stream, make_synthetic
from .errors import ConfigurationError, ContractError, FormatError, NoDataError
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
    "lambda3": LAMBDA3_SWEEP_VALUES,
}
RECORD_VERSION = 1
COUNT = {"low": 0}  # a field of counts, seeds or times
TIMING = {"timing": True}  # a ResultRecord field that timing.json holds
COUNTERS = ("inner_updates", "outer_updates", "adversarial_updates")
# a task's mean step losses, as timing.json's task_losses holds them
TASK_LOSSES = ("mean_inner_loss", "mean_outer_loss", "mean_disc_loss")
STATS_COLUMNS = ("n_seeds", "mean_acc", "std_acc", "mean_fm", "std_fm",
                 "mean_la")
SUMMARY_COLUMNS = ("method", "ablation", "seed", "task_index", "acc_row",
                   "final_acc", "final_fm", "wall_s")

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


def atomic_write_text(path, text):
    atomic_write(path, lambda f: f.write(text.encode("utf-8")))


def check_format(path, value, kind, rules=MappingProxyType({}), name=None,
                 entry=False):
    """``value``, read from ``path``, as declared by ``kind``: ``int``,
    ``float`` (an int passes; a bool is no number), ``str``, ``list[X]``,
    ``dict[str, X]``, ``dict[int, X]`` (canonical decimal keys of at most
    18 digits, as ints), ``X | None``, a bare ``list`` or ``dict`` (not
    walked), or a dataclass or tuple of its fields: an object of exactly
    those keys, each by its field's annotation and metadata. ``rules`` (the
    metadata) hold at every level below: ``low`` and ``high`` bound numbers
    (finite), ``values`` and ``pattern`` allow values, ``keys`` fix an
    object's keys, and a ``check`` takes the whole value instead, returning
    what it loads to. A fault fails as ``FormatError`` naming path and field."""
    at = f"{path}: field {name}:" if name else f"{path}:"
    options = get_args(kind) if isinstance(kind, UnionType) else (kind,)
    if value is None and NoneType in options:
        return None
    if "check" in rules:
        try:
            return rules["check"](value)
        except (ContractError, OverflowError, TypeError, ValueError) as exc:
            raise FormatError(f"{at} {exc}") from exc
    base = fields(options[0]) if is_dataclass(options[0]) else options[0]
    origin = dict if isinstance(base, tuple) else get_origin(base) or base
    if isinstance(value, bool) or not isinstance(
            value, (int, float) if origin is float else origin):
        want = ("an object" if isinstance(base, tuple)
                else getattr(kind, "__name__", kind))
        got = f"entry {value!r} is" if entry else "holds"
        raise FormatError(f"{at} {got} {type(value).__name__}, not {want}")
    low, high = rules.get("low", -math.inf), rules.get("high", math.inf)
    if origin in (int, float) and not (
            low <= value <= high and abs(value) <= sys.float_info.max):
        raise FormatError(f"{at} {value!r} is outside [{low}, {high}]")
    if "values" in rules and value not in rules["values"]:
        raise FormatError(f"{at} {value!r} is not one of {rules['values']}")
    if "pattern" in rules and not re.fullmatch(rules["pattern"], value):
        raise FormatError(f"{at} {value!r} does not match {rules['pattern']}")
    if origin is list and (args := get_args(base)):
        return [check_format(path, v, args[0], rules, name, True)
                for v in value]
    if isinstance(base, tuple):  # each field by its own declaration
        keys = [f.name for f in base]
        out = {f.name: check_format(path, value[f.name], f.type, f.metadata,
                                    f"{name}.{f.name}" if name else f.name)
               for f in base if f.name in value}
    elif origin is dict and (args := get_args(base)):
        keys, out = rules.get("keys", value), {}
        for k, v in value.items():
            if args[0] is int and not re.fullmatch("0|-?[1-9][0-9]{,17}", k):
                raise FormatError(f"{at} key {k!r} is no canonical integer")
            out[int(k) if args[0] is int else k] = check_format(
                path, v, args[1], rules, name, True)
    else:
        return value
    missing = [k for k in keys if k not in value]
    if faults := missing or sorted(set(value) - set(keys)):
        raise FormatError(f"{at} {'missing' if missing else 'unknown'} "
                          f"fields {faults}")
    return out


# -- streams -----------------------------------------------------------------------


def build_stream(config):
    """TaskStream per the config's dataset block: ``make_synthetic`` or
    ``datasets.make_idx_stream``."""
    if config.dataset == "synthetic":
        return make_synthetic(config)
    return make_idx_stream(config)


# -- single runs -------------------------------------------------------------------


def _matrix(rows):
    """``acc_matrix``'s check: ``AccuracyMatrix.from_rows``, of a row or more."""
    matrix = AccuracyMatrix.from_rows(rows)
    if not matrix.n_rows:
        raise ValueError("holds no row")
    return matrix


@dataclass
class ResultRecord:
    """One completed run, and the declaration of the files that hold it:
    fields marked ``TIMING`` go to timing.json (``wall_s`` None if it is
    missing), the rest to record.json."""

    config_hash: str = field(metadata={"pattern": "[0-9a-f]{64}"})
    method: str = field(metadata={"values": METHODS})
    ablation: str = field(metadata={"values": ABLATION_MODES})
    seed: int = field(metadata=COUNT)
    acc_matrix: list[list[float]] = field(metadata={"check": _matrix})
    final_acc: float
    final_fm: float
    samples_seen: dict[int, int] = field(metadata=COUNT)
    counters: dict[str, int] = field(metadata={**COUNT, "keys": COUNTERS})
    record_version: int = field(default=RECORD_VERSION,
                                metadata={"values": (RECORD_VERSION,)})
    wall_s: float | None = field(default=None, metadata={**TIMING, **COUNT})
    task_wall_s: list[float] = field(default_factory=list,
                                     metadata={**TIMING, **COUNT})
    task_losses: list[dict[str, float | None]] = field(
        default_factory=list, metadata={**TIMING, "keys": TASK_LOSSES})

    def record_bytes(self):
        """The byte-stable part (no timing), as record.json holds it."""
        out = {f.name: getattr(self, f.name) for f in STABLE_FIELDS}
        out["samples_seen"] = {str(k): v for k, v in self.samples_seen.items()}
        return (json.dumps(out, sort_keys=True, indent=2) + "\n").encode("utf-8")


STABLE_FIELDS = tuple(f for f in fields(ResultRecord) if "timing" not in f.metadata)
TIMING_FIELDS = tuple(f for f in fields(ResultRecord) if "timing" in f.metadata)


def final_scores(matrix):
    """A record's (final ACC, final FM) of its matrix; FM is 0.0 below 2 rows."""
    k = matrix.n_rows
    return acc(matrix, k), fm(matrix, k) if k >= 2 else 0.0


def run_single(config, seed, stream=None):
    """Train one method for one seed; returns a ResultRecord."""
    stream = stream if stream is not None else build_stream(config)
    started = time.perf_counter()
    trainer = build_trainer(stream, config, seed)
    run_stream(trainer, stream)
    wall = time.perf_counter() - started

    state = trainer.state
    final_acc, final_fm = final_scores(state.matrix)
    return ResultRecord(
        config_hash=config_hash(config), method=config.method,
        ablation=config.ablation, seed=seed,
        acc_matrix=state.matrix.to_rows(), final_acc=final_acc,
        final_fm=final_fm, samples_seen=dict(state.samples_seen),
        counters={name: getattr(state, name) for name in COUNTERS},
        wall_s=wall, task_wall_s=list(state.task_wall_s),
        task_losses=list(state.task_losses))


# -- run sets and emission ------------------------------------------------------------


def run_name(method, ablation, config_hash):
    """``<method>-<ablation>-<hash8>``: a run-set's directory and report row."""
    return f"{method}-{ablation}-{config_hash[:8]}"


def run_dir_name(config):
    return run_name(config.method, config.ablation, config_hash(config))


def write_record(seed_dir, record):
    atomic_write_text(os.path.join(seed_dir, "record.json"),
                      record.record_bytes().decode("utf-8"))
    timing = {f.name: getattr(record, f.name) for f in TIMING_FIELDS}
    atomic_write_text(os.path.join(seed_dir, "timing.json"),
                      json.dumps(timing, sort_keys=True, indent=2) + "\n")


def _read_json(path):
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc


def load_record(seed_dir):
    """Rebuild a ResultRecord from record.json (+ timing.json if present),
    each file checked by ``check_format`` against its fields, then against
    its matrix: ``final_acc`` and ``final_fm`` are ``final_scores`` of it,
    bit for bit, ``samples_seen`` tasks its rows, and each timing list empty
    (untimed) or one entry per row; else ``FormatError`` names file, field."""
    path = os.path.join(seed_dir, "record.json")
    values = check_format(path, _read_json(path), STABLE_FIELDS)
    matrix = values["acc_matrix"]
    for name, derived in zip(("final_acc", "final_fm"), final_scores(matrix)):
        if float(values[name]).hex() != derived.hex():
            raise FormatError(f"{path}: field {name} holds {values[name]!r}, "
                              f"its acc_matrix gives {derived!r}")
    check_format(path, list(values["samples_seen"]), list[int],
                 {"low": 1, "high": matrix.n_rows}, "samples_seen")
    values["acc_matrix"] = matrix.to_rows()
    timing_path = os.path.join(seed_dir, "timing.json")
    if os.path.exists(timing_path):
        timing = check_format(timing_path, _read_json(timing_path),
                              TIMING_FIELDS)
        for name in ("task_wall_s", "task_losses"):
            if (n := len(timing[name])) not in (0, matrix.n_rows):
                raise FormatError(f"{timing_path}: field {name} holds {n} "
                                  f"entries, not one per acc_matrix row "
                                  f"({matrix.n_rows})")
        values.update(timing)
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


def _run_set(path, config, axes, fixed=(), columns=None):
    """One ``execute_run`` per combination of ``axes`` ({field: values},
    fields sorted) on ``config`` with the ``fixed`` (field, value) pairs,
    every config made (so checked) first, all on one stream: no axis is a
    field ``build_stream`` reads. Writes ``path``, a row of ``columns(cfg)``
    (default: the axes) and seed stats per variant, and returns the rows
    and each variant's records."""
    keys = sorted(axes)
    configs = [replace(config, **dict(fixed), **dict(zip(keys, values)))
               for values in itertools.product(*(axes[key] for key in keys))]
    columns = columns or (lambda cfg: {key: getattr(cfg, key) for key in keys})
    stream = build_stream(configs[0])
    table = [execute_run(cfg, stream=stream) for cfg in configs]
    rows = [{**columns(cfg), **seed_stats(records)}
            for cfg, records in zip(configs, table)]
    write_csv(path, rows[0], rows)
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
    rows, table = _run_set(
        os.path.join(config.out_dir, f"sweep-{axis}.csv"), config,
        {field_name: values},
        columns=lambda cfg: {"axis": axis, "value": getattr(cfg, field_name)})
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
    rows, _ = _run_set(os.path.join(config.out_dir, "grid.csv"), config, space,
                       fixed=[("n_tasks", min(GRID_TASKS, config.n_tasks))])
    best = max(rows, key=lambda row: row["mean_acc"])
    return {key: best[key] for key in sorted(space)}, rows


def ablate(config, modes=ABLATION_MODES):
    """Run every ablation of the full method; returns {mode: records} and
    writes ``ablations.csv``."""
    modes = _checked_values("ablation", modes, ABLATION_MODES)
    _, table = _run_set(os.path.join(config.out_dir, "ablations.csv"), config,
                        {"ablation": modes}, fixed=[("method", "scale")])
    return dict(zip(modes, table))


# -- reporting ----------------------------------------------------------------------------


def _check_run_config(seed_dir, record):
    """``FormatError`` naming both files if the run directory's config.txt
    gives another config hash, method or ablation than the record, and
    naming config.txt if ``load_config`` rejects it."""
    path = os.path.normpath(os.path.join(seed_dir, os.pardir, "config.txt"))
    if not os.path.exists(path):
        return  # a lone seed directory
    try:
        config = load_config(path)
    except ConfigurationError as exc:  # its message starts with the path
        raise FormatError(str(exc)) from exc
    for name, want in (("config_hash", config_hash(config)),
                       ("method", config.method), ("ablation", config.ablation)):
        if (got := getattr(record, name)) != want:
            raise FormatError(f"{os.path.join(seed_dir, 'record.json')}: field "
                              f"{name} holds {got!r}, but {path} gives {want!r}")


def find_records(result_dir):
    """Every record under ``result_dir``, sorted by method, ablation, config
    hash and seed. A result's identity is its config and seed: two records
    of one seed of one run (a copied run directory) fail as FormatError
    naming both seed directories, as does ``_check_run_config``."""
    found = {}
    for root, _dirs, files in sorted(os.walk(result_dir)):
        if "record.json" in files:
            record = load_record(root)
            _check_run_config(root, record)
            key = (record.config_hash, record.seed)
            if key in found:
                raise FormatError(f"seed {record.seed} of run "
                                  f"{record.config_hash} is recorded twice: "
                                  f"{found[key][0]} and {root}")
            found[key] = root, record
    return sorted((record for _, record in found.values()),
                  key=lambda r: (r.method, r.ablation, r.config_hash, r.seed))


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
