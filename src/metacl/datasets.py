"""Task-stream construction: split and permuted protocols, a synthetic
desk-scale generator, and IDX-format streams (the MNIST file layout).

Split streams give each task its own disjoint label set (task-incremental);
permuted streams share one label set and permute input dimensions per task
(domain-incremental). The synthetic generator builds Gaussian class clusters
that are linearly separable at noise scale zero.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
IDX_NAMES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
             "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


@dataclass
class Split:
    x: np.ndarray
    y: np.ndarray

    def __len__(self):
        return len(self.x)


@dataclass
class Task:
    task_id: int
    train: Split
    test: Split
    label_set: tuple
    n_classes: int


@dataclass
class TaskStream:
    tasks: list
    protocol: str
    classes_per_task: int
    input_dim: int

    def __len__(self):
        return len(self.tasks)


@dataclass
class TaskBatch:
    x: np.ndarray
    y: np.ndarray
    task_id: int

    def __len__(self):
        return len(self.x)


@dataclass(frozen=True)
class Dataset:
    """A base labeled dataset with train and test splits."""

    train: Split
    test: Split
    n_classes: int

    @property
    def input_dim(self):
        return int(np.prod(self.train.x.shape[1:]))


def standardize(train_x, test_x):
    """Affine per-feature map fitted on train only: train lands in [0, 1].

    The same offset and scale are reused on the test split, so test values
    may fall slightly outside [0, 1]; they are not clipped.
    """
    lo = train_x.min(axis=0)
    span = np.maximum(train_x.max(axis=0) - lo, 1e-12)
    return (train_x - lo) / span, (test_x - lo) / span


def _gaussian_base(n_classes, train_per_class, test_per_class, input_dim,
                   center_scale, noise_scale, rng):
    centers = center_scale * rng.normal(size=(n_classes, input_dim)) / np.sqrt(input_dim)

    def draw(per_class):
        xs, ys = [], []
        for c in range(n_classes):
            xs.append(centers[c] + noise_scale * rng.normal(size=(per_class, input_dim)))
            ys.append(np.full(per_class, c, dtype=np.int64))
        return Split(np.concatenate(xs), np.concatenate(ys))

    return Dataset(train=draw(train_per_class), test=draw(test_per_class),
                   n_classes=n_classes)


def _cut(split, rows, limit, rng):
    """``split``'s ``rows``, or ``limit`` of them drawn without replacement
    by ``rng`` when there are more: the one seeded cut of a stream."""
    if limit is not None and limit < len(rows):
        rows = rows[rng.choice(len(rows), size=limit, replace=False)]
    return Split(split.x[rows], split.y[rows])


def _float_rows(x):
    """The rows a stream keeps, flattened, as a float64 copy: IDX pixels
    scaled to [0, 1], float rows as they are."""
    x = x.reshape(len(x), -1)
    if x.dtype == np.uint8:
        return x / 255.0
    return x.astype(np.float64)


def make_split_stream(base, classes_per_task, n_tasks, train_limit=None,
                      test_limit=None, seed=0):
    """Partition classes in label order into consecutive disjoint tasks,
    and build the first ``n_tasks`` of them; fewer class groups fail
    before any is cut.

    Within a task, labels are remapped to 0..classes_per_task-1. A task
    with no train or no test rows fails, naming the task and the split.
    ``train_limit`` / ``test_limit`` cut each task's splits to that many
    rows, drawn without replacement by ``default_rng([seed, 60])`` task by
    task, train then test, so a task's rows do not depend on the tasks
    after it; only the rows kept are copied.
    """
    if base.n_classes % classes_per_task != 0:
        raise ConfigurationError(
            f"{base.n_classes} classes are not divisible into tasks of "
            f"{classes_per_task}")
    if n_tasks < 1:
        raise ConfigurationError("n_tasks must be >= 1")
    groups = base.n_classes // classes_per_task
    if groups < n_tasks:
        raise ConfigurationError(
            f"n_tasks={n_tasks}, but the split stream of {base.n_classes} "
            f"classes makes only {groups} tasks")
    rng = np.random.default_rng([seed, 60])
    tasks = []
    for k in range(1, n_tasks + 1):
        labels = tuple(range((k - 1) * classes_per_task, k * classes_per_task))

        def pick(split, name, limit):
            rows = np.flatnonzero(np.isin(split.y, labels))
            if not len(rows):
                raise ConfigurationError(
                    f"task {k} (classes {list(labels)}) has no {name} rows")
            kept = _cut(split, rows, limit, rng)
            return Split(_float_rows(kept.x),
                         (kept.y - labels[0]).astype(np.int64))

        tasks.append(Task(task_id=k,
                          train=pick(base.train, "train", train_limit),
                          test=pick(base.test, "test", test_limit),
                          label_set=labels, n_classes=classes_per_task))
    return TaskStream(tasks=tasks, protocol="split",
                      classes_per_task=classes_per_task,
                      input_dim=base.input_dim)


def make_permuted_stream(base, n_tasks, seed=0):
    """One task per fixed random pixel permutation; task 1 is the identity."""
    if n_tasks < 1:
        raise ConfigurationError("n_tasks must be >= 1")
    rng = np.random.default_rng([seed, 30])
    dim = base.input_dim
    train_x = _float_rows(base.train.x)
    test_x = _float_rows(base.test.x)
    labels = tuple(range(base.n_classes))
    tasks = []
    for k in range(1, n_tasks + 1):
        perm = np.arange(dim) if k == 1 else rng.permutation(dim)
        tasks.append(Task(
            task_id=k,
            train=Split(train_x[:, perm], base.train.y.astype(np.int64).copy()),
            test=Split(test_x[:, perm], base.test.y.astype(np.int64).copy()),
            label_set=labels, n_classes=base.n_classes))
    return TaskStream(tasks=tasks, protocol="permuted",
                      classes_per_task=base.n_classes, input_dim=dim)


def make_synthetic(config):
    """Gaussian cluster stream for a ``RunConfig``'s data fields, under its
    protocol; deterministic in ``data_seed``.

    Under the split protocol the stream has n_tasks * classes_per_task
    distinct classes; under the permuted protocol classes_per_task classes
    are shared and each task permutes the input dimensions.
    """
    rng = np.random.default_rng([config.data_seed, 50])
    cluster_args = (config.train_per_class, config.test_per_class,
                    config.input_dim, config.center_scale,
                    config.noise_scale)
    if config.protocol == "split":
        base = _gaussian_base(config.n_tasks * config.classes_per_task,
                              *cluster_args, rng)
        stream = make_split_stream(base, config.classes_per_task,
                                   config.n_tasks)
        for task in stream.tasks:
            task.train.x, task.test.x = standardize(task.train.x, task.test.x)
        return stream
    base = _gaussian_base(config.classes_per_task, *cluster_args, rng)
    train_x, test_x = standardize(
        base.train.x.reshape(len(base.train.x), -1),
        base.test.x.reshape(len(base.test.x), -1))
    base = Dataset(train=Split(train_x, base.train.y),
                   test=Split(test_x, base.test.y), n_classes=base.n_classes)
    return make_permuted_stream(base, config.n_tasks, seed=config.data_seed)


def batches(split, batch_size, seed, task_id=0):
    """One seeded shuffle, then sequential batches covering every sample once.

    The final batch may be short. Yields TaskBatch objects carrying task_id.
    """
    if batch_size < 1:
        raise ConfigurationError("batch_size must be >= 1")
    order = np.random.default_rng(seed).permutation(len(split.x))
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        yield TaskBatch(x=split.x[idx], y=split.y[idx], task_id=task_id)


# -- IDX streams ---------------------------------------------------------------


def make_idx_stream(config):
    """IDX image stream for a ``RunConfig``'s data fields, under its
    protocol: the ``IDX_NAMES`` files under ``idx_dir``, each plain, else
    ``.gz``. ``train_per_task`` / ``test_per_task`` (0 keeps every row) cut
    each task of a split stream, and the base a permuted stream's tasks
    share, drawing from ``default_rng([data_seed, 60])`` train then test.
    A split stream builds only its first ``n_tasks`` class groups."""
    paths = [os.path.join(config.idx_dir, name) for name in IDX_NAMES]
    # downloads usually keep the .gz suffix; prefer the plain file if both exist
    base = load_idx_dataset(*(p + ".gz" if not os.path.exists(p)
                              and os.path.exists(p + ".gz") else p
                              for p in paths))
    limits = (config.train_per_task or None, config.test_per_task or None)
    if config.protocol == "permuted":  # the tasks share the cut base's rows
        rng = np.random.default_rng([config.data_seed, 60])
        train, test = (_cut(split, np.arange(len(split)), limit, rng)
                       for split, limit in zip((base.train, base.test), limits))
        base = Dataset(train, test, base.n_classes)
        return make_permuted_stream(base, config.n_tasks, seed=config.data_seed)
    return make_split_stream(base, config.classes_per_task, config.n_tasks,
                             *limits, seed=config.data_seed)


def load_idx(path):
    """Parse one IDX file (plain or .gz): images as the file's uint8 pixels
    (read-only; streams scale the rows they keep to [0, 1]), or int64
    labels. A payload other than the header's size fails as
    ``FormatError`` naming both sizes."""
    # MNIST-style downloads arrive gzipped; accept them as-is
    with (gzip.open if str(path).endswith(".gz") else open)(path, "rb") as f:
        raw = f.read()
    magic = int.from_bytes(raw[:4], "big")
    ndim = {IDX_IMAGES_MAGIC: 3, IDX_LABELS_MAGIC: 1}.get(magic)
    if ndim is None:
        raise FormatError(f"{path}: bad magic 0x{magic:08x}; expected "
                          f"0x{IDX_IMAGES_MAGIC:08x} (images) or "
                          f"0x{IDX_LABELS_MAGIC:08x} (labels)")
    start = 4 + 4 * ndim
    if len(raw) < start:
        raise FormatError(f"{path}: truncated header: {ndim} dimensions need "
                          f"{start} bytes, the file holds {len(raw)}")
    dims = struct.unpack_from(f">{ndim}I", raw, 4)
    count = math.prod(dims)  # Python ints: a header's size cannot wrap
    if len(raw) - start != count:
        fault = ("truncated payload" if len(raw) - start < count
                 else "trailing bytes after payload")
        raise FormatError(f"{path}: {fault}: the header gives {count} bytes, "
                          f"the file holds {len(raw) - start}")
    data = np.frombuffer(raw, dtype=np.uint8, offset=start).reshape(dims)
    return data if magic == IDX_IMAGES_MAGIC else data.astype(np.int64)


def load_idx_dataset(train_images, train_labels, test_images, test_labels):
    """Assemble a Dataset from four IDX files, flattening image grids; the
    pixels stay uint8."""
    def pair(images_path, labels_path):
        x = load_idx(images_path)
        y = load_idx(labels_path)
        if x.ndim != 3:
            raise FormatError(f"{images_path}: expected an image file")
        if y.ndim != 1:
            raise FormatError(f"{labels_path}: expected a label file")
        if len(x) != len(y):
            raise FormatError(
                f"{images_path} has {len(x)} images but {labels_path} has "
                f"{len(y)} labels")
        if not len(x):
            raise FormatError(f"{images_path} and {labels_path} hold no items")
        return Split(x.reshape(len(x), -1), y)

    train = pair(train_images, train_labels)
    test = pair(test_images, test_labels)
    n_classes = int(max(train.y.max(), test.y.max())) + 1
    return Dataset(train=train, test=test, n_classes=n_classes)
