"""Task-stream construction: split and permuted protocols, a synthetic
desk-scale generator, and an IDX-format ingester.

Split streams give each task its own disjoint label set (task-incremental);
permuted streams share one label set and permute input dimensions per task
(domain-incremental). The synthetic generator builds Gaussian class clusters
that are linearly separable at noise scale zero.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


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


def make_split_stream(base, classes_per_task, train_limit=None,
                      test_limit=None, seed=0):
    """Partition classes in label order into consecutive disjoint tasks.

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
    rng = np.random.default_rng([seed, 60])
    tasks = []
    n_tasks = base.n_classes // classes_per_task
    for k in range(1, n_tasks + 1):
        labels = tuple(range((k - 1) * classes_per_task, k * classes_per_task))

        def pick(split, name, limit):
            rows = np.flatnonzero(np.isin(split.y, labels))
            if not len(rows):
                raise ConfigurationError(
                    f"task {k} (classes {list(labels)}) has no {name} rows")
            if limit is not None and limit < len(rows):
                rows = rows[rng.choice(len(rows), size=limit, replace=False)]
            x = split.x[rows].reshape(len(rows), -1).astype(np.float64)
            y = split.y[rows] - labels[0]
            return Split(x, y.astype(np.int64))

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
    train_x = base.train.x.reshape(len(base.train.x), -1).astype(np.float64)
    test_x = base.test.x.reshape(len(base.test.x), -1).astype(np.float64)
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
        stream = make_split_stream(base, config.classes_per_task)
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


# -- IDX ingestion -------------------------------------------------------------


def _read_exact(f, n, path, what):
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"{path}: truncated {what}: wanted {n} bytes, "
                          f"got {len(data)}")
    return data


def _open_idx(path):
    # MNIST-style downloads arrive gzipped; accept them as-is
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def load_idx(path):
    """Parse one IDX file (plain or .gz): images scaled to [0,1], or labels."""
    with _open_idx(path) as f:
        magic = struct.unpack(">I", _read_exact(f, 4, path, "magic"))[0]
        if magic == IDX_IMAGES_MAGIC:
            ndim = 3
        elif magic == IDX_LABELS_MAGIC:
            ndim = 1
        else:
            raise FormatError(f"{path}: bad magic 0x{magic:08x}; expected "
                              f"0x{IDX_IMAGES_MAGIC:08x} (images) or "
                              f"0x{IDX_LABELS_MAGIC:08x} (labels)")
        dims = [struct.unpack(">I", _read_exact(f, 4, path, "dimension"))[0]
                for _ in range(ndim)]
        count = int(np.prod(dims))
        payload = _read_exact(f, count, path, "payload")
        extra = f.read(1)
        if extra:
            raise FormatError(f"{path}: trailing bytes after payload")
    data = np.frombuffer(payload, dtype=np.uint8).reshape(dims)
    if magic == IDX_IMAGES_MAGIC:
        return data.astype(np.float64) / 255.0
    return data.astype(np.int64)


def load_idx_dataset(train_images, train_labels, test_images, test_labels):
    """Assemble a Dataset from four IDX files, flattening image grids."""
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


def subsample(dataset, train_limit=None, test_limit=None, seed=0):
    """Seeded without-replacement subsample of both splits (for smoke runs)."""
    rng = np.random.default_rng([seed, 60])

    def cut(split, limit):
        if limit is None or limit >= len(split.x):
            return split
        idx = rng.choice(len(split.x), size=limit, replace=False)
        return Split(split.x[idx], split.y[idx])

    return Dataset(train=cut(dataset.train, train_limit),
                   test=cut(dataset.test, test_limit),
                   n_classes=dataset.n_classes)
