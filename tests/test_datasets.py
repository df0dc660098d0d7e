"""Stream construction tests: protocols, batching, IDX parsing and streams."""

import gzip
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metacl.config import RunConfig
from metacl.datasets import (
    IDX_NAMES,
    Dataset,
    Split,
    batches,
    load_idx,
    load_idx_dataset,
    make_idx_stream,
    make_permuted_stream,
    make_split_stream,
    make_synthetic,
    standardize,
)
from metacl.errors import ConfigurationError, FormatError


def toy_base(n_classes=4, per_class=6, dim=5, seed=0):
    rng = np.random.default_rng(seed)

    def split(n):
        x = rng.normal(size=(n_classes * n, dim))
        y = np.repeat(np.arange(n_classes), n)
        return Split(x, y)

    return Dataset(train=split(per_class), test=split(per_class // 2),
                   n_classes=n_classes)


# -- split protocol ---------------------------------------------------------------


def test_split_label_sets_partition_in_order():
    base = toy_base(n_classes=10)
    stream = make_split_stream(base, classes_per_task=2, n_tasks=5)
    assert [t.label_set for t in stream.tasks] == [
        (0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
    union = set()
    for t in stream.tasks:
        assert union.isdisjoint(t.label_set)
        union.update(t.label_set)
    assert union == set(range(10))


def test_split_remaps_labels_within_task():
    base = toy_base(n_classes=4)
    stream = make_split_stream(base, classes_per_task=2, n_tasks=2)
    for t in stream.tasks:
        assert set(np.unique(t.train.y)) == {0, 1}
        assert set(np.unique(t.test.y)) == {0, 1}


def test_split_indivisible_classes_rejected():
    with pytest.raises(ConfigurationError):
        make_split_stream(toy_base(n_classes=10), classes_per_task=3,
                          n_tasks=3)


def test_split_rejects_zero_tasks():
    with pytest.raises(ConfigurationError, match="n_tasks must be >= 1"):
        make_split_stream(toy_base(n_classes=4), classes_per_task=2,
                          n_tasks=0)


# -- permuted protocol -------------------------------------------------------------


def test_permuted_first_task_is_identity():
    base = toy_base()
    stream = make_permuted_stream(base, n_tasks=3, seed=1)
    flat = base.train.x.reshape(len(base.train.x), -1)
    assert np.array_equal(stream.tasks[0].train.x, flat)


def test_permuted_tasks_share_labels():
    base = toy_base(n_classes=3)
    stream = make_permuted_stream(base, n_tasks=4, seed=1)
    assert all(t.label_set == (0, 1, 2) for t in stream.tasks)
    for t in stream.tasks[1:]:
        assert np.array_equal(t.train.y, stream.tasks[0].train.y)


def test_permuted_tasks_use_distinct_permutations():
    base = toy_base(dim=30)
    stream = make_permuted_stream(base, n_tasks=4, seed=1)
    first = stream.tasks[0].train.x
    for t in stream.tasks[1:]:
        assert not np.array_equal(t.train.x, first)
        assert np.array_equal(np.sort(t.train.x[0]), np.sort(first[0]))


def test_permutation_group_round_trip():
    rng = np.random.default_rng(3)
    perm = rng.permutation(16)
    inverse = np.argsort(perm)
    x = rng.normal(size=16)
    twice = x[perm][perm]
    back = twice[inverse][inverse]
    assert np.array_equal(back, x)


def test_permuted_rejects_zero_tasks():
    with pytest.raises(ConfigurationError):
        make_permuted_stream(toy_base(), n_tasks=0)


# -- synthetic generator ---------------------------------------------------------------


def synthetic(**kw):
    """The synthetic stream of a RunConfig, at the sizes and spread these
    tests were written for: 200/100 samples per class, centre scale 3.0."""
    kw = {"train_per_class": 200, "test_per_class": 100, "center_scale": 3.0,
          **kw}
    return make_synthetic(RunConfig(**kw))


def test_synthetic_default_desk_shape():
    stream = make_synthetic(RunConfig())
    assert len(stream) == 5
    assert stream.classes_per_task == 2
    assert stream.input_dim == 32
    for t in stream.tasks:
        assert t.train.x.shape == (200, 32)
        assert t.test.x.shape == (100, 32)


def test_synthetic_deterministic():
    a = synthetic(data_seed=5)
    b = synthetic(data_seed=5)
    c = synthetic(data_seed=6)
    for ta, tb in zip(a.tasks, b.tasks):
        assert np.array_equal(ta.train.x, tb.train.x)
        assert np.array_equal(ta.test.y, tb.test.y)
    assert not np.array_equal(a.tasks[0].train.x, c.tasks[0].train.x)


def test_synthetic_noise_zero_is_separable():
    stream = synthetic(noise_scale=0.0, train_per_class=20, test_per_class=10)
    for t in stream.tasks:
        centroids = np.stack([t.train.x[t.train.y == c].mean(axis=0)
                              for c in range(t.n_classes)])
        dists = ((t.test.x[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assert np.mean(dists.argmin(axis=1) == t.test.y) == 1.0


def test_synthetic_permuted_protocol():
    stream = synthetic(protocol="permuted", n_tasks=4)
    assert stream.protocol == "permuted"
    assert len(stream) == 4
    assert all(t.label_set == (0, 1) for t in stream.tasks)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=2, max_value=4),
       st.sampled_from(["split", "permuted"]),
       st.integers(min_value=0, max_value=1000))
def test_stream_invariants_property(n_tasks, cpt, protocol, seed):
    stream = synthetic(n_tasks=n_tasks, classes_per_task=cpt,
                       train_per_class=8, test_per_class=4, input_dim=6,
                       protocol=protocol, data_seed=seed)
    if protocol == "split":
        seen = set()
        for t in stream.tasks:
            assert seen.isdisjoint(t.label_set)
            seen.update(t.label_set)
    else:
        assert len({t.label_set for t in stream.tasks}) == 1
    for t in stream.tasks:
        train_rows = {row.tobytes() for row in t.train.x}
        test_rows = {row.tobytes() for row in t.test.x}
        assert not train_rows & test_rows


def test_standardization_train_only_stats():
    rng = np.random.default_rng(0)
    train = rng.normal(size=(50, 4)) * 3 + 1
    test = rng.normal(size=(20, 4)) * 3 + 1
    s_train, s_test = standardize(train, test)
    assert np.allclose(s_train.min(axis=0), 0.0)
    assert np.allclose(s_train.max(axis=0), 1.0)
    lo = train.min(axis=0)
    span = train.max(axis=0) - lo
    assert np.allclose(s_test, (test - lo) / span)


def test_stream_train_splits_standardized():
    stream = synthetic()
    for t in stream.tasks:
        assert np.allclose(t.train.x.min(axis=0), 0.0)
        assert np.allclose(t.train.x.max(axis=0), 1.0)


# -- batching -------------------------------------------------------------------------


def test_batches_count_and_sizes():
    split = Split(np.arange(1000 * 2, dtype=np.float64).reshape(1000, 2),
                  np.zeros(1000, dtype=np.int64))
    got = list(batches(split, 64, seed=0))
    assert len(got) == 16
    assert [len(b) for b in got[:15]] == [64] * 15
    assert len(got[15]) == 40


def test_batches_cover_split_exactly():
    rng = np.random.default_rng(1)
    split = Split(rng.normal(size=(37, 3)), rng.integers(0, 2, size=37))
    got = list(batches(split, 8, seed=4, task_id=2))
    x_all = np.concatenate([b.x for b in got])
    assert x_all.shape == split.x.shape
    assert {row.tobytes() for row in x_all} == {row.tobytes() for row in split.x}
    assert all(b.task_id == 2 for b in got)


def test_batches_deterministic_by_seed():
    split = Split(np.random.default_rng(0).normal(size=(20, 2)),
                  np.zeros(20, dtype=np.int64))
    a = [b.x for b in batches(split, 6, seed=9)]
    b = [b.x for b in batches(split, 6, seed=9)]
    c = [b.x for b in batches(split, 6, seed=10)]
    assert all(np.array_equal(i, j) for i, j in zip(a, b))
    assert not all(np.array_equal(i, j) for i, j in zip(a, c))


def test_batches_rejects_bad_size():
    split = Split(np.zeros((4, 2)), np.zeros(4, dtype=np.int64))
    with pytest.raises(ConfigurationError):
        list(batches(split, 0, seed=0))


# -- IDX parsing -------------------------------------------------------------------------


def write_idx_images(path, arr):
    arr = np.asarray(arr, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, *arr.shape))
        f.write(arr.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(labels.tobytes())


def test_idx_images_round_trip(tmp_path):
    arr = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    arr[0, 0, 0] = 255
    path = tmp_path / "imgs.idx"
    write_idx_images(path, arr)
    got = load_idx(path)
    assert got.dtype == np.uint8
    assert got.shape == (2, 3, 4)
    assert got[0, 0, 0] == 255
    assert np.array_equal(got, arr)


def test_idx_labels_round_trip(tmp_path):
    path = tmp_path / "labels.idx"
    write_idx_labels(path, [3, 1, 4, 1])
    got = load_idx(path)
    assert got.dtype == np.int64
    assert got.tolist() == [3, 1, 4, 1]


def test_idx_gzipped_round_trip(tmp_path):
    import gzip

    arr = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    plain = tmp_path / "imgs.idx"
    write_idx_images(plain, arr)
    zipped = tmp_path / "imgs.idx.gz"
    zipped.write_bytes(gzip.compress(plain.read_bytes()))
    assert np.array_equal(load_idx(zipped), load_idx(plain))


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">I", 0x00000999) + b"\x00" * 8)
    with pytest.raises(FormatError, match="bad magic"):
        load_idx(path)


def test_idx_truncated_payload(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 3, 4) + b"\x00" * 10)
    with pytest.raises(FormatError, match="truncated"):
        load_idx(path)


def test_idx_truncated_header(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">II", 0x00000803, 2))
    with pytest.raises(FormatError, match="truncated header: 3 dimensions"):
        load_idx(path)


def test_idx_trailing_bytes(tmp_path):
    path = tmp_path / "long.idx"
    path.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\x00" * 3)
    with pytest.raises(FormatError, match="trailing"):
        load_idx(path)


# headers whose size the file does not hold: 2^50 pixels made numpy ask
# for that much memory, and 2^93 wrapped to 0 in np.prod
HUGE_HEADERS = {
    "2^50 pixels, 10 bytes": ((2**20, 2**20, 2**10), 10),
    "2^93 pixels, no bytes": ((2**31,) * 3, 0),
    "2^93 pixels, 10 bytes": ((2**31,) * 3, 10),
}


@pytest.mark.parametrize("gz", [False, True])
@pytest.mark.parametrize("header", sorted(HUGE_HEADERS))
def test_idx_header_beyond_the_file_is_truncated(tmp_path, header, gz):
    dims, n = HUGE_HEADERS[header]
    raw = struct.pack(">IIII", 0x00000803, *dims) + b"\x00" * n
    path = tmp_path / ("huge.idx.gz" if gz else "huge.idx")
    path.write_bytes(gzip.compress(raw) if gz else raw)
    with pytest.raises(FormatError, match=(
            f"^{re.escape(str(path))}: truncated payload: the header gives "
            f"{math.prod(dims)} bytes, the file holds {n}$")):
        load_idx(path)


def test_idx_count_mismatch(tmp_path):
    imgs = tmp_path / "imgs.idx"
    labels = tmp_path / "labels.idx"
    write_idx_images(imgs, np.zeros((3, 2, 2), dtype=np.uint8))
    write_idx_labels(labels, [0, 1])
    with pytest.raises(FormatError, match="3 images"):
        load_idx_dataset(imgs, labels, imgs, labels)


@pytest.mark.parametrize("split", ["train", "test"])
def test_idx_empty_pair_is_format_error_naming_it(tmp_path, split):
    imgs, labels = tmp_path / "imgs.idx", tmp_path / "labels.idx"
    write_idx_images(imgs, np.zeros((2, 2, 2), dtype=np.uint8))
    write_idx_labels(labels, [0, 1])
    empty_imgs, empty_labels = tmp_path / "empty.idx", tmp_path / "none.idx"
    write_idx_images(empty_imgs, np.zeros((0, 2, 2), dtype=np.uint8))
    write_idx_labels(empty_labels, [])
    pairs = {"train": (imgs, labels), "test": (imgs, labels),
             split: (empty_imgs, empty_labels)}
    with pytest.raises(FormatError, match="hold no items") as info:
        load_idx_dataset(*pairs["train"], *pairs["test"])
    assert str(empty_imgs) in str(info.value)
    assert str(empty_labels) in str(info.value)


def test_idx_dataset_assembly(tmp_path):
    imgs = tmp_path / "imgs.idx"
    labels = tmp_path / "labels.idx"
    write_idx_images(imgs, np.zeros((4, 2, 3), dtype=np.uint8))
    write_idx_labels(labels, [0, 1, 2, 1])
    ds = load_idx_dataset(imgs, labels, imgs, labels)
    assert ds.train.x.shape == (4, 6)
    assert ds.n_classes == 3
    assert ds.input_dim == 6


def write_idx_dir(d, data, gz=False):
    """The four ``IDX_NAMES`` files under ``d``, plain or gzipped, from
    {split: (images, labels)}."""
    for name, arr in zip(IDX_NAMES, (*data["train"], *data["test"])):
        path = d / name
        (write_idx_images if arr.ndim == 3 else write_idx_labels)(path, arr)
        if gz:
            (d / (name + ".gz")).write_bytes(gzip.compress(path.read_bytes()))
            path.unlink()


def idx_data(seed=0, n_classes=6):
    """30 train and 18 test 3x4 images, every class equally often, with a
    0 and a 255 pixel."""
    rng = np.random.default_rng(seed)

    def split(n):
        images = rng.integers(0, 256, size=(n, 3, 4), dtype=np.uint8)
        images[0, 0, :2] = (0, 255)
        return images, rng.permutation(np.arange(n) % n_classes)

    return {"train": split(30), "test": split(18)}


def idx_config(d, **fields):
    return RunConfig(dataset="idx", idx_dir=str(d), classes_per_task=2,
                     n_tasks=2, data_seed=3, **fields)


def reference_idx_stream(data, config):
    """Each task's (train x, train y, test x, test y), written apart from
    the package: every pixel float64 / 255; then the cut, drawn from
    ``default_rng([data_seed, 60])`` train then test (task by task on a
    split stream); on a permuted stream then one permutation per task
    after the first from ``default_rng([data_seed, 30])``."""
    x = {s: images.reshape(len(images), -1).astype(np.float64) / 255.0
         for s, (images, _) in data.items()}
    y = {s: labels.astype(np.int64) for s, (_, labels) in data.items()}
    limit = {"train": config.train_per_task, "test": config.test_per_task}
    cut = np.random.default_rng([config.data_seed, 60])

    def keep(rows, s):
        if limit[s] == 0 or limit[s] >= len(rows):
            return rows
        return rows[cut.choice(len(rows), size=limit[s], replace=False)]

    tasks = []
    if config.protocol == "permuted":
        rows = {s: keep(np.arange(len(y[s])), s) for s in ("train", "test")}
        perms = np.random.default_rng([config.data_seed, 30])
        dim = x["train"].shape[1]
        for k in range(config.n_tasks):
            perm = perms.permutation(dim) if k else np.arange(dim)
            tasks.append([a for s in ("train", "test")
                          for a in (x[s][rows[s]][:, perm], y[s][rows[s]])])
        return tasks
    for k in range(config.n_tasks):
        first = k * config.classes_per_task
        labels = list(range(first, first + config.classes_per_task))
        task = []
        for s in ("train", "test"):
            rows = keep(np.flatnonzero(np.isin(y[s], labels)), s)
            task += [x[s][rows], y[s][rows] - first]
        tasks.append(task)
    return tasks


@pytest.mark.parametrize("gz", [False, True])
@pytest.mark.parametrize("cut", [(0, 0), (4, 2)])
@pytest.mark.parametrize("protocol", ["split", "permuted"])
def test_idx_stream_equals_its_formula(tmp_path, protocol, cut, gz):
    data = idx_data()
    write_idx_dir(tmp_path, data, gz=gz)
    config = idx_config(tmp_path, protocol=protocol, train_per_task=cut[0],
                        test_per_task=cut[1])
    got = [[t.train.x, t.train.y, t.test.x, t.test.y]
           for t in make_idx_stream(config).tasks]
    want = reference_idx_stream(data, config)
    assert len(got) == len(want) == 2
    for got_task, want_task in zip(got, want):
        for a, b in zip(got_task, want_task):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()


def test_subsample_limits_and_determinism(tmp_path):
    # a permuted stream's cut keeps that many base rows, the same ones for
    # one seed, and every row at 0
    write_idx_dir(tmp_path, idx_data())

    def base(train, test):
        task = make_idx_stream(idx_config(
            tmp_path, protocol="permuted", train_per_task=train,
            test_per_task=test)).tasks[0]
        return task.train, task.test

    (a, a_test), (b, _) = base(12, 5), base(12, 5)
    assert len(a.x) == 12 and len(a_test.x) == 5
    assert np.array_equal(a.x, b.x)
    assert len(base(0, 0)[0].x) == 30
