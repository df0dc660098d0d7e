"""Model components: shared feature extractor, task-conditioned parameter
generator, classifier head(s), and the task discriminator.

The parameter generator maps a task ID to per-layer scale/shift coefficient
pairs; features pass through a normalized scale-and-shift plus a residual sum,
so a zero pair leaves the features untouched.

One path runs the network, ``autodiff.TaskForward``:
``ContinualModel.task_forward`` on the classification path (trunk, FiLM,
the task's head) and ``discriminator_forward`` on the discriminator's
(plain trunk, the discriminator's two layers). Training builds one per
loss; snapshots (the discriminator's at ``n_seen``) and evaluation read
the logits of a one-group forward, which plans no backward since no loss
is built on it. The components hold parameters and say which of them a
forward takes: ``ParameterGenerator.layer`` is a layer's FiLM parameters,
``ClassifierHeads.head`` a task's head.

The op-by-op chain of the same network, one tape node per op, is the
tests' reference (``tests/reference.py``): each forward equals it group by
group, bit for bit. ``FeatureExtractor.forward``, the plain trunk op by
op, is its one remnant here; no code in the package calls it.
"""

from __future__ import annotations

import numpy as np

from .autodiff import TaskForward, Tensor, matmul, relu, task_films
from .config import TRANSFORM_MODES
from .errors import (
    CapacityError,
    ConfigurationError,
    ContractError,
    UnknownTaskError,
    check_integer,
)


def _affine(rng, fan_in, fan_out):
    bound = 1.0 / np.sqrt(fan_in)
    w = Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)
    b = Tensor(np.zeros(fan_out), requires_grad=True)
    return w, b


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


class FeatureExtractor:
    """Shared MLP trunk: ``depth`` affine+ReLU layers of ``width`` units."""

    def __init__(self, input_dim, width, depth, rng):
        self.input_dim = input_dim
        self.layers = []
        fan_in = input_dim
        for _ in range(depth):
            self.layers.append(_affine(rng, fan_in, width))
            fan_in = width

    def check_input(self, x):
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ConfigurationError(
                f"extractor expects (B, {self.input_dim}) inputs, got {x.shape}")

    def forward(self, x):
        """The trunk's features of ``x``, one node per op. No code in the
        package calls it: the benchmark counts the trunk passes made
        outside ``TaskForward`` through it, and the tests' reference chain
        (``tests/reference.py``) starts from it."""
        a = _as_tensor(x)
        self.check_input(a.data)
        for w, b in self.layers:
            a = relu(matmul(a, w) + b)
        return a

    def params(self):
        return [p for layer in self.layers for p in layer]


class ParameterGenerator:
    """Task embedding plus per-layer affine heads emitting (scale, shift).

    ``share_embedding`` gives one embedding table shared across layers;
    otherwise each layer has its own.
    """

    def __init__(self, layer_widths, embed_dim, capacity, share_embedding,
                 rng):
        self.capacity = capacity
        self.share_embedding = share_embedding
        n_tables = 1 if share_embedding else len(layer_widths)
        bound = 1.0 / np.sqrt(embed_dim)
        self.embeddings = [
            Tensor(rng.uniform(-bound, bound, size=(capacity + 1, embed_dim)),
                   requires_grad=True)
            for _ in range(n_tables)
        ]
        self.heads = [
            (_affine(rng, embed_dim, d), _affine(rng, embed_dim, d))
            for d in layer_widths
        ]

    def layer(self, layer_index):
        """(table, w_scale, b_scale, w_shift, b_shift) of one layer: its
        embedding table and (scale, shift) affine maps."""
        table = self.embeddings[0 if self.share_embedding else layer_index]
        (w_scale, b_scale), (w_shift, b_shift) = self.heads[layer_index]
        return table, w_scale, b_scale, w_shift, b_shift

    def params(self):
        out = list(self.embeddings)
        for (ws, bs), (wt, bt) in self.heads:
            out += [ws, bs, wt, bt]
        return out


class ClassifierHeads:
    """Per-task affine heads (multi-head) or one shared head (single-head)."""

    def __init__(self, feature_dim, classes_per_task, mode, rng_for_task):
        if mode not in ("multi", "single"):
            raise ConfigurationError(f"unknown head mode {mode!r}")
        self.feature_dim = feature_dim
        self.classes_per_task = classes_per_task
        self.mode = mode
        self._rng_for_task = rng_for_task
        self.heads = {}
        if mode == "single":
            self.heads[0] = _affine(self._rng_for_task(0), feature_dim, classes_per_task)

    def _key(self, task_id):
        return 0 if self.mode == "single" else task_id

    def add_head(self, task_id):
        """Register a freshly initialized head; no-op in single-head mode."""
        if self.mode == "single":
            return self.heads[0]
        if task_id in self.heads:
            raise ContractError(f"head for task {task_id} already registered")
        self.heads[task_id] = _affine(self._rng_for_task(task_id),
                                      self.feature_dim, self.classes_per_task)
        return self.heads[task_id]

    def head(self, task_id):
        """The task's (w, b)."""
        key = self._key(task_id)
        if key not in self.heads:
            raise UnknownTaskError(f"no classifier head for task {task_id}")
        return self.heads[key]

    def output_dim(self, task_id):
        return self.head(task_id)[0].data.shape[1]

    def params(self):
        return [p for key in sorted(self.heads) for p in self.heads[key]]


class Discriminator:
    """MLP scoring features over {fake=0, task 1..K}; fixed arity K_max+1.

    Logits for not-yet-seen tasks are masked to a large negative constant,
    which gives them exactly zero softmax probability.
    """

    def __init__(self, feature_dim, k_max, hidden, rng):
        self.k_max = k_max
        self.w1, self.b1 = _affine(rng, feature_dim, hidden)
        self.w2, self.b2 = _affine(rng, hidden, k_max + 1)

    def params(self):
        return [self.w1, self.b1, self.w2, self.b2]


class ContinualModel:
    """The four parameter groups behind the training loop.

    transform_mode:
      * ``per_layer`` -- scale/shift after every hidden layer (MLP rule)
      * ``last``      -- only after the final hidden layer (conv-case rule)
      * ``off``       -- no task conditioning (ablation of the generator)

    ``arguments`` are the constructor's, in signature order, as plain ints,
    strs and bools: a checkpoint stores them and rebuilds from them.
    """

    def __init__(self, input_dim, classes_per_task, feature_width, depth,
                 head_mode, k_max, embed_dim, transform_mode, share_embedding,
                 disc_hidden, seed=0):
        if transform_mode not in TRANSFORM_MODES:
            raise ConfigurationError(f"unknown transform mode {transform_mode!r}")
        self.input_dim = input_dim
        self.head_mode = head_mode
        self.k_max = k_max
        self.transform_mode = transform_mode

        self.extractor = FeatureExtractor(
            input_dim, width=feature_width, depth=depth,
            rng=np.random.default_rng([seed, 0]))
        self.generator = ParameterGenerator(
            [feature_width] * depth, embed_dim=embed_dim, capacity=k_max,
            share_embedding=share_embedding, rng=np.random.default_rng([seed, 1]))
        self.discriminator = Discriminator(
            feature_width, k_max=k_max, hidden=disc_hidden,
            rng=np.random.default_rng([seed, 2]))
        self.heads = ClassifierHeads(
            feature_width, classes_per_task, mode=head_mode,
            rng_for_task=lambda t: np.random.default_rng([seed, 3, t]))
        self.seen_tasks = []
        self.arguments = dict(
            input_dim=int(input_dim), classes_per_task=int(classes_per_task),
            feature_width=int(feature_width), depth=int(depth),
            head_mode=str(head_mode), k_max=int(k_max),
            embed_dim=int(embed_dim), transform_mode=str(transform_mode),
            share_embedding=bool(share_embedding),
            disc_hidden=int(disc_hidden), seed=int(seed))

    # -- task registry ------------------------------------------------------

    def register_task(self, task_id):
        """Mark a task as seen; creates its head in multi-head mode. An id
        that is a bool or no integer fails as ContractError, one outside
        ``1..k_max`` (0 is the fake class) as CapacityError."""
        check_integer(task_id, "task id")
        if task_id in self.seen_tasks:
            return
        if not 1 <= task_id <= self.k_max:
            raise CapacityError(
                f"cannot register task {task_id}: capacity 1..{self.k_max}")
        if self.head_mode == "multi":
            self.heads.add_head(task_id)
        self.seen_tasks.append(task_id)

    def _check_task(self, task_id):
        if task_id not in self.seen_tasks:
            raise UnknownTaskError(f"task {task_id} was never registered")

    @property
    def n_seen(self):
        return len(self.seen_tasks)

    # -- forward paths ------------------------------------------------------

    def _modulated(self, index):
        """Whether FiLM follows trunk layer ``index``: every layer under
        ``per_layer``, the last under ``last``, none under ``off``."""
        return (self.transform_mode == "per_layer"
                or (self.transform_mode == "last"
                    and index == len(self.extractor.layers) - 1))

    def _task_layers(self, tasks):
        """The classification path's (w, b, FiLM params or None) per trunk
        layer, as ``TaskForward`` takes them, once ``tasks`` are checked."""
        for task in tasks:
            self._check_task(task)
        return [(w, b, self.generator.layer(index)
                 if self._modulated(index) else None)
                for index, (w, b) in enumerate(self.extractor.layers)]

    def task_forward(self, x, tasks, sizes, reuse=None, films=None):
        """``autodiff.TaskForward`` of the rows ``x``, grouped by task
        (``sizes[k]`` rows of ``tasks[k]``), on the classification path:
        group k's logits equal the reference chain's of its rows (trunk,
        FiLM after each modulated layer, ReLU, the task's head) bit for bit.
        ``reuse`` and ``films`` (``task_films`` of these tasks) are passed
        through."""
        x = np.asarray(x, dtype=np.float64)
        self.extractor.check_input(x)
        return TaskForward(x, tasks, sizes, self._task_layers(tasks),
                           [self.heads.head(task) for task in tasks],
                           reuse, films)

    def task_films(self, tasks):
        """``autodiff.task_films`` of ``tasks`` on the classification path."""
        return task_films(self._task_layers(tasks), tasks)

    def discriminator_forward(self, x, keys, sizes):
        """``autodiff.TaskForward`` of the rows ``x``, grouped by ``keys``
        (``sizes[k]`` rows of key ``keys[k]``), on the discriminator's path:
        the plain trunk, the discriminator's first layer, and its output
        layer as every group's head. Group k's logits equal those of the
        reference chain on the rows, before its column mask, bit for bit.
        What gets gradient is what requires grad when it is built: a loss
        that freezes a part builds it inside ``autodiff.grad_only``."""
        x = np.asarray(x, dtype=np.float64)
        self.extractor.check_input(x)
        d = self.discriminator
        layers = [(w, b, None) for w, b in [*self.extractor.layers,
                                            (d.w1, d.b1)]]
        return TaskForward(x, keys, sizes, layers, [(d.w2, d.b2)] * len(keys))

    # -- snapshots (inference, detached arrays) ------------------------------

    def snapshot_logits(self, x, task_id):
        """The task's logits of ``x`` as an array, from a one-group forward."""
        return self.task_forward(x, [task_id], [len(x)]).logits

    def snapshot_disc_logits(self, x):
        """The first ``n_seen + 1`` columns of the discriminator's logits of
        ``x`` on the plain trunk, as an array, from a one-group forward."""
        forward = self.discriminator_forward(x, [0], [len(x)])
        return forward.logits[:, :self.n_seen + 1].copy()

    # -- parameter groups ----------------------------------------------------

    def extractor_params(self):
        return self.extractor.params()

    def head_params(self):
        return self.heads.params()

    def generator_params(self):
        return self.generator.params()

    def discriminator_params(self):
        return self.discriminator.params()

    def all_params(self):
        return (self.extractor_params() + self.head_params()
                + self.generator_params() + self.discriminator_params())
