"""One trainer for every method; what a round trains is one plan row.

Each minibatch drives one optimization round, then is offered to the
episodic memory, so every current-task sample is consumed in exactly one
round. ``plan_for`` picks a config's ``Plan``, one row of ``PLANS`` per
method x ablation: whether the round is bilevel, and the config values the
row pins. The full method's round takes the memory's train/val partition,
runs n_out x (n_in inner steps on {extractor, heads} + one outer step on
the parameter generator), then n_ad discriminator steps when lam3 is not 0
(no loss reads the discriminator otherwise); ablations A, B and C pin
lam3 = 0, lam1 = lam2 = 0 and the transform off. Experience replay
(ER) is one CE step on the batch plus one memory draw; fine-tuning is ER
with no memory. All else is read from ``effective_config``: memory rows
carry logit snapshots only when dark replay is on
(``losses.dark_replay_off``). Every step is one ``Trainer._step`` on one
parameter group: the extractor plus every head (inner), the generator
(outer) or the discriminator (adversarial). It tapes and differentiates
only that group (``autodiff.grad_only``), the rest of the model being a
constant in the step, and moves the members its loss reached: a head whose
task is in neither the batch nor the draw, a generator layer without FiLM
or an unused embedding table gets no gradient and stays put.
"""

from __future__ import annotations

import ctypes
import functools
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import (
    assert_finite,
    backward,
    grad_only,
    sgd_step,
    zero_grads,
)
from .datasets import batches
from .errors import ConfigurationError
from .losses import (
    ce_loss,
    classification_loss,
    dark_replay_off,
    discriminator_loss,
    noise_batch,
    total_loss,
)
from .memory import EpisodicMemory, make_entry
from .metrics import AccuracyMatrix
from .networks import ContinualModel

EVAL_CHUNK = 512  # test rows per evaluation forward
# glibc's mallopt parameters (malloc.h) and the values its own dynamic
# thresholds grow toward on 64-bit hosts
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD, MMAP_THRESHOLD = 64 << 20, 32 << 20


@dataclass
class RunState:
    """A seed-run's results; per task: samples seen, wall time, mean losses."""

    model: ContinualModel
    memory: EpisodicMemory
    matrix: AccuracyMatrix = field(default_factory=AccuracyMatrix)
    samples_seen: dict = field(default_factory=dict)
    task_wall_s: list = field(default_factory=list)
    task_losses: list = field(default_factory=list)  # one dict per task
    inner_updates: int = 0
    outer_updates: int = 0
    adversarial_updates: int = 0


@dataclass(frozen=True)
class Plan:
    """What one round trains, for one method x ablation (``PLANS``)."""

    # two draws (stream 31), n_out x (n_in inner + one outer); else one
    # sample (stream 41), one inner step
    bilevel: bool = True
    pinned: tuple = ()  # (field, value): the RunConfig values the row fixes


ER = Plan(bilevel=False, pinned=(("transform_mode", "off"), ("lambda1", 0.0),
                                  ("lambda2", 0.0), ("lambda3", 0.0)))

PLANS = {
    ("scale", "full"): Plan(),
    ("scale", "A"): Plan(pinned=(("lambda3", 0.0),)),
    ("scale", "B"): Plan(pinned=(("lambda1", 0.0), ("lambda2", 0.0))),
    ("scale", "C"): Plan(pinned=(("transform_mode", "off"),)),
    ("er", "full"): ER,
    ("finetune", "full"): Plan(False, ER.pinned + (("memory_budget", 0),)),
}


def plan_for(config):
    """The plan of ``config``'s method and ablation; no other code reads
    either field to decide what a run trains."""
    return PLANS[config.method, config.ablation]


def effective_config(config):
    """The config a run trains with: ``config`` with its plan's pins."""
    pinned = plan_for(config).pinned
    return replace(config, **dict(pinned)) if pinned else config


def evaluate(model, tasks):
    """Per-task test accuracy; inference only, discriminator untouched.
    Each ``EVAL_CHUNK`` test rows of a task are one one-group
    ``task_forward``, on one ``task_films`` of all the tasks scored, which
    rejects a task never registered before any forward runs."""
    out = {}
    films = model.task_films([task.task_id for task in tasks])
    for k, task in enumerate(tasks):
        own = [None if c is None else c.rows(k, k + 1) for c in films]
        correct = 0
        for start in range(0, len(task.test.x), EVAL_CHUNK):
            x = task.test.x[start:start + EVAL_CHUNK]
            y = task.test.y[start:start + EVAL_CHUNK]
            logits = model.task_forward(x, [task.task_id], [len(x)],
                                        films=own).logits
            correct += int((logits.argmax(axis=1) == y).sum())
        out[task.task_id] = correct / len(task.test.x)
    return out


class Trainer:
    """The one-epoch task loop and the three update kinds, run as ``plan``
    says; the three seed streams exist whatever the plan."""

    def __init__(self, model, memory, config, seed):
        self.plan, self.config = plan_for(config), effective_config(config)
        if (("transform_mode", "off") in self.plan.pinned
                and model.transform_mode != "off"):
            raise ConfigurationError(
                "the plan runs the plain trunk: use transform_mode='off'")
        self.model = model
        self.seed = seed
        self.state = RunState(model=model, memory=memory)
        self.partition_rng, self.noise_rng, self.replay_rng = (
            np.random.default_rng([seed, stream]) for stream in (31, 40, 41))

    @property
    def memory(self):
        return self.state.memory

    def _step(self, params, make_loss, lr, label):
        """One SGD step of size ``lr``: build ``make_loss()`` with only
        ``params`` taped, back-propagate it and move the members of
        ``params`` that received a gradient; returns the loss as a float."""
        among = self.model.all_params()
        zero_grads(among)
        with grad_only(params, among):
            loss = make_loss()
            assert_finite(loss, label)
            backward(loss)
        sgd_step([p for p in params if p.grad is not None], lr)
        return loss.item()

    # -- per-task loop -----------------------------------------------------------

    def _observe_batch(self, batch):
        if self.memory.budget_per_task == 0:
            return
        h = h_disc = [None] * len(batch.x)
        if not dark_replay_off(self.config):  # only dark replay reads them
            h = self.model.snapshot_logits(batch.x, batch.task_id)
            h_disc = self.model.snapshot_disc_logits(batch.x)
        for i in range(len(batch.x)):
            self.memory.observe(make_entry(batch.x[i], batch.y[i],
                                           batch.task_id, h=h[i],
                                           h_disc=h_disc[i]))

    def train_task(self, task):
        """One single-epoch pass over the task, one round per minibatch; its
        sample count, wall time and mean step losses go to ``state``."""
        k = task.task_id
        self.model.register_task(k)
        consumed = 0
        losses = {"inner": [], "outer": [], "disc": []}
        started = time.perf_counter()
        for batch in batches(task.train, self.config.batch_size,
                             [self.seed, 10, k], task_id=k):
            self.train_round(batch, losses)
            self._observe_batch(batch)
            consumed += len(batch)
        self.state.samples_seen[k] = consumed
        self.state.task_wall_s.append(time.perf_counter() - started)
        self.state.task_losses.append({
            f"mean_{kind}_loss": float(np.mean(values)) if values else None
            for kind, values in losses.items()})

    # -- the three update kinds ------------------------------------------------

    def inner_step(self, batch, draw):
        """One SGD step on the composite loss over ``batch`` and the memory
        ``draw``, moving the extractor and the heads of the tasks in either.
        With every loss weight zero the composite loss is CE alone, and the
        step builds just that."""
        c = self.config
        ce_only = c.lambda1 == c.lambda2 == c.lambda3 == 0
        loss = self._step(
            self.model.extractor_params() + self.model.head_params(),
            lambda: (ce_loss(self.model, batch, draw) if ce_only
                     else total_loss(self.model, batch, draw, c)),
            c.inner_lr, f"inner-step loss on task {batch.task_id}")
        self.state.inner_updates += 1
        return loss

    def outer_step(self, batch, draw):
        """One SGD step on the validation-side loss over ``batch`` and the
        memory ``draw``, moving the generator.

        The loss is ``classification_loss``, CE + dark replay, without the
        alignment term, which runs the plain trunk and sends the generator no
        gradient. First-order: extractor and heads are constants, so the
        generator gradient is the direct partial derivative at their current
        values. With the transform off the generator is off the forward path:
        the step builds no loss, moves nothing and returns None.
        """
        loss = None
        if self.model.transform_mode != "off":
            loss = self._step(
                self.model.generator_params(),
                lambda: classification_loss(self.model, batch, draw,
                                            self.config),
                self.config.outer_lr,
                f"outer-step loss on task {batch.task_id}")
        self.state.outer_updates += 1
        return loss

    def adversarial_step(self, batch):
        """One SGD step on the discriminator's loss, moving only its weights."""
        n_fake = max(1, round(self.config.fake_fraction * len(batch.x)))
        fake = noise_batch(self.config, self.noise_rng, n_fake,
                           self.model.input_dim)
        x = np.concatenate([np.asarray(batch.x, dtype=np.float64), fake])
        labels = np.concatenate([
            np.full(len(batch.x), batch.task_id, dtype=np.int64),
            np.zeros(n_fake, dtype=np.int64)])
        draw = self.memory.sample(self.config.replay_batch_size, self.replay_rng)
        loss = self._step(
            self.model.discriminator_params(),
            lambda: discriminator_loss(self.model, x, labels, draw, self.config),
            self.config.adversarial_lr,
            f"adversarial-step loss on task {batch.task_id}")
        self.state.adversarial_updates += 1
        return loss

    def train_round(self, batch, losses):
        """One round on ``batch``: the plan's draw and steps, each step's loss
        appended to the ``inner``, ``outer`` or ``disc`` list of ``losses``."""
        plan, config = self.plan, self.config
        if plan.bilevel:
            train_draw, val_draw = self.memory.partition(
                self.partition_rng, config.replay_batch_size)
        else:
            train_draw = val_draw = self.memory.sample(
                config.replay_batch_size, self.replay_rng)
        n_out, n_in = (config.n_out, config.n_in) if plan.bilevel else (1, 1)
        for _ in range(n_out):
            for _ in range(n_in):
                losses["inner"].append(self.inner_step(batch, train_draw))
            loss = self.outer_step(batch, val_draw) if plan.bilevel else None
            if loss is not None:
                losses["outer"].append(loss)
        if config.lambda3 != 0:  # the alignment's adversary, if a loss reads it
            for _ in range(config.n_ad):
                losses["disc"].append(self.adversarial_step(batch))


# the benchmark's resume20-er workload patches ``ReplayTrainer.train_task``
ReplayTrainer = Trainer


@functools.cache
def hold_heap():
    """Fix glibc's heap trim and mmap thresholds for this process; a no-op
    elsewhere. A round allocates and frees hundreds of kilobytes of small
    numpy arrays. Under the default 128 KiB trim threshold, whether those
    frees return pages to the kernel, for the next round to fault in again,
    turns on where longer-lived objects happen to sit in the heap, so the
    same run took one to three times as many page faults from one process
    to the next, and up to a tenth more time per round. With the thresholds
    fixed glibc keeps the freed memory, and arrays wider than the default
    128 KiB mmap threshold stay on the heap too."""
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
            mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def run_stream(trainer, stream):
    """Train task by task; after each task, fill one accuracy-matrix row.
    The heap is held first (``hold_heap``)."""
    hold_heap()
    seen = []
    for task in stream.tasks:
        trainer.train_task(task)
        seen.append(task)
        scores = evaluate(trainer.model, seen)
        trainer.state.matrix.append([scores[t.task_id] for t in seen])


def task_capacity(stream, config):
    """The model's task capacity for a stream: ``k_max = 0`` sizes it to the
    stream, at least 32; a set ``k_max`` must hold every task of the stream."""
    if not config.k_max:
        return max(32, len(stream.tasks))
    if config.k_max < len(stream.tasks):
        raise ConfigurationError(
            f"k_max={config.k_max} is below the stream's "
            f"{len(stream.tasks)} tasks")
    return config.k_max


def build_model(stream, config, seed):
    """Model shaped for a stream: single head iff domain-incremental, the
    ``effective_config``'s transform mode, and ``task_capacity`` tasks."""
    return ContinualModel(
        input_dim=stream.input_dim,
        classes_per_task=stream.classes_per_task,
        feature_width=config.feature_width,
        depth=config.depth,
        head_mode="single" if stream.protocol == "permuted" else "multi",
        k_max=task_capacity(stream, config),
        embed_dim=config.embed_dim,
        transform_mode=effective_config(config).transform_mode,
        share_embedding=config.share_embedding,
        disc_hidden=config.disc_hidden,
        seed=seed,
    )


def build_trainer(stream, config, seed):
    """The trainer for one seed of ``config``, with a fresh model and a
    memory of the ``effective_config``'s ``memory_budget`` rows per task
    (none for fine-tuning)."""
    memory = EpisodicMemory(effective_config(config).memory_budget,
                            rng=np.random.default_rng([seed, 20]))
    return Trainer(build_model(stream, config, seed), memory, config, seed)
