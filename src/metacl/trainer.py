"""One trainer for every method; what a round trains is one plan row.

Each minibatch drives one optimization round, then is offered to the
episodic memory, so every current-task sample is consumed in exactly one
round. ``plan_for`` picks a config's ``Plan``, one row of ``PLANS`` per
method x ablation. The full method's round takes the memory's train/val
partition, runs n_out x (n_in inner steps on {extractor, heads} + one outer
step on the parameter generator), then n_ad discriminator steps; ablations
A, B and C each switch one piece off. Experience replay (ER) is one CE step
on the batch plus one memory draw; fine-tuning is ER with no memory. Every
step tapes and differentiates only the parameter group it moves
(``autodiff.grad_only``); the rest of the model is a constant in the step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import (
    assert_finite,
    backward,
    grad_only,
    no_grad,
    sgd_step,
    zero_grads,
)
from .datasets import batches
from .errors import ConfigurationError, UnknownTaskError
from .losses import (
    ce_loss,
    classification_loss,
    discriminator_loss,
    noise_batch,
    total_loss,
)
from .memory import EpisodicMemory, make_entry
from .metrics import AccuracyMatrix
from .networks import ContinualModel

EVAL_CHUNK = 512  # test rows per evaluation forward


@dataclass
class RunState:
    model: ContinualModel
    memory: EpisodicMemory
    matrix: AccuracyMatrix = field(default_factory=AccuracyMatrix)
    samples_seen: dict = field(default_factory=dict)
    inner_updates: int = 0
    outer_updates: int = 0
    adversarial_updates: int = 0


@dataclass(frozen=True)
class Plan:
    """What one round trains, for one method x ablation (``PLANS``)."""

    partition: bool = True  # two draws (stream 31), else one sample (41)
    bilevel: bool = True  # n_out x (n_in inner + one outer), else one inner
    adversarial: bool = True  # n_ad discriminator steps
    snapshots: bool = True  # memory rows carry logit snapshots
    memory: bool = True  # memory keeps memory_budget rows per task, else none
    plain: bool = False  # the model runs the plain trunk (transform "off")
    zeroed: tuple = ()  # the loss weights the steps train at zero


ER = Plan(partition=False, bilevel=False, adversarial=False, snapshots=False,
          plain=True, zeroed=("lambda1", "lambda2", "lambda3"))

PLANS = {
    ("scale", "full"): Plan(),
    ("scale", "A"): Plan(adversarial=False, zeroed=("lambda3",)),
    ("scale", "B"): Plan(zeroed=("lambda1", "lambda2")),
    ("scale", "C"): Plan(plain=True),
    ("er", "full"): ER,
    ("finetune", "full"): replace(ER, memory=False),
}


def plan_for(config):
    """The plan of ``config``'s method and ablation; no other code reads
    either field to decide what a run trains."""
    return PLANS[config.method, config.ablation]


def effective_weights(config):
    """The config with the loss weights its plan trains with: A drops the
    alignment term, B both dark-replay terms, ER and fine-tuning all three."""
    zeroed = plan_for(config).zeroed
    return replace(config, **dict.fromkeys(zeroed, 0.0)) if zeroed else config


def _step_tasks(batch, draw):
    """Tasks whose heads a step on ``batch`` plus a memory ``draw`` moves."""
    return sorted({batch.task_id, *draw.t.tolist()})


def evaluate(model, tasks):
    """Per-task test accuracy; inference only, discriminator untouched.
    Each ``EVAL_CHUNK`` test rows of a task are one one-group
    ``task_forward``, on one ``task_films`` of all the tasks scored."""
    for task in tasks:
        if task.task_id not in model.seen_tasks:
            raise UnknownTaskError(f"task {task.task_id} was never trained")
    out = {}
    with no_grad():
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
        self.plan = plan_for(config)
        if self.plan.plain and model.transform_mode != "off":
            raise ConfigurationError(
                "the plan runs the plain trunk: use transform_mode='off'")
        self.model = model
        self.config = effective_weights(config)
        self.seed = seed
        self.state = RunState(model=model, memory=memory)
        self.partition_rng, self.noise_rng, self.replay_rng = (
            np.random.default_rng([seed, stream]) for stream in (31, 40, 41))

    @property
    def memory(self):
        return self.state.memory

    def _differentiate(self, params, make_loss, label):
        """Build ``make_loss()`` with only ``params`` taped and back-propagate
        it, so that only ``params`` receive gradients; returns the loss."""
        among = self.model.all_params()
        zero_grads(among)
        with grad_only(params, among):
            loss = make_loss()
            assert_finite(loss, label)
            backward(loss)
        return loss

    # -- per-task loop -----------------------------------------------------------

    def _observe_batch(self, batch):
        if self.memory.budget_per_task == 0:
            return
        h = h_disc = [None] * len(batch.x)
        if self.plan.snapshots:
            h = self.model.snapshot_logits(batch.x, batch.task_id)
            h_disc = self.model.snapshot_disc_logits(batch.x)
        for i in range(len(batch.x)):
            self.memory.observe(make_entry(batch.x[i], batch.y[i],
                                           batch.task_id, h=h[i],
                                           h_disc=h_disc[i]))

    def train_task(self, task):
        """One single-epoch pass over the task, one round per minibatch."""
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
        record = {"task": k, "consumed": consumed,
                  "wall_s": time.perf_counter() - started}
        for kind, values in losses.items():
            record[f"mean_{kind}_loss"] = (float(np.mean(values)) if values
                                           else None)
        return record

    # -- the three update kinds ------------------------------------------------

    def inner_step(self, batch, draw):
        """One SGD step on the composite loss over ``batch`` and the memory
        ``draw``, moving extractor and heads. With every loss weight zero the
        composite loss is CE alone, and the step builds just that."""
        params = (self.model.extractor_params()
                  + self.model.head_params(_step_tasks(batch, draw)))
        c = self.config
        ce_only = c.lambda1 == c.lambda2 == c.lambda3 == 0
        loss = self._differentiate(
            params,
            lambda: (ce_loss(self.model, batch, draw) if ce_only
                     else total_loss(self.model, batch, draw, c)),
            f"inner-step loss on task {batch.task_id}")
        sgd_step(params, c.inner_lr)
        self.state.inner_updates += 1
        return loss.item()

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
            params = self.model.generator_params()
            loss = self._differentiate(
                params,
                lambda: classification_loss(self.model, batch, draw,
                                            self.config),
                f"outer-step loss on task {batch.task_id}").item()
            live = [p for p in params if p.grad is not None]
            if live:
                sgd_step(live, self.config.outer_lr)
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
        params = self.model.discriminator_params()
        loss = self._differentiate(
            params,
            lambda: discriminator_loss(self.model, x, labels, draw, self.config),
            f"adversarial-step loss on task {batch.task_id}")
        sgd_step(params, self.config.adversarial_lr)
        self.state.adversarial_updates += 1
        return loss.item()

    def train_round(self, batch, losses):
        """One round on ``batch``: the plan's draw and steps, each step's loss
        appended to the ``inner``, ``outer`` or ``disc`` list of ``losses``."""
        plan, config = self.plan, self.config
        if plan.partition:
            train_draw, val_draw = self.memory.partition(
                batch, self.partition_rng, config.replay_batch_size)
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
        if plan.adversarial:
            for _ in range(config.n_ad):
                losses["disc"].append(self.adversarial_step(batch))


# the benchmark's resume20-er workload patches ``ReplayTrainer.train_task``
ReplayTrainer = Trainer


def run_stream(trainer, stream):
    """Train task by task; after each task, fill one accuracy-matrix row."""
    records = []
    seen = []
    for task in stream.tasks:
        record = trainer.train_task(task)
        seen.append(task)
        row = evaluate(trainer.model, seen)
        for pos, t in enumerate(seen, start=1):
            trainer.state.matrix.set(len(seen), pos, row[t.task_id])
        record["acc_row"] = [row[t.task_id] for t in seen]
        records.append(record)
    return records


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
    plain trunk (transform ``off``) if the plan runs it, and
    ``task_capacity`` tasks."""
    plain = plan_for(config).plain
    return ContinualModel(
        input_dim=stream.input_dim,
        classes_per_task=stream.classes_per_task,
        feature_width=config.feature_width,
        depth=config.depth,
        head_mode="single" if stream.protocol == "permuted" else "multi",
        k_max=task_capacity(stream, config),
        embed_dim=config.embed_dim,
        transform_mode="off" if plain else config.transform_mode,
        share_embedding=config.share_embedding,
        disc_hidden=config.disc_hidden,
        seed=seed,
    )


def build_trainer(stream, config, seed):
    """The trainer for one seed of ``config``, with a fresh model and a
    memory of ``memory_budget`` rows per task, or none if its plan keeps
    no memory (fine-tuning)."""
    budget = config.memory_budget if plan_for(config).memory else 0
    memory = EpisodicMemory(budget, rng=np.random.default_rng([seed, 20]))
    return Trainer(build_model(stream, config, seed), memory, config, seed)
