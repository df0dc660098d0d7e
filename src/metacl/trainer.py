"""Per-task, per-batch bi-level training interleaved with the adversarial
discriminator update, under a strict one-epoch constraint.

Each minibatch drives one optimization round: partition into train/val sides,
n_out x (n_in inner steps on {extractor, heads} + one outer step on the
parameter generator), n_ad discriminator steps, then the batch is offered to
the episodic memory with logit snapshots. Every current-task sample is
consumed in exactly one round.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import assert_finite, backward, no_grad, sgd_step, zero_grads
from .datasets import batches
from .errors import ConfigurationError, UnknownTaskError
from .losses import (
    AdversarialConfig,
    LossWeights,
    ce_loss,
    discriminator_loss,
    noise_batch,
    total_loss,
)
from .memory import EpisodicMemory, make_entry
from .metrics import AccuracyMatrix
from .networks import ContinualModel

ABLATIONS = ("A", "B", "C", "full")


@dataclass(frozen=True)
class TrainerConfig:
    """Loop constants. Defaults follow the strongest reported MLP setting."""

    inner_lr: float = 0.1
    outer_lr: float = 0.01
    adversarial_lr: float = 0.001
    n_in: int = 1
    n_out: int = 1
    n_ad: int = 1
    batch_size: int = 32
    replay_batch_size: int = 64
    weights: LossWeights = LossWeights()
    adversarial: AdversarialConfig = AdversarialConfig()
    seed: int = 0

    def __post_init__(self):
        for name in ("inner_lr", "outer_lr", "adversarial_lr"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be > 0")
        for name in ("n_in", "n_out", "n_ad"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.batch_size < 1 or self.replay_batch_size < 1:
            raise ConfigurationError("batch sizes must be >= 1")


@dataclass
class RunState:
    model: ContinualModel
    memory: EpisodicMemory
    matrix: AccuracyMatrix = field(default_factory=AccuracyMatrix)
    samples_seen: dict = field(default_factory=dict)
    inner_updates: int = 0
    outer_updates: int = 0
    adversarial_updates: int = 0


def effective_weights(weights, ablation):
    """Ablation A drops the alignment term; B drops both dark-replay terms."""
    if ablation == "A":
        return replace(weights, lambda3=0.0)
    if ablation == "B":
        return replace(weights, lambda1=0.0, lambda2=0.0)
    return weights


def _step_tasks(batch, draw):
    """Tasks whose heads a step on ``batch`` plus a memory ``draw`` moves."""
    return sorted({batch.task_id, *draw.t.tolist()})


def evaluate(model, tasks, chunk=512):
    """Per-task test accuracy; inference only, discriminator untouched."""
    out = {}
    for task in tasks:
        if task.task_id not in model.seen_tasks:
            raise UnknownTaskError(f"task {task.task_id} was never trained")
        correct = 0
        with no_grad():
            for start in range(0, len(task.test.x), chunk):
                x = task.test.x[start:start + chunk]
                y = task.test.y[start:start + chunk]
                pred = model.logits(x, task.task_id).data.argmax(axis=1)
                correct += int((pred == y).sum())
        out[task.task_id] = correct / len(task.test.x)
    return out


class Trainer:
    """The full pipeline; ablations A, B, C switch individual pieces off."""

    def __init__(self, model, memory, config, ablation="full"):
        if ablation not in ABLATIONS:
            raise ConfigurationError(f"unknown ablation {ablation!r}")
        if ablation == "C" and model.transform_mode != "off":
            raise ConfigurationError(
                "ablation C requires a model with transform_mode='off'")
        self.model = model
        self.cfg = config
        self.ablation = ablation
        self.weights = effective_weights(config.weights, ablation)
        self.state = RunState(model=model, memory=memory)
        self.partition_rng = np.random.default_rng([config.seed, 31])
        self.noise_rng = np.random.default_rng([config.seed, 40])
        self.replay_rng = np.random.default_rng([config.seed, 41])

    @property
    def memory(self):
        return self.state.memory

    # -- the three update kinds ------------------------------------------------

    def inner_step(self, train_part, lr=None):
        """One SGD step on the composite loss, moving extractor and heads."""
        zero_grads(self.model.all_params())
        loss = total_loss(self.model, train_part.batch, train_part.memory,
                          self.weights, self.cfg.adversarial)
        assert_finite(loss, f"inner-step loss on task {train_part.batch.task_id}")
        backward(loss)
        params = (self.model.extractor_params()
                  + self.model.head_params(
                      _step_tasks(train_part.batch, train_part.memory)))
        sgd_step(params, lr if lr is not None else self.cfg.inner_lr)
        zero_grads(self.model.all_params())
        self.state.inner_updates += 1
        return loss.item()

    def outer_step(self, val_part, lr=None):
        """One SGD step on the validation-side loss, moving the generator.

        First-order: extractor and heads are treated as constants, so the
        generator gradient is the direct partial derivative at their current
        values. With the transform disabled the generator is off the forward
        path and this step is a no-op.
        """
        zero_grads(self.model.all_params())
        loss = total_loss(self.model, val_part.batch, val_part.memory,
                          self.weights, self.cfg.adversarial)
        assert_finite(loss, f"outer-step loss on task {val_part.batch.task_id}")
        backward(loss)
        live = [p for p in self.model.generator_params() if p.grad is not None]
        if live:
            sgd_step(live, lr if lr is not None else self.cfg.outer_lr)
        zero_grads(self.model.all_params())
        self.state.outer_updates += 1
        return loss.item()

    def adversarial_step(self, batch, lr=None):
        """One SGD step on the discriminator's loss, moving only its weights."""
        n_fake = max(1, round(self.cfg.adversarial.fake_fraction * len(batch.x)))
        fake = noise_batch(self.cfg.adversarial, self.noise_rng, n_fake,
                           self.model.input_dim)
        x = np.concatenate([np.asarray(batch.x, dtype=np.float64), fake])
        labels = np.concatenate([
            np.full(len(batch.x), batch.task_id, dtype=np.int64),
            np.zeros(n_fake, dtype=np.int64)])
        draw = self.memory.sample(self.cfg.replay_batch_size, self.replay_rng)
        zero_grads(self.model.all_params())
        loss = discriminator_loss(self.model, x, labels, draw, self.weights,
                                  self.cfg.adversarial)
        assert_finite(loss, f"adversarial-step loss on task {batch.task_id}")
        backward(loss)
        sgd_step(self.model.discriminator_params(),
                 lr if lr is not None else self.cfg.adversarial_lr)
        zero_grads(self.model.all_params())
        self.state.adversarial_updates += 1
        return loss.item()

    # -- resume support ----------------------------------------------------------

    RNG_NAMES = ("partition", "noise", "replay")

    def rng_states(self):
        """JSON-safe snapshot of the trainer-owned random streams."""
        return {name: getattr(self, f"{name}_rng").bit_generator.state
                for name in self.RNG_NAMES}

    def set_rng_states(self, states):
        for name, state in states.items():
            getattr(self, f"{name}_rng").bit_generator.state = state

    # -- per-task loop -----------------------------------------------------------

    def _observe_batch(self, batch):
        if self.memory.budget_per_task == 0:
            return
        h = self.model.snapshot_logits(batch.x, batch.task_id)
        h_disc = self.model.snapshot_disc_logits(batch.x)
        for i in range(len(batch.x)):
            self.memory.observe(make_entry(batch.x[i], batch.y[i],
                                           batch.task_id, h=h[i],
                                           h_disc=h_disc[i]))

    def train_task(self, task):
        """One single-epoch pass over the task, per the per-batch round."""
        k = task.task_id
        self.model.register_task(k)
        consumed = 0
        inner_losses, outer_losses, disc_losses = [], [], []
        started = time.perf_counter()
        for batch in batches(task.train, self.cfg.batch_size,
                             [self.cfg.seed, 10, k], task_id=k):
            train_part, val_part = self.memory.partition(
                batch, self.partition_rng, self.cfg.replay_batch_size)
            for _ in range(self.cfg.n_out):
                for _ in range(self.cfg.n_in):
                    inner_losses.append(self.inner_step(train_part))
                outer_losses.append(self.outer_step(val_part))
            if self.ablation != "A":
                for _ in range(self.cfg.n_ad):
                    disc_losses.append(self.adversarial_step(batch))
            self._observe_batch(batch)
            consumed += len(batch)
        self.state.samples_seen[k] = consumed
        return {
            "task": k,
            "consumed": consumed,
            "wall_s": time.perf_counter() - started,
            "mean_inner_loss": float(np.mean(inner_losses)),
            "mean_outer_loss": float(np.mean(outer_losses)),
            "mean_disc_loss": float(np.mean(disc_losses)) if disc_losses else None,
        }


class ReplayTrainer:
    """Experience-replay baseline: CE on current plus a memory draw.

    With a zero memory budget this degenerates to plain fine-tuning. Uses the
    same seed streams as the full trainer, so the extractor and heads start
    bit-identically across methods.
    """

    def __init__(self, model, memory, config):
        self.model = model
        self.cfg = config
        self.state = RunState(model=model, memory=memory)
        self.replay_rng = np.random.default_rng([config.seed, 41])

    @property
    def memory(self):
        return self.state.memory

    def rng_states(self):
        return {"replay": self.replay_rng.bit_generator.state}

    def set_rng_states(self, states):
        for name, state in states.items():
            getattr(self, f"{name}_rng").bit_generator.state = state

    def train_task(self, task):
        k = task.task_id
        self.model.register_task(k)
        consumed = 0
        losses = []
        started = time.perf_counter()
        for batch in batches(task.train, self.cfg.batch_size,
                             [self.cfg.seed, 10, k], task_id=k):
            draw = self.memory.sample(self.cfg.replay_batch_size, self.replay_rng)
            zero_grads(self.model.all_params())
            loss = ce_loss(self.model, batch, draw)
            assert_finite(loss, f"replay-step loss on task {k}")
            backward(loss)
            params = (self.model.extractor_params()
                      + self.model.head_params(_step_tasks(batch, draw)))
            sgd_step(params, self.cfg.inner_lr)
            zero_grads(self.model.all_params())
            losses.append(loss.item())
            if self.memory.budget_per_task > 0:
                for i in range(len(batch.x)):
                    self.memory.observe(make_entry(batch.x[i], batch.y[i], k))
            consumed += len(batch.x)
            self.state.inner_updates += 1
        self.state.samples_seen[k] = consumed
        return {
            "task": k,
            "consumed": consumed,
            "wall_s": time.perf_counter() - started,
            "mean_inner_loss": float(np.mean(losses)),
            "mean_outer_loss": None,
            "mean_disc_loss": None,
        }


def run_stream(trainer, stream):
    """Train task by task; after each task, fill one accuracy-matrix row."""
    records = []
    seen = []
    for task in stream.tasks:
        record = trainer.train_task(task)
        seen.append(task)
        row = evaluate(trainer.model, seen)
        for j, a in row.items():
            pos = next(i for i, t in enumerate(seen, start=1) if t.task_id == j)
            trainer.state.matrix.set(len(seen), pos, a)
        record["acc_row"] = [row[t.task_id] for t in seen]
        records.append(record)
    return records


def build_model(stream, seed, transform_mode="per_layer", feature_width=256,
                depth=2, embed_dim=64, disc_hidden=64, k_max=None,
                share_embedding=True):
    """Model shaped for a stream: single head iff domain-incremental."""
    head_mode = "single" if stream.protocol == "permuted" else "multi"
    return ContinualModel(
        input_dim=stream.input_dim,
        classes_per_task=stream.classes_per_task,
        feature_width=feature_width,
        depth=depth,
        head_mode=head_mode,
        k_max=k_max if k_max is not None else max(32, len(stream.tasks)),
        embed_dim=embed_dim,
        transform_mode=transform_mode,
        share_embedding=share_embedding,
        disc_hidden=disc_hidden,
        seed=seed,
    )


def run_ablation(mode, stream, config, budget_per_task=50, model_kwargs=None):
    """Train one ablation end to end; returns (state, per-task records)."""
    if mode not in ABLATIONS:
        raise ConfigurationError(f"unknown ablation {mode!r}")
    kwargs = dict(model_kwargs or {})
    if mode == "C":
        kwargs["transform_mode"] = "off"
    model = build_model(stream, config.seed, **kwargs)
    memory = EpisodicMemory(budget_per_task,
                            rng=np.random.default_rng([config.seed, 20]))
    trainer = Trainer(model, memory, config, ablation=mode)
    records = run_stream(trainer, stream)
    return trainer.state, records
