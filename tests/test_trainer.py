"""Trainer tests: freeze contracts, one-epoch accounting, oracles."""

import math
import platform
import resource
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import check_gradients
from reference import (
    discriminate,
    extract,
    logits,
    reference_classification_loss,
    reference_discriminator_loss,
    reference_total_loss,
    softmax_cross_entropy,
)
from metacl import autodiff, experiments, networks
from metacl import trainer as trainer_module
from metacl.autodiff import backward, grad_only, sgd_step, zero_grads
from metacl.config import ABLATION_MODES, METHODS, TRANSFORM_MODES, RunConfig
from metacl.datasets import (
    Split,
    Task,
    TaskBatch,
    batches,
    make_synthetic,
)
from metacl.errors import ConfigurationError, UnknownTaskError
from metacl.experiments import build_stream, run_single
from metacl.losses import (
    adversarial_generator_loss,
    dark_replay_off,
    discriminator_loss,
    noise_batch,
    total_loss,
)
from metacl.memory import EpisodicMemory, make_entry
from metacl.trainer import (
    PLANS,
    Trainer,
    build_model,
    build_trainer,
    effective_config,
    evaluate,
    run_stream,
)

# a small model; inner_lr 0.1 is the step size these tests were calibrated on
SMALL = dict(feature_width=16, depth=2, embed_dim=4, disc_hidden=8,
             batch_size=10, replay_batch_size=16, inner_lr=0.1)


def small_stream(seed=0):
    # 3 split tasks of 2 classes, centre scale 3.0 (the calibrated spread)
    return make_synthetic(RunConfig(
        n_tasks=3, train_per_class=15, test_per_class=10, input_dim=8,
        center_scale=3.0, data_seed=seed))


def small_config(**kw):
    return RunConfig(**{**SMALL, **kw})


def n_rounds(stream, batch_size):
    """Rounds in one epoch over every task: one per (last partial) batch."""
    return sum(-(-len(t.train.x) // batch_size) for t in stream.tasks)


def fresh_trainer(ablation="full", budget=5, seed=0, transform="per_layer",
                  stream=None, **cfg_kw):
    stream = stream or small_stream(seed=seed)
    config = small_config(ablation=ablation, transform_mode=transform,
                          memory_budget=budget, **cfg_kw)
    return build_trainer(stream, config, seed), stream


def snapshot(params):
    return [p.data.copy() for p in params]


def unchanged(params, before):
    return all(np.array_equal(p.data, b) for p, b in zip(params, before))


def first_partition(trainer, stream):
    """The train and val sides of the stream's first round, each a
    ``(batch, draw)`` pair as ``inner_step`` and ``outer_step`` take them."""
    task = stream.tasks[0]
    trainer.model.register_task(task.task_id)
    batch = next(batches(task.train, trainer.config.batch_size,
                         [trainer.seed, 10, task.task_id],
                         task_id=task.task_id))
    return [(batch, draw) for draw in trainer.memory.partition(
        trainer.partition_rng, trainer.config.replay_batch_size)]


# -- config ------------------------------------------------------------------------


def test_config_defaults():
    cfg = RunConfig()
    assert cfg.inner_lr == 0.35
    assert cfg.outer_lr == 0.01
    assert cfg.adversarial_lr == 0.001
    assert cfg.n_in == cfg.n_out == cfg.n_ad == 1
    assert cfg.batch_size == 8
    assert cfg.replay_batch_size == 64


def test_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(inner_lr=0.0)
    with pytest.raises(ConfigurationError):
        RunConfig(n_in=0)
    with pytest.raises(ConfigurationError):
        RunConfig(batch_size=0)


PINNABLE = ("lambda1", "lambda2", "lambda3", "transform_mode", "memory_budget")


def test_effective_config_applies_each_rows_pinned_values():
    base = small_config(lambda1=2.0, lambda2=3.0, lambda3=0.5, memory_budget=7)
    assert effective_config(base) is base
    for kw, pinned in (
            ({"ablation": "A"}, (2.0, 3.0, 0.0, "per_layer", 7)),
            ({"ablation": "B"}, (0.0, 0.0, 0.5, "per_layer", 7)),
            ({"ablation": "C"}, (2.0, 3.0, 0.5, "off", 7)),
            ({"method": "er"}, (0.0, 0.0, 0.0, "off", 7)),  # one CE step
            ({"method": "finetune"}, (0.0, 0.0, 0.0, "off", 0))):
        config = replace(base, **kw)
        got = effective_config(config)
        assert tuple(getattr(got, name) for name in PINNABLE) == pinned
        # and no other field moves
        assert replace(got, **{name: getattr(config, name)
                               for name in PINNABLE}) == config


def test_ablation_c_requires_transform_off():
    stream = small_stream()
    model = build_model(stream, small_config(), 0)
    memory = EpisodicMemory(5, rng=np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        Trainer(model, memory, small_config(ablation="C"), 0)
    # ER's plan runs the plain trunk too
    with pytest.raises(ConfigurationError):
        Trainer(model, memory, small_config(method="er"), 0)


def test_build_model_runs_the_plain_trunk_where_the_method_asks():
    stream = small_stream()
    for config, mode in ((small_config(), "per_layer"),
                         (small_config(transform_mode="last"), "last"),
                         (small_config(ablation="C"), "off"),
                         (small_config(method="er"), "off"),
                         (small_config(method="finetune"), "off")):
        assert build_model(stream, config, 0).transform_mode == mode
    assert build_model(stream, small_config(), 0).k_max == 32
    assert build_model(stream, small_config(k_max=5), 0).k_max == 5


# -- inner step -----------------------------------------------------------------------


def test_inner_step_freezes_generator_and_discriminator():
    trainer, stream = fresh_trainer()
    part, _ = first_partition(trainer, stream)
    gen_before = snapshot(trainer.model.generator_params())
    disc_before = snapshot(trainer.model.discriminator_params())
    theta_before = snapshot(trainer.model.extractor_params())
    trainer.inner_step(*part)
    assert unchanged(trainer.model.generator_params(), gen_before)
    assert unchanged(trainer.model.discriminator_params(), disc_before)
    assert not unchanged(trainer.model.extractor_params(), theta_before)
    assert trainer.state.inner_updates == 1


def test_inner_step_descends_at_small_lr():
    trainer, stream = fresh_trainer(inner_lr=1e-3)
    part, _ = first_partition(trainer, stream)
    before = trainer.inner_step(*part)
    after = total_loss(trainer.model, *part, trainer.config).item()
    assert after <= before


# -- outer step ------------------------------------------------------------------------


def test_outer_step_freezes_base_and_discriminator():
    trainer, stream = fresh_trainer()
    _, val = first_partition(trainer, stream)
    theta_before = snapshot(trainer.model.extractor_params())
    head_before = snapshot(trainer.model.head_params())
    disc_before = snapshot(trainer.model.discriminator_params())
    gen_before = snapshot(trainer.model.generator_params())
    trainer.outer_step(*val)
    assert unchanged(trainer.model.extractor_params(), theta_before)
    assert unchanged(trainer.model.head_params(), head_before)
    assert unchanged(trainer.model.discriminator_params(), disc_before)
    assert not unchanged(trainer.model.generator_params(), gen_before)
    assert trainer.state.outer_updates == 1


def test_outer_gradient_matches_finite_differences():
    trainer, stream = fresh_trainer(seed=4)
    _, val = first_partition(trainer, stream)
    model = trainer.model

    def loss_fn():
        return total_loss(model, *val, trainer.config)

    zero_grads(model.all_params())
    backward(loss_fn())
    live = [p for p in model.generator_params() if p.grad is not None]
    assert live
    worst = check_gradients(loss_fn, live, rtol=1e-4)
    assert worst < 1e-4


def test_outer_step_noop_when_transform_off():
    trainer, stream = fresh_trainer(transform="off", ablation="C")
    _, val = first_partition(trainer, stream)
    gen_before = snapshot(trainer.model.generator_params())
    assert trainer.outer_step(*val) is None
    assert unchanged(trainer.model.generator_params(), gen_before)
    assert trainer.state.outer_updates == 1


def test_ablation_c_builds_one_total_loss_per_round(monkeypatch):
    # the inner step's; the outer step, which would move nothing, builds none
    trainer, stream = fresh_trainer(transform="off", ablation="C")
    builds = []

    def counted(*args):
        builds.append(args)
        return total_loss(*args)

    monkeypatch.setattr(trainer_module, "total_loss", counted)
    trainer.train_task(stream.tasks[0])
    rounds = -(-len(stream.tasks[0].train.x) // trainer.config.batch_size)
    assert len(builds) == rounds
    assert trainer.state.outer_updates == rounds
    (losses,) = trainer.state.task_losses
    assert losses["mean_outer_loss"] is None
    assert losses["mean_inner_loss"] is not None


# -- adversarial step ---------------------------------------------------------------------


def test_adversarial_step_freezes_everything_but_discriminator():
    trainer, stream = fresh_trainer()
    task = stream.tasks[0]
    trainer.model.register_task(task.task_id)
    batch = next(batches(task.train, 10, [0, 10, 1], task_id=task.task_id))
    theta_before = snapshot(trainer.model.extractor_params())
    gen_before = snapshot(trainer.model.generator_params())
    head_before = snapshot(trainer.model.head_params())
    disc_before = snapshot(trainer.model.discriminator_params())
    trainer.adversarial_step(batch)
    assert unchanged(trainer.model.extractor_params(), theta_before)
    assert unchanged(trainer.model.generator_params(), gen_before)
    assert unchanged(trainer.model.head_params(), head_before)
    assert not unchanged(trainer.model.discriminator_params(), disc_before)
    assert trainer.state.adversarial_updates == 1


def test_adversarial_step_trains_a_working_classifier():
    # frozen extractor, separable clusters: 200 steps reach >90% task accuracy
    trainer, _ = fresh_trainer(seed=1, adversarial_lr=0.1)
    model = trainer.model
    model.register_task(1)
    model.register_task(2)
    rng = np.random.default_rng(0)
    centers = {1: np.full(8, 2.0), 2: np.full(8, -2.0)}

    class B:
        def __init__(self, x, task_id):
            self.x = x
            self.y = np.zeros(len(x), dtype=np.int64)
            self.task_id = task_id

    for step in range(200):
        t = 1 + step % 2
        x = centers[t] + 0.3 * rng.normal(size=(16, 8))
        trainer.adversarial_step(B(x, t))
    correct = 0
    for t in (1, 2):
        x = centers[t] + 0.3 * rng.normal(size=(100, 8))
        scores = discriminate(model.discriminator, extract(model, x),
                              model.n_seen)
        correct += int((scores.data.argmax(axis=1) == t).sum())
    assert correct / 200 > 0.9


# -- train_task ------------------------------------------------------------------------------


def test_train_task_one_epoch_accounting():
    trainer, stream = fresh_trainer()
    task = stream.tasks[0]
    assert trainer.train_task(task) is None
    n = len(task.train.x)
    rounds = -(-n // trainer.config.batch_size)
    assert trainer.state.samples_seen == {task.task_id: n}
    assert len(trainer.state.task_wall_s) == len(trainer.state.task_losses) == 1
    assert trainer.state.inner_updates == rounds
    assert trainer.state.outer_updates == rounds
    assert trainer.state.adversarial_updates == rounds


def test_train_task_memory_budget_growth():
    trainer, stream = fresh_trainer(budget=5)
    total = 0
    for task in stream.tasks:
        trainer.train_task(task)
        total += min(len(task.train.x), 5)
        assert len(trainer.memory) == total


def test_train_task_iteration_counts_multiply():
    stream = small_stream(seed=2)
    config = small_config(n_in=2, n_out=2, n_ad=3, memory_budget=5)
    trainer = build_trainer(stream, config, 2)
    task = stream.tasks[0]
    trainer.train_task(task)
    rounds = -(-len(task.train.x) // config.batch_size)
    assert trainer.state.inner_updates == rounds * 4
    assert trainer.state.outer_updates == rounds * 2
    assert trainer.state.adversarial_updates == rounds * 3


def test_ablation_a_skips_adversarial_updates():
    trainer, stream = fresh_trainer(ablation="A")
    disc_before = snapshot(trainer.model.discriminator_params())
    trainer.train_task(stream.tasks[0])
    assert trainer.state.adversarial_updates == 0
    assert unchanged(trainer.model.discriminator_params(), disc_before)


def test_ablation_c_generator_never_moves():
    trainer, stream = fresh_trainer(ablation="C", transform="off")
    gen_before = snapshot(trainer.model.generator_params())
    for task in stream.tasks:
        trainer.train_task(task)
    assert unchanged(trainer.model.generator_params(), gen_before)


# -- equivalence oracle -------------------------------------------------------------------------


def minimal_finetune_loop(stream, config, seed):
    """Reference: plain single-epoch SGD on CE, no memory, no extras."""
    model = build_model(stream, replace(config, transform_mode="off"), seed)
    for task in stream.tasks:
        model.register_task(task.task_id)
        for batch in batches(task.train, config.batch_size,
                             [seed, 10, task.task_id],
                             task_id=task.task_id):
            zero_grads(model.all_params())
            loss = softmax_cross_entropy(logits(model, batch.x, batch.task_id),
                                         batch.y)
            backward(loss)
            sgd_step(model.extractor_params()
                     + list(model.head(batch.task_id)), config.inner_lr)
            zero_grads(model.all_params())
    return model


def test_degenerate_trainer_equals_minimal_loop_bitwise():
    stream = small_stream(seed=6)
    config = small_config(lambda1=0.0, lambda2=0.0, lambda3=0.0,
                          transform_mode="off", ablation="A")
    model = build_model(stream, config, 6)
    memory = EpisodicMemory(0, rng=np.random.default_rng([6, 20]))
    trainer = Trainer(model, memory, config, 6)
    for task in stream.tasks:
        trainer.train_task(task)
    reference = minimal_finetune_loop(stream, config, 6)
    for p, q in zip(model.extractor_params() + model.head_params(),
                    reference.extractor_params() + reference.head_params()):
        assert np.array_equal(p.data, q.data)


def minimal_er_loop(stream, config, seed):
    """Reference ER: per batch one draw from its own memory, union CE over
    the batch and the draw (each task's rows through ``logits``, tasks
    ascending, each weighted by its share of the rows), one SGD step on the
    extractor and the heads that got a gradient, then every batch row
    offered to the memory."""
    model = build_model(stream, replace(config, transform_mode="off"), seed)
    memory = EpisodicMemory(config.memory_budget,
                            rng=np.random.default_rng([seed, 20]))
    replay_rng = np.random.default_rng([seed, 41])
    for task in stream.tasks:
        model.register_task(task.task_id)
        for batch in batches(task.train, config.batch_size,
                             [seed, 10, task.task_id],
                             task_id=task.task_id):
            draw = memory.sample(config.replay_batch_size, replay_rng)
            x, y = batch.x, batch.y
            t = np.full(len(y), batch.task_id)
            if len(draw):
                x, y, t = (np.concatenate(pair) for pair in
                           ((x, draw.x), (y, draw.y), (t, draw.t)))
            zero_grads(model.all_params())
            loss = None
            for k in np.unique(t).tolist():
                mask = t == k
                part = (softmax_cross_entropy(logits(model, x[mask], k),
                                              y[mask])
                        * (int(mask.sum()) / len(y)))
                loss = part if loss is None else loss + part
            backward(loss)
            sgd_step([p for p in model.extractor_params() + model.head_params()
                      if p.grad is not None], config.inner_lr)
            zero_grads(model.all_params())
            for i in range(len(batch.x)):
                memory.observe(make_entry(batch.x[i], batch.y[i],
                                          batch.task_id))
    return model, memory


@pytest.mark.parametrize("seed", [0, 3])
def test_er_trainer_equals_minimal_loop_bitwise(seed):
    stream = small_stream(seed=seed)
    config = small_config(method="er", memory_budget=5, replay_batch_size=6)
    trainer = build_trainer(stream, config, seed)
    for task in stream.tasks:
        trainer.train_task(task)
    model, memory = minimal_er_loop(stream, effective_config(config), seed)
    assert len(memory) == 15
    for p, q in zip(trainer.model.all_params(), model.all_params()):
        assert p.data.tobytes() == q.data.tobytes()
    got, want = trainer.memory.rows(), memory.rows()
    for name in ("x", "y", "t"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def minimal_bilevel_loop(stream, config, seed):
    """Reference bilevel method: per batch the memory's train/val partition
    (stream 31), then n_out x (n_in inner steps of ``reference_total_loss``
    over the batch and the train draw, on the extractor and heads, and one
    outer step of ``reference_classification_loss`` over the batch and the
    val draw, on the generator), then, when lam3 is not 0, n_ad
    discriminator steps of ``reference_discriminator_loss`` over the batch,
    fresh noise rows (stream 40) and a memory sample (stream 41); then every
    batch row offered to the memory, with its ``logits`` and
    ``discriminate`` snapshots when dark replay is on. Every parameter is
    taped; a step moves the members of its group that got a gradient."""
    model = build_model(stream, config, seed)
    memory = EpisodicMemory(config.memory_budget,
                            rng=np.random.default_rng([seed, 20]))
    partition_rng, noise_rng, replay_rng = (
        np.random.default_rng([seed, stream_id]) for stream_id in (31, 40, 41))

    def step(params, loss, lr):
        backward(loss)
        sgd_step([p for p in params if p.grad is not None], lr)
        zero_grads(model.all_params())

    for task in stream.tasks:
        k = task.task_id
        model.register_task(k)
        for batch in batches(task.train, config.batch_size, [seed, 10, k],
                             task_id=k):
            train_draw, val_draw = memory.partition(partition_rng,
                                                    config.replay_batch_size)
            for _ in range(config.n_out):
                for _ in range(config.n_in):
                    step(model.extractor_params() + model.head_params(),
                         reference_total_loss(model, batch, train_draw,
                                              config), config.inner_lr)
                step(model.generator_params(),
                     reference_classification_loss(model, batch, val_draw,
                                                   config), config.outer_lr)
            for _ in range(config.n_ad if config.lambda3 != 0 else 0):
                n_fake = max(1, round(config.fake_fraction * len(batch.x)))
                fake = noise_rng.normal(config.noise_mean, config.noise_std,
                                        size=(n_fake, model.input_dim))
                step(model.discriminator_params(),
                     reference_discriminator_loss(
                         model, np.concatenate([batch.x, fake]),
                         np.concatenate([np.full(len(batch.x), k),
                                         np.zeros(n_fake, dtype=np.int64)]),
                         memory.sample(config.replay_batch_size, replay_rng),
                         config), config.adversarial_lr)
            h = h_disc = [None] * len(batch.x)
            if not dark_replay_off(config):
                with grad_only((), model.all_params()):
                    h = logits(model, batch.x, k).data
                    h_disc = discriminate(model.discriminator,
                                          extract(model, batch.x),
                                          model.n_seen).data
                h_disc = h_disc[:, :model.n_seen + 1]
            for i in range(len(batch.x)):
                memory.observe(make_entry(batch.x[i], batch.y[i], k, h=h[i],
                                          h_disc=h_disc[i]))
    return model, memory


@pytest.mark.parametrize("ablation, seed, steps", [
    *((ablation, seed, 1) for ablation in ("full", "A", "B", "C")
      for seed in (0, 3)),
    ("full", 0, 2)])
def test_bilevel_trainer_equals_minimal_loop_bitwise(ablation, seed, steps):
    # every parameter and memory array bitwise, on every scale plan row;
    # steps sets n_in, n_out and n_ad, so the loops' nesting shows
    stream = small_stream(seed=seed)
    config = small_config(ablation=ablation, memory_budget=4,
                          replay_batch_size=6, n_in=steps, n_out=steps,
                          n_ad=steps)
    trainer = build_trainer(stream, config, seed)
    for task in stream.tasks:
        trainer.train_task(task)
    model, memory = minimal_bilevel_loop(stream, effective_config(config),
                                         seed)
    assert trainer.state.adversarial_updates == (
        0 if ablation == "A" else 9 * steps)
    assert len(memory) == 12
    for p, q in zip(trainer.model.all_params(), model.all_params(),
                    strict=True):
        assert p.data.tobytes() == q.data.tobytes()
    got, want = trainer.memory.rows(), memory.rows()
    for name in ("x", "y", "t", "h", "h_disc"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


# -- evaluation -------------------------------------------------------------------------------


def test_evaluate_chance_level_for_random_model():
    stream = small_stream()
    model = build_model(stream, small_config(), 0)
    model.register_task(1)
    rng = np.random.default_rng(7)
    task = Task(task_id=1,
                train=Split(rng.normal(size=(10, 8)),
                            rng.integers(0, 2, size=10)),
                test=Split(rng.normal(size=(2000, 8)),
                           rng.integers(0, 2, size=2000)),
                label_set=(0, 1), n_classes=2)
    acc = evaluate(model, [task])[1]
    assert abs(acc - 0.5) < 0.05


def test_evaluate_mutates_nothing():
    trainer, stream = fresh_trainer()
    trainer.train_task(stream.tasks[0])
    before = snapshot(trainer.model.all_params())
    evaluate(trainer.model, stream.tasks[:1])
    assert unchanged(trainer.model.all_params(), before)


def test_evaluate_unseen_task_rejected(monkeypatch):
    # the task check comes before any forward is built, and nothing changes
    stream = small_stream()
    model = build_model(stream, small_config(), 0)
    model.register_task(1)
    original, built = networks.TaskForward, []

    def counted(*args, **kwargs):
        built.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(networks, "TaskForward", counted)
    params = model.all_params()
    before = snapshot(params)
    for order in ((0, 1), (1, 0)):
        with pytest.raises(UnknownTaskError):
            evaluate(model, [stream.tasks[k] for k in order])
    assert built == []
    assert model.all_params() == params
    assert unchanged(params, before)


def test_run_stream_builds_lower_triangular_matrix():
    trainer, stream = fresh_trainer()
    assert run_stream(trainer, stream) is None
    rows = trainer.state.matrix.to_rows()
    assert [len(r) for r in rows] == [1, 2, 3]
    assert len(trainer.state.task_wall_s) == 3
    assert len(trainer.state.task_losses) == 3


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="hold_heap sets glibc's malloc thresholds")
def test_a_second_run_faults_in_no_new_heap():
    # the default run's rounds free hundreds of kilobytes each; glibc's
    # default trimming hands them back and faults them in again (thousands
    # of page faults per run), a held heap keeps them
    config = RunConfig(seeds=(0,))
    stream = build_stream(config)
    run_stream(build_trainer(stream, config, 0), stream)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_stream(build_trainer(stream, config, 0), stream)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500


# -- whole-run determinism ---------------------------------------------------------------------


def run_matrix(mode, seed):
    stream = small_stream(seed=seed)
    config = small_config(ablation=mode, memory_budget=5)
    return run_single(config, seed, stream).acc_matrix


def test_full_run_deterministic():
    assert run_matrix("full", 3) == run_matrix("full", 3)
    assert run_matrix("full", 3) != run_matrix("full", 4)


def test_unknown_ablation_rejected():
    with pytest.raises(ConfigurationError):
        small_config(ablation="D")


def test_full_mode_is_the_default_pipeline():
    stream = small_stream(seed=5)
    config = small_config(memory_budget=5)
    built = build_trainer(stream, config, 5)
    run_stream(built, stream)
    model = build_model(stream, config, 5)
    memory = EpisodicMemory(5, rng=np.random.default_rng([5, 20]))
    trainer = Trainer(model, memory, config, 5)
    run_stream(trainer, stream)
    assert built.state.matrix.to_rows() == trainer.state.matrix.to_rows()
    assert (run_single(config, 5, stream).acc_matrix
            == trainer.state.matrix.to_rows())
    for p, q in zip(built.model.all_params(), model.all_params()):
        assert np.array_equal(p.data, q.data)


# -- replay baseline ----------------------------------------------------------------------------


def test_replay_trainer_finetune_degenerate():
    stream = small_stream(seed=6)
    config = small_config(method="finetune")
    rt = build_trainer(stream, config, 6)
    for task in stream.tasks:
        rt.train_task(task)
    assert len(rt.memory) == 0
    # one inner step per round, and no outer or discriminator step
    rounds = n_rounds(stream, config.batch_size)
    assert (rt.state.inner_updates, rt.state.outer_updates,
            rt.state.adversarial_updates) == (rounds, 0, 0)
    reference = minimal_finetune_loop(stream, config, 6)
    model = rt.model
    for p, q in zip(model.extractor_params() + model.head_params(),
                    reference.extractor_params() + reference.head_params()):
        assert np.array_equal(p.data, q.data)


def test_replay_trainer_fills_memory():
    stream = small_stream(seed=6)
    config = small_config(method="er", memory_budget=5)
    rt = build_trainer(stream, config, 6)
    run_stream(rt, stream)
    assert len(rt.memory) == 15
    assert len(rt.state.task_losses) == 3
    # ER's plan: one inner step per round, rows stored without snapshots
    rounds = n_rounds(stream, config.batch_size)
    assert (rt.state.inner_updates, rt.state.outer_updates,
            rt.state.adversarial_updates) == (rounds, 0, 0)
    rows = rt.memory.rows()
    assert not rows.h_width.any() and not rows.h_disc_width.any()


def test_methods_share_initialization():
    stream = small_stream(seed=8)
    scale_model = build_model(stream, small_config(), 8)
    er_model = build_model(stream, small_config(method="er"), 8)
    for p, q in zip(scale_model.extractor_params(), er_model.extractor_params()):
        assert np.array_equal(p.data, q.data)


# -- the plan table -------------------------------------------------------------------


def every_plan_row(test):
    """One explicit example per ``PLANS`` row, with a memory, on two tasks:
    the random draws can miss a row with a non-zero budget."""
    for method, ablation in PLANS:
        test = example(method=method, ablation=ablation, transform="per_layer",
                       n_in=1, n_out=1, n_ad=1, budget=3, batch_size=2,
                       n_tasks=2, per_class=3, lambda3=0.03)(test)
    return test


@every_plan_row
@settings(max_examples=150, deadline=None)
@given(method=st.sampled_from(METHODS), ablation=st.sampled_from(ABLATION_MODES),
       transform=st.sampled_from(TRANSFORM_MODES),
       n_in=st.sampled_from((1, 2)), n_out=st.sampled_from((1, 2)),
       n_ad=st.sampled_from((1, 2)), budget=st.sampled_from((0, 3)),
       batch_size=st.integers(1, 5), n_tasks=st.integers(1, 3),
       per_class=st.integers(1, 4), lambda3=st.sampled_from((0.0, 0.03)))
def test_every_config_runs_its_plan_or_is_rejected(
        method, ablation, transform, n_in, n_out, n_ad, budget, batch_size,
        n_tasks, per_class, lambda3):
    # a config either fails on construction or runs to finite records with
    # the step counts and memory rows its method and ablation stand for
    try:
        config = RunConfig(
            method=method, ablation=ablation, transform_mode=transform,
            n_in=n_in, n_out=n_out, n_ad=n_ad, memory_budget=budget,
            batch_size=batch_size, n_tasks=n_tasks, train_per_class=per_class,
            test_per_class=2, input_dim=4, feature_width=4, depth=1,
            embed_dim=2, disc_hidden=4, replay_batch_size=4, lambda3=lambda3,
            seeds=(0,))
    except ConfigurationError:
        assert method != "scale" and ablation != "full"
        return
    stream = build_stream(config)
    built = []

    def keep(*args):
        built.append(build_trainer(*args))
        return built[-1]

    with mock.patch.object(experiments, "build_trainer", keep):
        record = run_single(config, 0, stream)
    (trainer,) = built
    assert np.isfinite(record.acc_matrix[-1]).all()
    assert math.isfinite(record.final_acc) and math.isfinite(record.final_fm)
    for losses in record.task_losses:
        assert all(v is None or math.isfinite(v) for v in losses.values())
    rounds = n_rounds(stream, batch_size)
    scale = method == "scale"
    # the discriminator trains only while a loss reads it
    adversary = scale and effective_config(config).lambda3 != 0
    assert record.counters == {
        "inner_updates": rounds * n_in * n_out if scale else rounds,
        "outer_updates": rounds * n_out if scale else 0,
        "adversarial_updates": rounds * n_ad if adversary else 0}
    rows = trainer.memory.rows()
    kept = 0 if method == "finetune" else budget
    assert len(rows.x) == sum(min(kept, len(t.train.x)) for t in stream.tasks)
    # rows carry both snapshots exactly when a loss of the run reads them
    if dark_replay_off(effective_config(config)):
        assert not rows.h_width.any() and not rows.h_disc_width.any()
    else:
        assert rows.h_width.all() and rows.h_disc_width.all()


def test_full_method_at_zero_lambda3_runs_ablation_a():
    # with lambda3 = 0 no loss reads the discriminator, so the full method
    # trains none: its run is ablation A's, which pins lambda3 = 0
    stream = small_stream(seed=3)
    full, ablated = (run_single(small_config(ablation=ablation, lambda3=0.0),
                                0, stream) for ablation in ("full", "A"))
    assert full.counters == ablated.counters
    assert full.counters["adversarial_updates"] == 0
    assert full.acc_matrix == ablated.acc_matrix
    assert full.task_losses == ablated.task_losses


# -- scoped steps --------------------------------------------------------------------


def three_task_trainer():
    """A trainer that has learned tasks 1 and 2 (so its memory holds rows of
    both) and has registered task 3, with task 3's first partition."""
    trainer, stream = fresh_trainer(budget=6)
    for task in stream.tasks[:2]:
        trainer.train_task(task)
    train, val = first_partition(trainer, replace(stream, tasks=stream.tasks[2:]))
    assert set(train[1].t.tolist()) == {1, 2}
    return trainer, train, val


def unscoped_step(trainer, kind, part):
    """One step on ``part`` (a ``(batch, draw)`` pair) the way a fully taped
    graph takes it: every parameter records, ``backward`` fills every
    gradient the loss reaches, and the step's group moves where it has one."""
    model, config = trainer.model, trainer.config
    zero_grads(model.all_params())
    if kind == "adversarial":
        batch = part[0]
        n_fake = max(1, round(config.fake_fraction * len(batch.x)))
        fake = noise_batch(config, trainer.noise_rng, n_fake, model.input_dim)
        x = np.concatenate([batch.x, fake])
        labels = np.concatenate([
            np.full(len(batch.x), batch.task_id, dtype=np.int64),
            np.zeros(n_fake, dtype=np.int64)])
        draw = trainer.memory.sample(config.replay_batch_size,
                                     trainer.replay_rng)
        loss = discriminator_loss(model, x, labels, draw, config)
        params, lr = model.discriminator_params(), config.adversarial_lr
    else:
        loss = total_loss(model, *part, config)
        if kind == "inner":
            params = model.extractor_params() + model.head_params()
            lr = config.inner_lr
        else:
            params, lr = model.generator_params(), config.outer_lr
    backward(loss)
    sgd_step([p for p in params if p.grad is not None], lr)
    return loss.item()


@pytest.mark.parametrize("kind", ["inner", "outer", "adversarial"])
def test_scoped_step_is_bitwise_equal_to_unscoped(kind):
    scoped, train, val = three_task_trainer()
    plain, _, _ = three_task_trainer()
    part = val if kind == "outer" else train
    step = {"inner": scoped.inner_step, "outer": scoped.outer_step,
            "adversarial": lambda batch, _: scoped.adversarial_step(batch)}[kind]
    if kind == "outer":
        # the outer step leaves out lam3 * alignment, which reaches no
        # generator parameter; the taped total adds that term last, so the
        # two differ by exactly that one float add
        config = scoped.config
        assert config.lambda3 != 0
        alignment = (config.lambda3 * adversarial_generator_loss(
            scoped.model, *part, config)).item()
        assert step(*part) + alignment == unscoped_step(plain, kind, part)
    else:
        assert step(*part) == unscoped_step(plain, kind, part)
    for p, q in zip(scoped.model.all_params(), plain.model.all_params()):
        assert p.data.tobytes() == q.data.tobytes()
        assert p.requires_grad and p.grad is None
    before, _, _ = three_task_trainer()
    assert not unchanged(scoped.model.all_params(),
                         snapshot(before.model.all_params()))


@pytest.mark.parametrize("method, ablation", list(PLANS))
def test_inner_step_moves_the_heads_its_loss_reaches(method, ablation):
    # tasks 1-3 registered, a draw of task-1 rows, a batch of task 3: the
    # step moves the extractor and heads 1 and 3, and head 2, which no
    # forward of the step reads, keeps its bytes; fine-tuning keeps no
    # memory, so its draw is empty and only head 3 moves
    trainer, stream = fresh_trainer(ablation, budget=6, method=method)
    trainer.train_task(stream.tasks[0])
    model = trainer.model
    for task in stream.tasks[1:]:
        model.register_task(task.task_id)
    draw = trainer.memory.sample(trainer.config.replay_batch_size,
                                 trainer.replay_rng)
    assert set(draw.t.tolist()) == (set() if method == "finetune" else {1})
    task = stream.tasks[2]
    batch = next(batches(task.train, trainer.config.batch_size,
                         [trainer.seed, 10, task.task_id],
                         task_id=task.task_id))
    heads = {k: list(model.head(k)) for k in (1, 2, 3)}
    before = {k: snapshot(params) for k, params in heads.items()}
    extractor = snapshot(model.extractor_params())
    trainer.inner_step(batch, draw)
    assert not unchanged(model.extractor_params(), extractor)
    moved = {k for k in heads if not unchanged(heads[k], before[k])}
    assert moved == ({3} if method == "finetune" else {1, 3})


def tape_nodes(loss):
    """Every node on ``loss``'s tape."""
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop().node
        if node is not None and id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node.inputs)
    return list(nodes.values())


def tape_inputs(loss):
    """ids of every tensor that is an input of a node on ``loss``'s tape."""
    return {id(t) for node in tape_nodes(loss) for t in node.inputs}


def frozen_work(loss, params):
    """Nodes on ``loss``'s tape that reach none of ``params``: no input is
    one of them or the output of another node."""
    keep = {id(p) for p in params}
    return [node for node in tape_nodes(loss)
            if not any(id(t) in keep or t.node is not None
                       for t in node.inputs)]


def recorded_loss(trainer, part, params):
    """The step loss on ``part`` (a ``(batch, draw)`` pair) as the trainer
    tapes it for ``params``, in one ``_step`` on them."""
    recorded = []

    def make_loss():
        recorded.append(total_loss(trainer.model, *part, trainer.config))
        return recorded[-1]

    trainer._step(params, make_loss, trainer.config.inner_lr, "loss")
    return recorded[0]


def test_inner_step_tapes_no_generator_parameter():
    trainer, train, _ = three_task_trainer()
    model = trainer.model
    params = model.extractor_params() + model.head_params()
    generator = model.generator_params()
    ids = {id(p) for p in generator}
    # the fully taped loss does reach the generator, so the guard can fail
    full = total_loss(model, *train, trainer.config)
    assert ids & tape_inputs(full)
    backward(full)
    assert any(p.grad is not None for p in generator)
    scoped = recorded_loss(trainer, train, params)
    assert all(p.grad is None for p in generator)
    assert not ids & tape_inputs(scoped)
    assert not frozen_work(scoped, params)


def test_outer_step_tapes_only_generator_work():
    # the extractor's later layers and the heads stay constant operands of
    # generator-dependent nodes; what must not be taped is work that reaches
    # no generator parameter: the first layer, the discriminator, alignment
    trainer, _, val = three_task_trainer()
    model = trainer.model
    params = model.generator_params()
    full = total_loss(model, *val, trainer.config)
    scoped = recorded_loss(trainer, val, params)
    untouched = {id(p) for p in list(model.extractor.layers[0])
                 + model.discriminator_params()}
    assert frozen_work(full, params)
    assert not frozen_work(scoped, params)
    assert not untouched & tape_inputs(scoped)
    assert len(tape_nodes(scoped)) < len(tape_nodes(full))


def test_step_tape_sizes_are_pinned(monkeypatch):
    # every loss term is one node: inner = CE + DER++ + their add, then
    # the alignment node, its lam3 mul and the final add = 3 + 3; outer =
    # CE + DER++ + add; adversarial = the discriminator-loss node
    trainer, train, val = three_task_trainer()
    sizes = []

    def counted(loss):
        sizes.append(len(tape_nodes(loss)))
        backward(loss)

    monkeypatch.setattr(trainer_module, "backward", counted)
    trainer.inner_step(*train)
    trainer.outer_step(*val)
    trainer.adversarial_step(train[0])
    assert sizes == [6, 3, 1]


def count_trunk_passes(monkeypatch):
    """A list that ``FeatureExtractor.forward`` appends to on every call."""
    passes = []
    forward = networks.FeatureExtractor.forward

    def counted(*args, **kwargs):
        passes.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(networks.FeatureExtractor, "forward", counted)
    return passes


def test_step_trunk_passes_are_pinned(monkeypatch):
    # every loss node runs the trunk itself, not through
    # FeatureExtractor.forward, so no step makes a trunk pass of its own;
    # only the reference chain (tests/reference.py) calls it
    trainer, train, val = three_task_trainer()
    passes = count_trunk_passes(monkeypatch)
    for step in (lambda: trainer.inner_step(*train),
                 lambda: trainer.outer_step(*val),
                 lambda: trainer.adversarial_step(train[0])):
        step()
        assert passes == []


def count_plans(monkeypatch):
    """(built, planned): every ``TaskForward`` built, and each one again
    every time it plans its backward."""
    built, planned = [], []
    init, plan = autodiff.TaskForward.__init__, autodiff.TaskForward._plan

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_plan(self):
        planned.append(self)
        return plan(self)

    monkeypatch.setattr(autodiff.TaskForward, "__init__", counted_init)
    monkeypatch.setattr(autodiff.TaskForward, "_plan", counted_plan)
    return built, planned


def test_each_loss_forward_plans_once_per_step(monkeypatch):
    # inner: CE, DER++ and alignment forwards; outer: CE and DER++;
    # adversarial: the discriminator's. Each plans when its loss node is
    # built, and backward reuses that plan
    trainer, train, val = three_task_trainer()
    built, planned = count_plans(monkeypatch)
    for step, forwards in ((lambda: trainer.inner_step(*train), 3),
                           (lambda: trainer.outer_step(*val), 2),
                           (lambda: trainer.adversarial_step(train[0]), 1)):
        built.clear()
        planned.clear()
        step()
        assert len(built) == forwards
        assert planned == built


def test_inference_tapes_nothing_and_plans_no_backward(monkeypatch):
    # evaluation and both snapshots read forwards no loss is built on
    trainer, stream = fresh_trainer()
    trainer.train_task(stream.tasks[0])
    model, x = trainer.model, stream.tasks[0].test.x
    built, planned = count_plans(monkeypatch)
    first_node = next(autodiff._node_seq)
    evaluate(model, stream.tasks[:1])
    model.snapshot_logits(x, 1)
    model.snapshot_disc_logits(x)
    assert len(built) == 3 and planned == []
    assert next(autodiff._node_seq) == first_node + 1  # no node recorded
    assert all(p.grad is None for p in model.all_params())


@pytest.mark.parametrize("method", ["scale", "er"])
def test_training_and_evaluation_make_no_layer_path_trunk_pass(monkeypatch,
                                                               method):
    # snapshots and evaluation read a one-group TaskForward, as the loss
    # nodes do, so a whole task's training and its evaluation never run the
    # reference path
    stream = small_stream()
    trainer = build_trainer(stream, small_config(method=method), 0)
    passes = count_trunk_passes(monkeypatch)
    for task in stream.tasks[:2]:  # the second task draws memory rows
        trainer.train_task(task)
    evaluate(trainer.model, stream.tasks[:2])
    assert passes == []


# -- non-finite losses ----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["inner", "outer", "adversarial"])
def test_non_finite_loss_fails_fast_naming_step_and_task(kind):
    trainer, stream = fresh_trainer()
    trainer.train_task(stream.tasks[0])  # the draws then hold memory rows
    (clean, draw), _ = first_partition(
        trainer, replace(stream, tasks=stream.tasks[1:]))
    x = clean.x.copy()
    x[0] = np.nan
    batch = TaskBatch(x, clean.y, clean.task_id)
    step = {"inner": lambda: trainer.inner_step(batch, draw),
            "outer": lambda: trainer.outer_step(batch, draw),
            "adversarial": lambda: trainer.adversarial_step(batch)}[kind]
    before = snapshot(trainer.model.all_params())
    with pytest.raises(FloatingPointError,
                       match=f"{kind}-step loss on task {batch.task_id} "):
        step()
    assert unchanged(trainer.model.all_params(), before)
    # a NaN memory row reaches the loss nodes through the draw: every stored
    # row gets one, so the partition's draws and the adversarial step's own
    # draw hold it whichever rows they pick
    rows = trainer.memory.rows()
    x = rows.x.copy()
    x[:, 0] = np.nan
    trainer.state.memory = EpisodicMemory.from_rows(
        trainer.memory.budget_per_task, replace(rows, x=x),
        trainer.memory.seen_counts, trainer.memory.rng)
    draw, _ = trainer.memory.partition(trainer.partition_rng,
                                       trainer.config.replay_batch_size)
    step = {"inner": lambda: trainer.inner_step(clean, draw),
            "outer": lambda: trainer.outer_step(clean, draw),
            "adversarial": lambda: trainer.adversarial_step(clean)}[kind]
    with pytest.raises(FloatingPointError,
                       match=f"{kind}-step loss on task {batch.task_id} "):
        step()
    assert unchanged(trainer.model.all_params(), before)


def test_replay_trainer_fails_fast_on_non_finite_loss():
    stream = small_stream(seed=6)
    config = small_config(method="er")
    rt = Trainer(build_model(stream, config, 6),
                 EpisodicMemory(5, rng=np.random.default_rng(0)), config, 6)
    task = stream.tasks[0]
    x = task.train.x.copy()
    x[:, 0] = np.nan
    poisoned = replace(task, train=Split(x, task.train.y))
    before = snapshot(rt.model.extractor_params())
    # ER's one step per round is the inner step
    with pytest.raises(FloatingPointError,
                       match=f"inner-step loss on task {task.task_id} "):
        rt.train_task(poisoned)
    assert unchanged(rt.model.extractor_params(), before)
    assert rt.state.inner_updates == 0
