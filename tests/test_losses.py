"""Loss tests: closed forms, stop-gradient contracts, additivity, dynamics."""

from dataclasses import replace

import numpy as np
import pytest

from metacl import losses as losses_module
from metacl import networks
from metacl.autodiff import backward, grad_only, sgd_step, zero_grads
from metacl.config import RunConfig
from metacl.errors import ConfigurationError, ContractError, MemoryConsistencyError
from metacl.losses import (
    adversarial_generator_loss,
    ce_loss,
    classification_loss,
    derpp_loss,
    discriminator_loss,
    noise_batch,
    total_loss,
)
from metacl.memory import make_entry
from metacl.networks import ContinualModel
from metacl.trainer import effective_config

from helpers import check_gradients, derpp_on_ce, draw_of
from reference import (
    discriminate,
    extract,
    reference_alignment,
    reference_ce_loss,
    reference_classification_loss,
    reference_derpp_loss,
    reference_discriminator_loss,
    reference_total_loss,
)


class Batch:
    def __init__(self, x, y, task_id):
        self.x = np.asarray(x, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.int64)
        self.task_id = task_id


def flat_model(classes=2, dim=3, **kw):
    """Small model with the task transform off, for hand-computable logits."""
    kw.setdefault("transform_mode", "off")
    kw.setdefault("feature_width", 8)
    kw.setdefault("depth", 2)
    kw.setdefault("k_max", 4)
    kw.setdefault("embed_dim", 4)
    kw.setdefault("disc_hidden", 6)
    kw.setdefault("head_mode", "multi")
    kw.setdefault("share_embedding", True)
    kw.setdefault("seed", 3)
    return ContinualModel(dim, classes, **kw)


def zero_head(model, task_id, bias=None):
    w, b = model.heads.heads[task_id]
    w.data[:] = 0.0
    b.data[:] = 0.0
    if bias is not None:
        b.data[:] = bias


# -- ce_loss -------------------------------------------------------------------


def test_ce_uniform_logits_two_classes():
    model = flat_model()
    model.register_task(1)
    zero_head(model, 1)
    batch = Batch(np.random.default_rng(0).normal(size=(5, 3)), [0, 1, 0, 1, 0], 1)
    assert abs(ce_loss(model, batch).item() - np.log(2)) < 1e-12


def test_ce_saturated_logits_near_zero():
    model = flat_model()
    model.register_task(1)
    zero_head(model, 1, bias=[100.0, 0.0])
    batch = Batch(np.zeros((4, 3)), [0, 0, 0, 0], 1)
    assert ce_loss(model, batch).item() < 1e-12


def test_ce_mixed_batch_matches_per_sample_mean():
    model = flat_model()
    model.register_task(1)
    model.register_task(2)
    rng = np.random.default_rng(1)
    batch = Batch(rng.normal(size=(3, 3)), [0, 1, 0], 1)
    entries = [make_entry(rng.normal(size=3), y=i % 2, t=2, h=np.zeros(2))
               for i in range(2)]

    def sample_ce(x, y, t):
        logits = model.snapshot_logits(x[None, :], t)[0]
        stable = logits - logits.max()
        return -(stable[y] - np.log(np.exp(stable).sum()))

    per_sample = [sample_ce(batch.x[i], batch.y[i], 1) for i in range(3)]
    per_sample += [sample_ce(e.x, e.y, 2) for e in entries]
    got = ce_loss(model, batch, draw_of(entries)).item()
    assert abs(got - np.mean(per_sample)) < 1e-12


def test_ce_empty_is_error():
    model = flat_model()
    model.register_task(1)
    with pytest.raises(ContractError):
        ce_loss(model, Batch(np.zeros((0, 3)), [], 1), draw_of([]))


# -- derpp_loss -----------------------------------------------------------------


def test_derpp_identity_snapshots_zero():
    model = flat_model()
    model.register_task(1)
    rng = np.random.default_rng(2)
    entries = []
    for i in range(4):
        x = rng.normal(size=3)
        h = model.snapshot_logits(x[None, :], 1)[0]
        entries.append(make_entry(x, y=i % 2, t=1, h=h))
    loss = derpp_on_ce(model, draw_of(entries),
                       RunConfig(lambda1=1.0, lambda2=0.0))
    assert abs(loss.item()) < 1e-12


def test_derpp_hand_case_l2_five():
    model = flat_model()
    model.register_task(1)
    zero_head(model, 1, bias=[3.0, 4.0])
    entry = make_entry(np.zeros(3), y=0, t=1, h=np.zeros(2))
    loss = derpp_on_ce(model, draw_of([entry]),
                       RunConfig(lambda1=1.0, lambda2=0.0))
    assert abs(loss.item() - 5.0) < 1e-12


def test_derpp_lambda1_zero_reduces_to_memory_ce():
    model = flat_model()
    model.register_task(1)
    rng = np.random.default_rng(3)
    entries = [make_entry(rng.normal(size=3), y=i % 2, t=1, h=np.zeros(2))
               for i in range(5)]
    reduced = derpp_on_ce(model, draw_of(entries),
                          RunConfig(lambda1=0.0, lambda2=2.5))
    plain = ce_loss(model, None, draw_of(entries))
    assert abs(reduced.item() - 2.5 * plain.item()) < 1e-12


def test_derpp_snapshot_width_mismatch():
    model = flat_model()
    model.register_task(1)
    entry = make_entry(np.zeros(3), y=0, t=1, h=np.zeros(3))
    with pytest.raises(MemoryConsistencyError, match="shape"):
        derpp_on_ce(model, draw_of([entry]), RunConfig())


def test_derpp_missing_snapshot():
    model = flat_model()
    model.register_task(1)
    entry = make_entry(np.zeros(3), y=0, t=1, h=None)
    with pytest.raises(MemoryConsistencyError, match="lacks"):
        derpp_on_ce(model, draw_of([entry]), RunConfig())


def test_derpp_memory_task_after_the_batch_task_is_error():
    # dark replay reuses CE's forward, whose last group must be the batch's
    model, batch, memory = node_setup(batch_task=1, draw_tasks=(1, 2))
    shared = {}
    ce_loss(model, batch, memory, shared)
    with pytest.raises(ContractError, match="after the batch's task 1"):
        derpp_loss(model, memory, RunConfig(), shared)


def test_derpp_empty_memory_is_zero():
    model = flat_model()
    assert derpp_on_ce(model, draw_of([]), RunConfig()).item() == 0.0
    assert derpp_on_ce(model, None, RunConfig()).item() == 0.0


# -- adversarial generator side ----------------------------------------------------


def test_alignment_single_task_returns_zero():
    model = flat_model()
    model.register_task(1)
    batch = Batch(np.zeros((2, 3)), [0, 1], 1)
    assert adversarial_generator_loss(model, batch, None, RunConfig()).item() == 0.0


def test_alignment_uniform_over_real_labels_is_log_k():
    model = flat_model()
    model.register_task(1)
    model.register_task(2)
    for p in model.discriminator_params():
        p.data[:] = 0.0
    # push all probability mass off the fake class
    model.discriminator.b2.data[0] = -1e9
    batch = Batch(np.random.default_rng(0).normal(size=(4, 3)), [0, 1, 0, 1], 1)
    loss = adversarial_generator_loss(model, batch, None, RunConfig())
    assert abs(loss.item() - np.log(2)) < 1e-12


def test_alignment_log_k_is_the_minimum():
    model = flat_model()
    model.register_task(1)
    model.register_task(2)
    for p in model.discriminator_params():
        p.data[:] = 0.0
    model.discriminator.b2.data[0] = -1e9
    model.discriminator.b2.data[1] = 1.0  # tilt away from uniform
    batch = Batch(np.random.default_rng(0).normal(size=(4, 3)), [0, 1, 0, 1], 1)
    loss = adversarial_generator_loss(model, batch, None, RunConfig())
    assert loss.item() > np.log(2)


def test_alignment_stop_gradient_on_discriminator():
    model = flat_model(seed=5)
    model.register_task(1)
    model.register_task(2)
    batch = Batch(np.random.default_rng(0).normal(size=(6, 3)), [0, 1] * 3, 1)
    loss = adversarial_generator_loss(model, batch, None, RunConfig())
    backward(loss)
    assert all(p.grad is None for p in model.discriminator_params())
    ext_grads = [p.grad for p in model.extractor_params()]
    assert any(g is not None and np.any(g != 0) for g in ext_grads)


def test_alignment_negative_ce_mode():
    model = flat_model(seed=5)
    model.register_task(1)
    model.register_task(2)
    batch = Batch(np.random.default_rng(0).normal(size=(4, 3)), [0, 1, 0, 1], 1)
    cfg = RunConfig(generator_mode="negative-ce")
    loss = adversarial_generator_loss(model, batch, None, cfg)
    assert loss.item() <= 0.0
    backward(loss)
    assert all(p.grad is None for p in model.discriminator_params())


def test_adversarial_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(generator_mode="gradient-reversal")
    with pytest.raises(ConfigurationError):
        RunConfig(noise_std=0.0)
    with pytest.raises(ConfigurationError):
        RunConfig(lambda1=-0.1)


# -- discriminator side -------------------------------------------------------------


def test_discriminator_requires_noise_rows():
    model = flat_model()
    model.register_task(1)
    x = np.random.default_rng(0).normal(size=(3, 3))
    with pytest.raises(ContractError):
        discriminator_loss(model, x, [1, 1, 1], None, RunConfig())


def test_discriminator_uniform_is_log3():
    model = flat_model()
    model.register_task(1)
    model.register_task(2)
    for p in model.discriminator_params():
        p.data[:] = 0.0
    x = np.random.default_rng(0).normal(size=(6, 3))
    loss = discriminator_loss(model, x, [0, 0, 1, 1, 2, 2], None, RunConfig())
    assert abs(loss.item() - np.log(3)) < 1e-12


def test_discriminator_perfect_separation_near_zero():
    # identity-ish extractor on non-negative inputs, hand-built separator
    model = ContinualModel(2, 2, feature_width=2, depth=2, k_max=3,
                           embed_dim=4, disc_hidden=2, transform_mode="off",
                           head_mode="multi", share_embedding=True, seed=0)
    model.register_task(1)
    for (w, b) in model.extractor.layers:
        w.data[:] = np.eye(2)
        b.data[:] = 0.0
    d = model.discriminator
    d.w1.data[:] = np.eye(2)
    d.b1.data[:] = 0.0
    d.w2.data[:] = 0.0
    d.w2.data[0, 1] = 20.0  # feature axis 0 → task 1
    d.w2.data[1, 0] = 20.0  # feature axis 1 → fake
    d.b2.data[:] = 0.0
    x = np.array([[10.0, 0.0], [0.0, 10.0]])
    loss = discriminator_loss(model, x, [1, 0], None, RunConfig())
    assert loss.item() < 1e-12


def test_discriminator_stop_gradient_on_features():
    model = flat_model(seed=5)
    model.register_task(1)
    model.register_task(2)
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(size=(4, 3)),
                        noise_batch(RunConfig(), rng, 4, 3)])
    labels = [1, 1, 2, 2, 0, 0, 0, 0]
    entries = [make_entry(rng.normal(size=3), y=0, t=1, h=np.zeros(2),
                          h_disc=np.zeros(2)) for _ in range(3)]
    loss = discriminator_loss(model, x, labels, draw_of(entries), RunConfig())
    backward(loss)
    for p in (model.extractor_params() + model.generator_params()
              + model.head_params()):
        assert p.grad is None
    assert all(p.grad is not None for p in model.discriminator_params())


def test_discriminator_dark_replay_identity_term():
    model = flat_model(seed=5)
    model.register_task(1)
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(size=(2, 3)),
                        noise_batch(RunConfig(), rng, 2, 3)])
    labels = [1, 1, 0, 0]
    mem_x = rng.normal(size=3)
    snap = model.snapshot_disc_logits(mem_x[None, :])[0]
    entry = make_entry(mem_x, y=0, t=1, h=np.zeros(2), h_disc=snap)
    with_mem = discriminator_loss(model, x, labels, draw_of([entry]),
                                  RunConfig(lambda1=1.0, lambda2=0.0))
    without = discriminator_loss(model, x, labels, None, RunConfig())
    assert abs(with_mem.item() - without.item()) < 1e-12


def test_discriminator_snapshot_width_check():
    model = flat_model(seed=5)
    model.register_task(1)
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(size=(2, 3)),
                        noise_batch(RunConfig(), rng, 2, 3)])
    entry = make_entry(rng.normal(size=3), y=0, t=1, h=np.zeros(2),
                       h_disc=np.zeros(5))
    with pytest.raises(MemoryConsistencyError, match="width 5"):
        discriminator_loss(model, x, [1, 1, 0, 0], draw_of([entry]), RunConfig())


# -- total loss -----------------------------------------------------------------------


def build_rich_setup(seed=9):
    model = ContinualModel(3, 2, feature_width=8, depth=2, k_max=4,
                           embed_dim=4, disc_hidden=6,
                           transform_mode="per_layer", head_mode="multi",
                           share_embedding=True, seed=seed)
    model.register_task(1)
    model.register_task(2)
    rng = np.random.default_rng(seed)
    batch = Batch(rng.normal(size=(5, 3)), rng.integers(0, 2, size=5), 2)
    entries = []
    for i in range(6):
        x = rng.normal(size=3)
        t = 1 + i % 2
        entries.append(make_entry(
            x, y=i % 2, t=t,
            h=model.snapshot_logits(x[None, :], t)[0] + rng.normal(size=2),
            h_disc=model.snapshot_disc_logits(x[None, :])[0]))
    return model, batch, draw_of(entries)


def test_total_loss_additivity():
    model, batch, memory = build_rich_setup()
    config = RunConfig(lambda1=1.0, lambda2=1.0, lambda3=0.03)
    total = total_loss(model, batch, memory, config).item()
    parts = (ce_loss(model, batch, memory).item()
             + derpp_on_ce(model, memory, config).item()
             + config.lambda3
             * adversarial_generator_loss(model, batch, memory, config).item())
    assert abs(total - parts) <= 1e-12


def test_total_loss_zero_weights_is_plain_ce():
    model, batch, memory = build_rich_setup()
    config = RunConfig(lambda1=0.0, lambda2=0.0, lambda3=0.0)
    total = total_loss(model, batch, memory, config).item()
    assert abs(total - ce_loss(model, batch, memory).item()) <= 1e-12


def test_total_loss_gradient_partitioning():
    model, batch, memory = build_rich_setup()
    loss = total_loss(model, batch, memory, RunConfig())
    backward(loss)
    assert all(p.grad is None for p in model.discriminator_params())
    for group in (model.extractor_params(), model.generator_params(),
                  model.head_params()):
        assert any(p.grad is not None and np.any(p.grad != 0) for p in group)


# -- one task-vectorised node per loss: bitwise oracle -----------------------------


# name -> (the loss as built, its per-task reference chain)
NODE_LOSSES = {
    "ce_loss": (lambda model, batch, memory, config:
                ce_loss(model, batch, memory),
                lambda model, batch, memory, config:
                reference_ce_loss(model, batch, memory)),
    "derpp_loss": (lambda model, batch, memory, config:
                   derpp_on_ce(model, memory, config),
                   lambda model, batch, memory, config:
                   reference_derpp_loss(model, memory, config)),
    "classification_loss": (classification_loss,
                            reference_classification_loss),
    "total_loss": (total_loss, reference_total_loss),
    "adversarial_generator_loss": (adversarial_generator_loss,
                                   reference_alignment),
}


def node_setup(transform="per_layer", heads="multi", batch_task=2,
               share_embedding=True, draw_tasks=(1, 2), n_tasks=3, n_rows=9,
               seed=12, width=8, classes=2):
    """``n_tasks`` registered tasks of ``classes`` classes; a draw of
    ``n_rows`` rows interleaving ``draw_tasks``, with perturbed snapshots; a
    batch of ``batch_task``."""
    model = ContinualModel(3, classes, feature_width=width, depth=2,
                           k_max=n_tasks + 1,
                           embed_dim=4, disc_hidden=6, transform_mode=transform,
                           head_mode=heads, share_embedding=share_embedding,
                           seed=seed)
    for task in range(1, n_tasks + 1):
        model.register_task(task)
    rng = np.random.default_rng(seed)
    batch = Batch(rng.normal(size=(5, 3)), rng.integers(0, classes, size=5),
                  batch_task)
    entries = []
    for i in range(n_rows):
        x = rng.normal(size=3)
        t = draw_tasks[(7 * i + i // 3) % len(draw_tasks)]
        entries.append(make_entry(
            x, y=i % classes, t=t,
            h=(model.snapshot_logits(x[None, :], t)[0]
               + rng.normal(size=classes)),
            h_disc=model.snapshot_disc_logits(x[None, :])[0]))
    return model, batch, draw_of(entries)


def contributions(loss):
    """Back-propagate ``loss``, recording per leaf the (shape, bytes) of each
    gradient contribution that reaches it, in arrival order."""
    added, nodes, stack = {}, set(), [loss]
    while stack:
        node = stack.pop().node
        if node is not None and node not in nodes:
            nodes.add(node)
            stack.extend(node.inputs)
    for node in nodes:
        def recorded(g, fn=node.backward_fn, inputs=node.inputs):
            grads = list(fn(g))
            for t, grad in zip(inputs, grads):
                if grad is not None and t.node is None and t.requires_grad:
                    added.setdefault(id(t), []).append(
                        (np.shape(grad), np.asarray(grad).tobytes()))
            return grads
        node.backward_fn = recorded
    backward(loss)
    return added


def taped(model, params, make_loss):
    """The loss's bytes, every parameter's gradient (shape and bytes, or
    None) and every leaf's contributions, with only ``params`` taped."""
    among = model.all_params()
    zero_grads(among)
    with grad_only(params, among):
        loss = make_loss()
        added = contributions(loss)
    grads = [None if p.grad is None else (p.grad.shape, p.grad.tobytes())
             for p in among]
    zero_grads(among)
    return loss.data.tobytes(), grads, added


def param_groups(model):
    return {"all": model.all_params(),
            "extractor": model.extractor_params(),
            "heads": model.head_params(),
            "generator": model.generator_params(),
            "discriminator": model.discriminator_params(),
            # part of a layer taped: FiLM's and the trunk's per-flag paths
            "generator-but-shift-bias": [
                p for p in model.generator_params()
                if all(p is not b_shift for (_, (_, b_shift))
                       in model.generator.heads)],
            "extractor-weights": [w for w, _ in model.extractor.layers]}


def assert_taped_alike(model, built, reference, label):
    """With each parameter group taped alone and with all taped, ``built()``
    and ``reference()`` give the same loss bytes, every gradient (None where
    the reference leaves it None) and every leaf's contributions in arrival
    order."""
    for group, params in param_groups(model).items():
        got = taped(model, params, built)
        want = taped(model, params, reference)
        assert got[0] == want[0], (label, group, "loss")
        assert got[1] == want[1], (label, group, "gradients")
        assert got[2] == want[2], (label, group, "contributions")


def assert_nodes_match_reference(model, batch, memory, config,
                                 names=tuple(NODE_LOSSES)):
    """``assert_taped_alike`` for each named loss against its chain."""
    for name in names:
        built, reference = NODE_LOSSES[name]
        assert_taped_alike(model,
                           lambda: built(model, batch, memory, config),
                           lambda: reference(model, batch, memory, config),
                           name)


@pytest.mark.parametrize("ablation", ["full", "A", "B"])
@pytest.mark.parametrize("transform", ["per_layer", "last", "off"])
@pytest.mark.parametrize("share_embedding", [True, False],
                         ids=["shared-table", "table-per-layer"])
@pytest.mark.parametrize("heads", ["multi", "single"])
@pytest.mark.parametrize("batch_task", [2, 3], ids=["in-draw", "not-in-draw"])
def test_loss_nodes_are_bitwise_equal_to_the_per_task_chain(
        ablation, transform, share_embedding, heads, batch_task):
    model, batch, memory = node_setup(transform, heads, batch_task,
                                      share_embedding)
    config = effective_config(replace(RunConfig(lambda3=0.3),
                                      ablation=ablation))
    assert_nodes_match_reference(model, batch, memory, config)


@pytest.mark.parametrize("heads", ["multi", "single"])
@pytest.mark.parametrize("batch_task", [13, 14], ids=["in-draw", "not-in-draw"])
def test_loss_nodes_match_the_chain_with_many_tasks_in_the_draw(heads,
                                                                batch_task):
    model, batch, memory = node_setup(heads=heads, batch_task=batch_task,
                                      draw_tasks=tuple(range(1, 14)),
                                      n_tasks=14, n_rows=30)
    assert len(np.unique(memory.t)) >= 12
    assert_nodes_match_reference(model, batch, memory, RunConfig(lambda3=0.3))


@pytest.mark.parametrize("heads", ["multi", "single"])
def test_loss_nodes_match_the_chain_with_wide_heads(heads):
    # past eight columns numpy sums each row's terms pairwise, so the CE
    # and dark-replay nodes' per-row sums must run over exactly a row's
    # columns, as the chains' do
    model, batch, memory = node_setup(heads=heads, batch_task=3,
                                      draw_tasks=(1, 2, 3), n_rows=30,
                                      classes=11)
    assert memory.h.shape[1] == 11 and len(np.unique(memory.t)) == 3
    assert_nodes_match_reference(model, batch, memory, RunConfig(lambda3=0.3))


def test_loss_nodes_match_the_chain_at_feature_width_one():
    # the FiLM gradient sums each group's rows of g * features and of g in
    # one call, but not at width 1, where numpy sums a lone column pairwise:
    # groups of more than eight rows would tell the two apart
    model, batch, memory = node_setup(width=1, n_rows=30)
    assert_nodes_match_reference(model, batch, memory, RunConfig(lambda3=0.3))


def test_loss_nodes_read_requires_grad_when_recorded():
    # like a primitive op, a node built inside grad_only keeps its scope when
    # back-propagated after the block has switched every flag back on
    model, batch, memory = node_setup()
    config = RunConfig()
    got, want = [], []
    for built, out in ((classification_loss, got),
                       (reference_classification_loss, want)):
        among = model.all_params()
        zero_grads(among)
        with grad_only(model.generator_params(), among):
            loss = built(model, batch, memory, config)
        backward(loss)
        out += [None if p.grad is None else p.grad.tobytes() for p in among]
        zero_grads(among)
    assert got == want
    assert all(g is None for g in got[:len(model.extractor_params())])


def test_ablation_b_classification_loss_equals_the_zero_weighted_chain():
    # ablation B builds no dark-replay term; the chain that builds it with
    # zero weights gives the same loss and the same gradient values
    model, batch, memory = node_setup()
    config = effective_config(replace(RunConfig(), ablation="B"))

    def zero_weighted():
        return (reference_ce_loss(model, batch, memory)
                + reference_derpp_loss(model, memory, config))

    for params in param_groups(model).values():
        got = taped(model, params,
                    lambda: classification_loss(model, batch, memory, config))
        want = taped(model, params, zero_weighted)
        assert got[0] == want[0]
        for g, w in zip(got[1], want[1]):
            assert (g is None) == (w is None)
            if g is not None:
                assert np.array_equal(np.frombuffer(g[1]), np.frombuffer(w[1]))


def test_ce_node_lists_each_contribution_in_chain_order():
    # tasks by descending task id; per task the head, then per layer from
    # the last down its FiLM (table, scale map, shift map) and its affine
    # map; the shared table once per (task, layer)
    model, batch, memory = node_setup()
    loss = ce_loss(model, batch, memory)
    table = model.generator.embeddings[0]
    expected = []
    for task in (2, 1):
        expected += list(model.heads.head(task))
        for index in (1, 0):
            _, *maps = model.generator.layer(index)
            expected += [table, *maps, *model.extractor.layers[index]]
    assert [id(t) for t in loss.node.inputs] == [id(t) for t in expected]
    assert sum(t is table for t in loss.node.inputs) == 2 * 2


def test_dark_replay_node_comes_after_ce_and_runs_no_trunk_layer(monkeypatch):
    model, batch, memory = node_setup()
    passes = []
    monkeypatch.setattr(networks.FeatureExtractor, "forward",
                        lambda *args, **kwargs: passes.append(1))
    loss = classification_loss(model, batch, memory, RunConfig())
    ce, derpp = loss.node.inputs
    assert derpp.node.seq > ce.node.seq
    assert passes == []


@pytest.mark.parametrize("group", ["extractor", "heads", "generator"])
@pytest.mark.parametrize("name", sorted(NODE_LOSSES))
def test_loss_nodes_match_finite_differences(name, group):
    model, batch, memory = node_setup(batch_task=2)
    config = RunConfig(lambda3=0.3)
    built = NODE_LOSSES[name][0]
    check_gradients(lambda: built(model, batch, memory, config),
                    param_groups(model)[group], rtol=1e-4)


@pytest.mark.parametrize("mode", ["uniform-confusion", "negative-ce"])
@pytest.mark.parametrize("transform", ["per_layer", "last", "off"])
@pytest.mark.parametrize("memory", ["draw", "none"])
def test_alignment_node_is_bitwise_equal_to_the_chain(mode, transform, memory):
    model, batch, draw = node_setup(transform)
    draw = draw if memory == "draw" else None
    config = RunConfig(lambda3=0.3, generator_mode=mode)
    names = ["adversarial_generator_loss"]
    if draw is not None:
        names.append("total_loss")
    assert_nodes_match_reference(model, batch, draw, config, names)


@pytest.mark.parametrize("mode", ["uniform-confusion", "negative-ce"])
def test_alignment_node_matches_finite_differences(mode):
    model, batch, memory = node_setup()
    config = RunConfig(generator_mode=mode)
    check_gradients(
        lambda: adversarial_generator_loss(model, batch, memory, config),
        model.extractor_params(), rtol=1e-4)


def disc_setup(widths, n_tasks=3, n_rows=9, transform="per_layer", seed=12):
    """``n_tasks`` registered tasks; today's rows (a batch of the last task
    plus noise) with their labels; and a draw of ``n_rows`` rows whose
    stored discriminator logits cycle through ``widths`` (None: no draw),
    perturbed but for the first row's."""
    model = ContinualModel(3, 2, feature_width=8, depth=2, k_max=n_tasks + 1,
                           embed_dim=4, disc_hidden=6, transform_mode=transform,
                           head_mode="multi", share_embedding=True, seed=seed)
    for task in range(1, n_tasks + 1):
        model.register_task(task)
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(size=(5, 3)),
                        noise_batch(RunConfig(), rng, 3, 3)])
    labels = np.array([n_tasks] * 5 + [0] * 3)
    if widths is None:
        return model, x, labels, None
    entries = []
    for i in range(n_rows):
        xi = rng.normal(size=3)
        width = widths[(7 * i + i // 3) % len(widths)]
        snap = discriminate(model.discriminator, extract(model, xi[None, :]),
                            width - 1).data[0, :width]
        if i:
            snap = snap + rng.normal(size=width)
        entries.append(make_entry(xi, y=i % 2, t=1 + i % n_tasks,
                                  h=np.zeros(2), h_disc=snap))
    memory = draw_of(entries)
    assert set(memory.h_disc_width.tolist()) == set(widths)
    return model, x, labels, memory


DISC_DRAWS = {"no-memory": None, "one-width": (4,),
              "every-width": (1, 2, 3, 4)}
DISC_WEIGHTS = {"both": (1.0, 0.7), "lambda1-zero": (0.0, 0.7),
                "lambda2-zero": (0.5, 0.0), "both-zero": (0.0, 0.0)}


def assert_disc_node_matches_chain(model, x, labels, memory, config):
    """``assert_taped_alike`` for the discriminator's loss, and for its
    negation, so the node's backward also meets an upstream gradient other
    than 1."""
    for sign in (1.0, -1.0):
        assert_taped_alike(
            model,
            lambda: sign * discriminator_loss(model, x, labels, memory, config),
            lambda: sign * reference_discriminator_loss(model, x, labels,
                                                        memory, config),
            ("discriminator_loss", sign))


@pytest.mark.parametrize("transform", ["per_layer", "last", "off"])
@pytest.mark.parametrize("weights", sorted(DISC_WEIGHTS))
@pytest.mark.parametrize("draw", sorted(DISC_DRAWS))
def test_discriminator_node_is_bitwise_equal_to_the_per_width_chain(
        draw, weights, transform):
    model, x, labels, memory = disc_setup(DISC_DRAWS[draw],
                                          transform=transform)
    lambda1, lambda2 = DISC_WEIGHTS[weights]
    config = RunConfig(lambda1=lambda1, lambda2=lambda2)
    assert_disc_node_matches_chain(model, x, labels, memory, config)


def test_discriminator_node_matches_the_chain_with_many_widths_in_the_draw():
    # enough rows that a norm summed over zero-padded columns, rather than
    # exactly its width's, differs from the chain's in some of them
    widths = tuple(range(2, 16))
    model, x, labels, memory = disc_setup(widths, n_tasks=14, n_rows=120)
    assert len(np.unique(memory.h_disc_width)) >= 12
    assert_disc_node_matches_chain(model, x, labels, memory, RunConfig())


@pytest.mark.parametrize("draw", ["no-memory", "every-width"])
def test_discriminator_node_matches_finite_differences(draw):
    model, x, labels, memory = disc_setup(DISC_DRAWS[draw])
    config = RunConfig(lambda1=0.5, lambda2=0.7)
    check_gradients(
        lambda: discriminator_loss(model, x, labels, memory, config),
        model.discriminator_params(), rtol=1e-4)


def test_discriminator_node_runs_no_trunk_pass(monkeypatch):
    model, x, labels, memory = disc_setup(DISC_DRAWS["every-width"])
    passes = []
    monkeypatch.setattr(networks.FeatureExtractor, "forward",
                        lambda *args, **kwargs: passes.append(1))
    loss = discriminator_loss(model, x, labels, memory, RunConfig())
    assert loss.node is not None and passes == []


def reference_grouping(t):
    """The grouping by np.argsort and np.unique that ``_grouped`` replaced."""
    keys, sizes = np.unique(t, return_counts=True)
    return np.argsort(t, kind="stable"), keys.tolist(), sizes


@pytest.mark.parametrize("seed", range(8))
def test_bincount_grouping_equals_argsort_and_unique(seed):
    rng = np.random.default_rng(seed)
    t = rng.integers(1 + seed % 2, 21, size=rng.integers(1, 90))
    order, tasks, sizes = losses_module._grouped(t)
    want_order, want_tasks, want_sizes = reference_grouping(t)
    assert order.tobytes() == want_order.tobytes()
    assert tasks == want_tasks
    assert sizes.tobytes() == want_sizes.tobytes()


@pytest.mark.parametrize("batch_task", [2, 3], ids=["in-draw", "not-in-draw"])
def test_step_losses_share_one_grouping_of_the_step_rows(batch_task,
                                                        monkeypatch):
    # CE groups the step's rows once; dark replay cuts that grouping to its
    # memory rows, which equals grouping them afresh, and the alignment term
    # reuses the step's rows
    real = losses_module._grouped
    model, batch, memory = node_setup(batch_task=batch_task)
    shared = {}
    ce_loss(model, batch, memory, shared)
    calls = []
    monkeypatch.setattr(losses_module, "_grouped",
                        lambda *args: calls.append(args) or real(*args))
    derpp_loss(model, memory, RunConfig(), shared)
    adversarial_generator_loss(model, batch, memory, RunConfig(), shared)
    assert calls == []
    _, _, _, order, tasks, sizes = shared["rows"]
    n_batch = len(batch.x)
    want = real(memory.t)
    cut = order[order >= n_batch] - n_batch
    assert cut.tobytes() == want[0].tobytes()
    assert [task for task, n in zip(tasks, sizes.tolist())
            if n - n_batch * (task == batch_task)] == want[1]


def test_losses_use_no_add_reduceat():
    # a probe found np.add.reduceat's segment sums differ from slice sums
    import inspect

    from metacl import autodiff, losses
    for module in (autodiff, losses, networks):
        assert "reduceat" not in inspect.getsource(module)


# -- adversarial dynamics on a separable toy ---------------------------------------


def real_task_accuracy(model, x, tasks):
    """Held-out task classification restricted to the real labels."""
    scores = discriminate(model.discriminator, extract(model, x),
                          model.n_seen)
    pred = scores.data[:, 1:model.n_seen + 1].argmax(axis=1) + 1
    return float(np.mean(pred == tasks))


def run_alignment_duel(seed, adversarial):
    """Classify two separable tasks while D learns task identity.

    Both arms train the classifier path and the discriminator; the
    adversarial arm additionally steps the extractor against D.
    """
    rng = np.random.default_rng(seed)
    model = ContinualModel(2, 2, feature_width=16, depth=2, k_max=3,
                           embed_dim=4, disc_hidden=8, transform_mode="off",
                           head_mode="multi", share_embedding=True,
                           seed=seed)
    model.register_task(1)
    model.register_task(2)
    # x-axis encodes the task, y-axis the class within the task
    centers = {(1, 0): (3.0, 3.0), (1, 1): (3.0, -3.0),
               (2, 0): (-3.0, 3.0), (2, 1): (-3.0, -3.0)}

    def draw(task, n):
        y = rng.integers(0, 2, size=n)
        x = np.array([centers[(task, yi)] for yi in y])
        return x + 0.3 * rng.normal(size=(n, 2)), y

    cfg = RunConfig(lambda1=0.0, lambda2=0.0)
    for step in range(200):
        task = 1 + step % 2
        x, y = draw(task, 16)
        batch = Batch(x, y, task)
        zero_grads(model.all_params())
        backward(ce_loss(model, batch))
        sgd_step(model.extractor_params() + list(model.heads.head(task)),
                 lr=0.05)
        noise = noise_batch(cfg, rng, 16, 2)
        xb = np.concatenate([x, noise])
        tb = np.concatenate([np.full(16, task, dtype=np.int64),
                             np.zeros(16, dtype=np.int64)])
        zero_grads(model.all_params())
        backward(discriminator_loss(model, xb, tb, None, cfg))
        sgd_step(model.discriminator_params(), lr=0.1)
        if adversarial:
            zero_grads(model.all_params())
            backward(adversarial_generator_loss(model, batch, None, cfg))
            sgd_step(model.extractor_params(), lr=0.05)
    x1, _ = draw(1, 100)
    x2, _ = draw(2, 100)
    x_test = np.concatenate([x1, x2])
    t_test = np.concatenate([np.ones(100), np.full(100, 2)])
    return real_task_accuracy(model, x_test, t_test)


def test_alignment_reduces_discriminator_accuracy():
    seeds = range(5)
    adv = np.mean([run_alignment_duel(s, adversarial=True) for s in seeds])
    control = np.mean([run_alignment_duel(s, adversarial=False) for s in seeds])
    assert adv < control
