"""Model component tests: transform identities, head isolation, masking."""

import inspect

import numpy as np
import pytest

from metacl import autodiff
from metacl.autodiff import (
    Tensor,
    backward,
    grad_only,
    task_loss,
)
from metacl.datasets import Split, Task
from metacl.errors import CapacityError, ConfigurationError, ContractError, UnknownTaskError
from metacl.networks import (
    ClassifierHeads,
    ContinualModel,
    Discriminator,
    FeatureExtractor,
    ParameterGenerator,
)
from metacl.trainer import EVAL_CHUNK, evaluate

from reference import (
    classify,
    coefficients,
    discriminate,
    extract,
    film_transform,
    logits,
    softmax_cross_entropy,
    task_features,
    tsum,
)


def small_model(**kw):
    kw.setdefault("input_dim", 4)
    kw.setdefault("classes_per_task", 3)
    kw.setdefault("feature_width", 8)
    kw.setdefault("depth", 2)
    kw.setdefault("k_max", 4)
    kw.setdefault("embed_dim", 6)
    kw.setdefault("disc_hidden", 5)
    kw.setdefault("head_mode", "multi")
    kw.setdefault("transform_mode", "per_layer")
    kw.setdefault("share_embedding", True)
    kw.setdefault("seed", 7)
    return ContinualModel(**kw)


# -- transform ---------------------------------------------------------------


def test_transform_hand_case_scalar():
    out = film_transform(np.array([[5.0]]), np.array([2.0]), np.array([3.0]))
    assert np.allclose(out.data, [[11.0]], atol=1e-6)


def test_transform_hand_case_vector():
    out = film_transform(np.array([[1.0, 1.0]]), np.array([3.0, 4.0]),
                         np.array([0.0, 1.0]))
    assert np.allclose(out.data, [[1.6, 2.8]], atol=1e-6)


def test_transform_zero_coefficients_is_exact_identity():
    g = np.array([[0.3, -1.5, 2.0], [0.0, 4.0, -0.25]])
    out = film_transform(g, np.zeros(3), np.zeros(3))
    assert np.array_equal(out.data, g)


def test_transform_scale_invariance():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(5, 6))
    phi1 = rng.normal(size=6)
    phi2 = rng.normal(size=6)
    base = film_transform(g, phi1, phi2).data
    for c in (0.5, 2.0, 117.0):
        scaled = film_transform(g, c * phi1, c * phi2).data
        assert np.allclose(scaled, base, atol=1e-6)


def test_transform_batch_broadcasts_rowwise():
    g = np.array([[1.0, 1.0], [2.0, 2.0]])
    out = film_transform(g, np.array([3.0, 4.0]), np.array([0.0, 1.0]))
    assert np.allclose(out.data[0], [1.6, 2.8], atol=1e-6)
    assert np.allclose(out.data[1], [2 + 1.2, 2 + 1.6 + 1.0], atol=1e-6)


def test_transform_gradient_reaches_coefficients():
    g = Tensor(np.array([[1.0, 2.0]]))
    phi1 = Tensor(np.array([0.5, -0.5]), requires_grad=True)
    phi2 = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    backward(tsum(film_transform(g, phi1, phi2)))
    assert phi1.grad is not None and np.any(phi1.grad != 0)
    assert phi2.grad is not None and np.any(phi2.grad != 0)


# -- extractor ---------------------------------------------------------------


def test_extractor_output_shape():
    ext = FeatureExtractor(12, width=256, depth=2, rng=np.random.default_rng(1))
    out = ext.forward(np.random.default_rng(2).normal(size=(7, 12)))
    assert out.shape == (7, 256)


def test_extractor_zero_input_gives_zero_features():
    ext = FeatureExtractor(5, width=16, depth=2, rng=np.random.default_rng(1))
    out = ext.forward(np.zeros((3, 5)))
    assert np.array_equal(out.data, np.zeros((3, 16)))


def test_extractor_rejects_wrong_width():
    ext = FeatureExtractor(5, width=16, depth=2, rng=np.random.default_rng(1))
    with pytest.raises(ConfigurationError):
        ext.forward(np.zeros((3, 6)))


def test_extractor_deterministic_init():
    a = FeatureExtractor(5, width=16, depth=2, rng=np.random.default_rng(9))
    b = FeatureExtractor(5, width=16, depth=2, rng=np.random.default_rng(9))
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa.data, pb.data)


# -- generator ---------------------------------------------------------------


def test_generator_coefficient_shapes():
    gen = ParameterGenerator([8, 8], embed_dim=4, capacity=5,
                             share_embedding=True,
                             rng=np.random.default_rng(3))
    scale, shift = coefficients(gen, 2, 1)
    assert scale.shape == (1, 8) and shift.shape == (1, 8)


def test_generator_distinct_tasks_distinct_coefficients():
    gen = ParameterGenerator([8], embed_dim=4, capacity=5,
                             share_embedding=True,
                             rng=np.random.default_rng(3))
    s1, _ = coefficients(gen, 1, 0)
    s2, _ = coefficients(gen, 2, 0)
    assert not np.allclose(s1.data, s2.data)


def test_generator_out_of_capacity():
    gen = ParameterGenerator([8], embed_dim=4, capacity=2,
                             share_embedding=True,
                             rng=np.random.default_rng(3))
    with pytest.raises(UnknownTaskError):
        coefficients(gen, 3, 0)
    with pytest.raises(UnknownTaskError):
        coefficients(gen, 0, 0)


def test_generator_separate_embeddings_option():
    gen = ParameterGenerator([8, 8], embed_dim=4, capacity=3,
                             share_embedding=False,
                             rng=np.random.default_rng(3))
    assert len(gen.embeddings) == 2


# -- classifier heads ---------------------------------------------------------


def test_multi_head_isolation():
    model = small_model()
    model.register_task(1)
    model.register_task(2)
    x = np.random.default_rng(0).normal(size=(4, 4))
    before = logits(model, x, 1).data.copy()
    w2, b2 = model.heads.heads[2]
    w2.data += 10.0
    b2.data += 10.0
    assert np.array_equal(logits(model, x, 1).data, before)


def test_duplicate_head_rejected():
    heads = ClassifierHeads(4, 3, mode="multi",
                            rng_for_task=lambda t: np.random.default_rng(t))
    heads.add_head(1)
    with pytest.raises(ContractError):
        heads.add_head(1)


def test_single_head_shared_across_tasks():
    heads = ClassifierHeads(4, 3, mode="single",
                            rng_for_task=lambda t: np.random.default_rng(t))
    heads.add_head(1)
    heads.add_head(2)
    x = np.random.default_rng(0).normal(size=(2, 4))
    assert np.array_equal(classify(heads, x, 1).data,
                          classify(heads, x, 2).data)


def test_unknown_task_classify():
    model = small_model()
    model.register_task(1)
    with pytest.raises(UnknownTaskError):
        logits(model, np.zeros((1, 4)), 2)


def test_zeroed_head_gives_uniform_cross_entropy():
    model = small_model()
    model.register_task(1)
    w, b = model.heads.heads[1]
    w.data[:] = 0.0
    b.data[:] = 0.0
    out = logits(model, np.random.default_rng(0).normal(size=(6, 4)), 1)
    loss = softmax_cross_entropy(out, np.array([0, 1, 2, 0, 1, 2]))
    assert abs(loss.item() - np.log(3)) < 1e-12


# -- discriminator -------------------------------------------------------------


def test_discriminator_masks_unseen_tasks():
    disc = Discriminator(4, k_max=5, hidden=3, rng=np.random.default_rng(2))
    logits = discriminate(disc, np.random.default_rng(0).normal(size=(2, 4)),
                          seen_tasks=2)
    assert logits.shape == (2, 6)
    probs = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    assert np.array_equal(probs[:, 3:], np.zeros((2, 3)))


def test_discriminator_zeroed_weights_uniform_over_valid():
    disc = Discriminator(4, k_max=5, hidden=3, rng=np.random.default_rng(2))
    for p in disc.params():
        p.data[:] = 0.0
    logits = discriminate(disc, np.zeros((4, 4)), seen_tasks=2)
    loss = softmax_cross_entropy(logits, np.array([0, 1, 2, 0]))
    assert abs(loss.item() - np.log(3)) < 1e-12


def test_discriminator_capacity_error():
    disc = Discriminator(4, k_max=2, hidden=3, rng=np.random.default_rng(2))
    with pytest.raises(CapacityError):
        discriminate(disc, np.zeros((1, 4)), seen_tasks=3)


def test_discriminator_freeze_blocks_weight_gradients():
    disc = Discriminator(4, k_max=3, hidden=16, rng=np.random.default_rng(2))
    feats = Tensor(np.random.default_rng(0).normal(size=(2, 4)), requires_grad=True)
    pre = feats.data @ disc.w1.data + disc.b1.data
    assert np.any(pre > 0)  # live ReLU units, so a nonzero gradient must flow
    # the scoped form every step uses: only the features are taped
    with grad_only([feats], disc.params()):
        loss = softmax_cross_entropy(discriminate(disc, feats, 2),
                                     np.array([1, 2]))
    backward(loss)
    assert feats.grad is not None and np.any(feats.grad != 0)
    for p in disc.params():
        assert p.grad is None and p.requires_grad


def test_discriminator_live_weight_gradients():
    disc = Discriminator(4, k_max=3, hidden=3, rng=np.random.default_rng(2))
    feats = Tensor(np.random.default_rng(0).normal(size=(2, 4)))
    loss = softmax_cross_entropy(discriminate(disc, feats, 2),
                                 np.array([1, 2]))
    backward(loss)
    assert all(p.grad is not None for p in disc.params())


# -- assembled model ------------------------------------------------------------


def test_transform_gradients_reach_generator():
    model = small_model(transform_mode="per_layer")
    model.register_task(1)
    x = np.random.default_rng(0).normal(size=(5, 4))
    loss = softmax_cross_entropy(logits(model, x, 1), np.array([0, 1, 2, 0, 1]))
    backward(loss)
    grads = [p.grad for p in model.generator_params()]
    assert any(g is not None and np.any(g != 0) for g in grads)


def test_transform_off_leaves_generator_untouched():
    model = small_model(transform_mode="off")
    model.register_task(1)
    x = np.random.default_rng(0).normal(size=(5, 4))
    loss = softmax_cross_entropy(logits(model, x, 1), np.array([0, 1, 2, 0, 1]))
    backward(loss)
    assert all(p.grad is None for p in model.generator_params())
    plain = extract(model, x)
    assert np.array_equal(task_features(model, x, 1).data, plain.data)


def test_task_features_rejects_task_outside_generator_capacity():
    # a task outside 1..k_max is refused when registered, so no forward
    # ever reaches the generator with it; task 0 is the discriminator's
    # fake class
    model = small_model(k_max=2)
    for task in (3, 0, -1):
        with pytest.raises(CapacityError, match="capacity 1..2"):
            model.register_task(task)
    assert model.seen_tasks == [] and not model.heads.heads
    with pytest.raises(UnknownTaskError):
        task_features(model, np.zeros((1, 4)), 3)


@pytest.mark.parametrize("share", [True, False], ids=["shared", "per-layer"])
@pytest.mark.parametrize("head", ["multi", "single"])
@pytest.mark.parametrize("mode", ["per_layer", "last", "off"])
@pytest.mark.parametrize("rows", [1, 5, 600])
def test_inference_is_bitwise_equal_to_reference_path(share, head, mode, rows):
    # snapshots and evaluation run a one-group TaskForward; the reference
    # chain (tests/reference.py) is what they must equal byte for byte. 600
    # rows cross evaluate's chunk of EVAL_CHUNK = 512
    chunk = EVAL_CHUNK
    model = small_model(share_embedding=share, head_mode=head,
                        transform_mode=mode)
    rng = np.random.default_rng(rows)
    x = rng.normal(size=(rows, 4))
    first_node = next(autodiff._node_seq)
    for seen in (1, 2, 3):
        # the discriminator's snapshot keeps the columns of the seen tasks
        model.register_task(seen)
        for p in model.all_params():  # mid-training values: nonzero biases
            p.data += 0.1 * rng.normal(size=p.data.shape)
        with grad_only((), model.all_params()):
            want_disc = discriminate(model.discriminator, extract(model, x),
                                     seen).data
        got = model.snapshot_disc_logits(x)
        assert got.shape == (rows, seen + 1)
        assert got.tobytes() == want_disc[:, :seen + 1].tobytes()
    with grad_only((), model.all_params()):
        want_logits = {t: logits(model, x, t).data for t in (1, 2)}
        want_preds = {t: np.concatenate([
            logits(model, x[s:s + chunk], t).data.argmax(axis=1)
            for s in range(0, rows, chunk)]) for t in (1, 2)}
    for t in (1, 2):
        assert model.snapshot_logits(x, t).tobytes() == want_logits[t].tobytes()
    # labels equal to the reference predictions score 1.0 exactly when every
    # prediction matches, and labels off by one score 0.0
    tasks = [Task(t, Split(x[:0], np.zeros(0, dtype=int)),
                  Split(x, (want_preds[t] + shift) % 3), (0, 1, 2), 3)
             for t in (1, 2) for shift in (0, 1)]
    accuracy = [evaluate(model, [task])[task.task_id] for task in tasks]
    assert accuracy == [1.0, 0.0, 1.0, 0.0]
    assert next(autodiff._node_seq) == first_node + 1  # no node recorded
    assert all(p.grad is None for p in model.all_params())


@pytest.mark.parametrize("share", [True, False], ids=["shared", "per-layer"])
@pytest.mark.parametrize("mode", ["per_layer", "last", "off"])
def test_evaluate_over_many_tasks_predicts_as_the_reference_path(share, mode):
    # evaluate makes one FiLM pass over all the tasks it scores and runs
    # each task's rows on that task's row of it: every prediction must equal
    # the reference chain's, task by task, whatever the order of the tasks
    model = small_model(share_embedding=share, transform_mode=mode, k_max=16)
    for t in range(1, 14):
        model.register_task(t)
    rng = np.random.default_rng(13)
    for p in model.all_params():  # mid-training values: nonzero biases
        p.data += 0.1 * rng.normal(size=p.data.shape)
    xs = {t: rng.normal(size=(int(rng.integers(1, 40)), 4))
          for t in range(1, 14)}
    with grad_only((), model.all_params()):
        want = {t: logits(model, x, t).data.argmax(axis=1)
                for t, x in xs.items()}
    order = rng.permutation(np.arange(1, 14)).tolist()
    for shift in (0, 1):
        tasks = [Task(t, Split(xs[t][:0], np.zeros(0, dtype=int)),
                      Split(xs[t], (want[t] + shift) % 3), (0, 1, 2), 3)
                 for t in order]
        assert evaluate(model, tasks) == {t: 1.0 - shift for t in order}


# every forward of the model on raw input rows, reference path and fast path
FORWARDS = {
    "extract": lambda model, x: extract(model, x),
    "task_features": lambda model, x: task_features(model, x, 1),
    "logits": lambda model, x: logits(model, x, 1),
    "task_forward": lambda model, x: model.task_forward(x, [1], [len(x)]),
    "discriminator_forward": lambda model, x: model.discriminator_forward(
        x, [0], [len(x)]),
    "snapshot_logits": lambda model, x: model.snapshot_logits(x, 1),
    "snapshot_disc_logits": lambda model, x: model.snapshot_disc_logits(x),
}


@pytest.mark.parametrize("name", sorted(FORWARDS))
@pytest.mark.parametrize("shape", [(2, 5), (2, 3), (4,), (1, 2, 4)], ids=str)
def test_forward_rejects_malformed_input_before_any_work(name, shape):
    model = small_model()
    model.register_task(1)
    first_node = next(autodiff._node_seq)
    with pytest.raises(ConfigurationError, match="expects"):
        FORWARDS[name](model, np.zeros(shape))
    assert next(autodiff._node_seq) == first_node + 1  # no node recorded


def _trained_model(mode, seed):
    model = small_model(transform_mode=mode)
    for t in (1, 2, 3, 4):
        model.register_task(t)
    rng = np.random.default_rng(seed)
    for p in model.all_params():  # mid-training values: nonzero biases
        p.data += 0.1 * rng.normal(size=p.data.shape)
    return model, rng


@pytest.mark.parametrize("mode", ["per_layer", "last", "off"])
@pytest.mark.parametrize("k, shared", [(3, 0), (3, 1), (3, 2), (3, 3),
                                       (1, 0), (1, 1)])
def test_reuse_equals_a_fresh_forward(mode, k, shared):
    # a k-group forward that takes its first ``shared`` groups from a
    # 4-group source on the same weights (DER++'s memory rows on CE's
    # forward) equals one that computes every row, bit for bit: logits,
    # leaves and every backward contribution. shared == k computes no row
    model, rng = _trained_model(mode, 10 * k + shared)
    source = model.task_forward(rng.normal(size=(13, 4)), [1, 2, 3, 4],
                                [3, 1, 4, 5])
    tasks, sizes = [1, 2, 3][:k], [3, 1, 4][:k]
    copied = sum(sizes[:shared])
    x = np.concatenate([source.inputs[0][:copied],
                        rng.normal(size=(sum(sizes) - copied, 4))])
    fresh = model.task_forward(x, tasks, sizes)
    reused = model.task_forward(x, tasks, sizes, reuse=(source, shared))
    assert reused.logits.tobytes() == fresh.logits.tobytes()
    assert len(reused._plan()) == len(fresh._plan()) > 0
    assert all(a is b for a, b in zip(reused.leaves, fresh.leaves))
    g = rng.normal(size=fresh.logits.shape)
    want = fresh.backward(g.copy())
    got = reused.backward(g.copy())
    assert len(got) == len(want) == len(fresh.leaves)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mode", ["per_layer", "last", "off"])
def test_one_group_forward_with_every_parameter_frozen_equals_the_taped_one(
        mode):
    # a forward's plan reads the flags when its loss node is built: inside
    # a block that freezes every parameter it lists no leaves, and its loss
    # records no node
    model, rng = _trained_model(mode, 5)
    x = rng.normal(size=(6, 4))
    taped = model.task_forward(x, [2], [6])
    first_node = next(autodiff._node_seq)
    with grad_only((), model.all_params()):
        plain = model.task_forward(x, [2], [6])
        loss = task_loss(plain, np.zeros(6, dtype=int))
    assert next(autodiff._node_seq) == first_node + 1  # no node recorded
    assert loss.node is None and not loss.requires_grad
    assert plain.leaves == [] and taped._plan()
    assert plain.logits.tobytes() == taped.logits.tobytes()


def test_reading_a_forward_plans_nothing():
    # the plan is made only by a loss node built on the forward
    model, rng = _trained_model("per_layer", 6)
    forward = model.task_forward(rng.normal(size=(5, 4)), [1, 2], [2, 3])
    assert not hasattr(forward, "leaves")
    assert not any(hasattr(forward, name) for name in (
        "head_needs", "steps", "largest", "slots"))
    assert forward._plan() and hasattr(forward, "leaves")


@pytest.mark.parametrize("forward", ["task", "discriminator"])
@pytest.mark.parametrize("tasks, sizes", [
    ([1, 2], [2, 2]), ([1, 2], [3, 3]), ([1, 2], [5]), ([1], [2, 3]),
    ([1, 2], [6, -1]), ([1, 2], [5, 0]), ([2, 2], [2, 3]), ([2, 1], [2, 3]),
    ([], [])],
    ids=["rows-left-over", "rows-missing", "task-without-size",
         "size-without-task", "negative-size", "empty-group", "task-twice",
         "tasks-descending", "no-group"])
def test_task_forward_rejects_groups_that_do_not_split_the_rows(forward, tasks,
                                                                sizes):
    model = small_model()
    model.register_task(1)
    model.register_task(2)
    x = np.zeros((5, 4))
    with pytest.raises(ContractError, match="TaskForward"):
        if forward == "task":
            model.task_forward(x, tasks, sizes)
        else:
            model.discriminator_forward(x, tasks, sizes)


@pytest.mark.parametrize("mode", ["per_layer", "last", "off"])
def test_nan_input_row_reaches_its_logits_on_both_paths(mode):
    # the ReLUs pass NaN, so a non-finite input shows in its own row of the
    # snapshots, as on the reference path, and in no other row
    model = small_model(transform_mode=mode)
    model.register_task(1)
    model.register_task(2)
    x = np.random.default_rng(4).normal(size=(3, 4))
    x[1, 0] = np.nan
    with grad_only((), model.all_params()):
        want = logits(model, x, 2).data
        want_disc = discriminate(model.discriminator, extract(model, x),
                                 model.n_seen).data[:, :3]
    for got, ref in ((model.snapshot_logits(x, 2), want),
                     (model.snapshot_disc_logits(x), want_disc)):
        assert np.isnan(got[1]).all()
        assert np.isfinite(got[[0, 2]]).all()
        assert got.tobytes() == ref.tobytes()


def test_transform_last_differs_from_per_layer():
    per_layer = small_model(transform_mode="per_layer")
    last = small_model(transform_mode="last")
    for m in (per_layer, last):
        m.register_task(1)
    x = np.random.default_rng(0).normal(size=(3, 4))
    a = task_features(per_layer, x, 1).data
    b = task_features(last, x, 1).data
    assert a.shape == b.shape
    assert not np.array_equal(a, b)


def test_same_seed_same_parameters():
    a = small_model(seed=11)
    b = small_model(seed=11)
    for t in (1, 2):
        a.register_task(t)
        b.register_task(t)
    for pa, pb in zip(a.all_params(), b.all_params()):
        assert np.array_equal(pa.data, pb.data)


def test_different_seed_different_parameters():
    a = small_model(seed=11)
    b = small_model(seed=12)
    assert not np.array_equal(a.extractor_params()[0].data,
                              b.extractor_params()[0].data)


def test_arguments_are_plain_values_that_rebuild_the_model():
    a = small_model(seed=np.int64(11), depth=np.int64(2),
                    share_embedding=np.bool_(False))
    assert list(a.arguments) == list(
        inspect.signature(ContinualModel).parameters)
    assert {type(v) for v in a.arguments.values()} == {int, str, bool}
    b = ContinualModel(**a.arguments)
    for pa, pb in zip(a.all_params(), b.all_params(), strict=True):
        assert np.array_equal(pa.data, pb.data)


def test_register_capacity():
    model = small_model(k_max=2)
    model.register_task(1)
    model.register_task(2)
    model.register_task(2)  # idempotent
    with pytest.raises(CapacityError):
        model.register_task(3)


@pytest.mark.parametrize("task_id", [True, 1.0, "1", None])
def test_register_rejects_a_task_id_that_is_no_integer(task_id):
    # True == 1 and 1.0 == 1 would pass the range check and the seen check
    model = small_model()
    model.register_task(1)
    with pytest.raises(ContractError, match="not an integer"):
        model.register_task(task_id)
    model.register_task(np.int64(2))
    assert model.seen_tasks == [1, 2]


def test_snapshot_matches_forward_and_is_detached():
    model = small_model()
    model.register_task(1)
    x = np.random.default_rng(0).normal(size=(4, 4))
    snap = model.snapshot_logits(x, 1)
    assert np.array_equal(snap, logits(model, x, 1).data)
    snap[:] = 123.0
    assert not np.array_equal(snap, logits(model, x, 1).data)


def test_snapshot_disc_logits_width_tracks_seen():
    model = small_model()
    model.register_task(1)
    x = np.random.default_rng(0).normal(size=(4, 4))
    snap1 = model.snapshot_disc_logits(x)
    assert snap1.shape == (4, 2)
    model.register_task(2)
    snap2 = model.snapshot_disc_logits(x)
    assert snap2.shape == (4, 3)
    assert np.array_equal(snap1, snap2[:, :2])


def test_head_params_are_every_head_in_task_order():
    # whatever order the tasks came in; a step moves those its loss reaches
    model = small_model()
    for task in (3, 1, 2):
        model.register_task(task)
    heads = model.heads.heads
    assert ([id(p) for p in model.head_params()]
            == [id(p) for task in (1, 2, 3) for p in heads[task]])
    single = small_model(head_mode="single")
    single.register_task(2)
    assert ([id(p) for p in single.head_params()]
            == [id(p) for p in single.heads.heads[0]])
