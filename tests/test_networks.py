"""Model component tests: transform identities, head isolation, masking."""

import numpy as np
import pytest

from metacl.autodiff import (
    Tensor,
    backward,
    grad_only,
    mask_cols,
    matmul,
    relu,
    softmax_cross_entropy,
    tsum,
)
from metacl.errors import CapacityError, ConfigurationError, ContractError, UnknownTaskError
from metacl.networks import (
    ClassifierHeads,
    ContinualModel,
    Discriminator,
    FeatureExtractor,
    ParameterGenerator,
    film_transform,
)


def small_model(**kw):
    kw.setdefault("input_dim", 4)
    kw.setdefault("classes_per_task", 3)
    kw.setdefault("feature_width", 8)
    kw.setdefault("depth", 2)
    kw.setdefault("k_max", 4)
    kw.setdefault("embed_dim", 6)
    kw.setdefault("disc_hidden", 5)
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
                             rng=np.random.default_rng(3))
    scale, shift = gen.coefficients(2, 1)
    assert scale.shape == (1, 8) and shift.shape == (1, 8)


def test_generator_distinct_tasks_distinct_coefficients():
    gen = ParameterGenerator([8], embed_dim=4, capacity=5,
                             rng=np.random.default_rng(3))
    s1, _ = gen.coefficients(1, 0)
    s2, _ = gen.coefficients(2, 0)
    assert not np.allclose(s1.data, s2.data)


def test_generator_out_of_capacity():
    gen = ParameterGenerator([8], embed_dim=4, capacity=2,
                             rng=np.random.default_rng(3))
    with pytest.raises(UnknownTaskError):
        gen.coefficients(3, 0)
    with pytest.raises(UnknownTaskError):
        gen.coefficients(0, 0)


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
    before = model.logits(x, 1).data.copy()
    w2, b2 = model.heads.heads[2]
    w2.data += 10.0
    b2.data += 10.0
    assert np.array_equal(model.logits(x, 1).data, before)


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
    assert np.array_equal(heads.forward(x, 1).data, heads.forward(x, 2).data)


def test_unknown_task_classify():
    model = small_model()
    model.register_task(1)
    with pytest.raises(UnknownTaskError):
        model.logits(np.zeros((1, 4)), 2)


def test_zeroed_head_gives_uniform_cross_entropy():
    model = small_model()
    model.register_task(1)
    w, b = model.heads.heads[1]
    w.data[:] = 0.0
    b.data[:] = 0.0
    logits = model.logits(np.random.default_rng(0).normal(size=(6, 4)), 1)
    loss = softmax_cross_entropy(logits, np.array([0, 1, 2, 0, 1, 2]))
    assert abs(loss.item() - np.log(3)) < 1e-12


# -- discriminator -------------------------------------------------------------


def test_discriminator_masks_unseen_tasks():
    disc = Discriminator(4, k_max=5, hidden=3, rng=np.random.default_rng(2))
    logits = disc.forward(np.random.default_rng(0).normal(size=(2, 4)), seen_tasks=2)
    assert logits.shape == (2, 6)
    probs = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    assert np.array_equal(probs[:, 3:], np.zeros((2, 3)))


def test_discriminator_zeroed_weights_uniform_over_valid():
    disc = Discriminator(4, k_max=5, hidden=3, rng=np.random.default_rng(2))
    for p in disc.params():
        p.data[:] = 0.0
    logits = disc.forward(np.zeros((4, 4)), seen_tasks=2)
    loss = softmax_cross_entropy(logits, np.array([0, 1, 2, 0]))
    assert abs(loss.item() - np.log(3)) < 1e-12


def test_discriminator_capacity_error():
    disc = Discriminator(4, k_max=2, hidden=3, rng=np.random.default_rng(2))
    with pytest.raises(CapacityError):
        disc.forward(np.zeros((1, 4)), seen_tasks=3)


def test_discriminator_freeze_blocks_weight_gradients():
    disc = Discriminator(4, k_max=3, hidden=16, rng=np.random.default_rng(2))
    feats = Tensor(np.random.default_rng(0).normal(size=(2, 4)), requires_grad=True)
    pre = feats.data @ disc.w1.data + disc.b1.data
    assert np.any(pre > 0)  # live ReLU units, so a nonzero gradient must flow
    # the scoped form every step uses: only the features are taped
    with grad_only([feats], disc.params()):
        loss = softmax_cross_entropy(disc.forward(feats, 2), np.array([1, 2]))
    backward(loss)
    assert feats.grad is not None and np.any(feats.grad != 0)
    for p in disc.params():
        assert p.grad is None and p.requires_grad


def test_discriminator_live_weight_gradients():
    disc = Discriminator(4, k_max=3, hidden=3, rng=np.random.default_rng(2))
    feats = Tensor(np.random.default_rng(0).normal(size=(2, 4)))
    loss = softmax_cross_entropy(disc.forward(feats, 2), np.array([1, 2]))
    backward(loss)
    assert all(p.grad is not None for p in disc.params())


# -- assembled model ------------------------------------------------------------


def test_transform_gradients_reach_generator():
    model = small_model(transform_mode="per_layer")
    model.register_task(1)
    x = np.random.default_rng(0).normal(size=(5, 4))
    loss = softmax_cross_entropy(model.logits(x, 1), np.array([0, 1, 2, 0, 1]))
    backward(loss)
    grads = [p.grad for p in model.generator_params()]
    assert any(g is not None and np.any(g != 0) for g in grads)


def test_transform_off_leaves_generator_untouched():
    model = small_model(transform_mode="off")
    model.register_task(1)
    x = np.random.default_rng(0).normal(size=(5, 4))
    loss = softmax_cross_entropy(model.logits(x, 1), np.array([0, 1, 2, 0, 1]))
    backward(loss)
    assert all(p.grad is None for p in model.generator_params())
    plain = model.extract(x)
    assert np.array_equal(model.task_features(x, 1).data, plain.data)


def test_task_features_rejects_task_outside_generator_capacity():
    model = small_model(k_max=2)
    model.register_task(3)  # the first task registered, outside capacity 2
    with pytest.raises(UnknownTaskError, match="capacity 1..2"):
        model.task_features(np.zeros((1, 4)), 3)


def unfused_features(model, x, task_id=None):
    """The trunk as primitive ops, with FiLM (``film_transform`` on
    ``coefficients``) where the model applies it when ``task_id`` is given."""
    a = Tensor(x)
    last = len(model.extractor.layers) - 1
    for index, (w, b) in enumerate(model.extractor.layers):
        a = relu(matmul(a, w) + b)
        if task_id is not None and (model.transform_mode == "per_layer"
                                    or index == last):
            a = film_transform(a, *model.generator.coefficients(task_id, index))
    return a


def unfused_logits(model, x, task_id):
    w, b = model.heads.heads[task_id]
    return matmul(relu(unfused_features(model, x, task_id)), w) + b


def unfused_discriminate(model, features, seen):
    d = model.discriminator
    hidden = relu(matmul(features, d.w1) + d.b1)
    return mask_cols(matmul(hidden, d.w2) + d.b2, seen + 1)


def model_loss(model, rows, fused):
    """CE of task 1 and task 2 logits plus discriminator CE on the plain
    trunk: every parameter group, both tables' rows, several trunk passes."""
    rng = np.random.default_rng(rows)
    x1, x2 = rng.normal(size=(rows, 4)), rng.normal(size=(rows, 4))
    y1, y2 = rng.integers(0, 3, size=rows), rng.integers(0, 3, size=rows)
    if fused:
        logits1, logits2 = model.logits(x1, 1), model.logits(x2, 2)
        disc = model.discriminate(model.extract(x1), 2)
    else:
        logits1, logits2 = unfused_logits(model, x1, 1), unfused_logits(model, x2, 2)
        disc = unfused_discriminate(model, unfused_features(model, x1), 2)
    return (softmax_cross_entropy(logits1, y1)
            + softmax_cross_entropy(logits2, y2)
            + softmax_cross_entropy(disc, np.full(rows, 2)))


@pytest.mark.parametrize("share", [True, False], ids=["shared", "per-layer"])
@pytest.mark.parametrize("mode", ["per_layer", "last"])
@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("group", ["all", "extractor+heads", "generator",
                                   "discriminator"])
def test_fused_model_is_bitwise_equal_to_unfused(share, mode, rows, group):
    def run(fused):
        model = small_model(share_embedding=share, transform_mode=mode)
        for t in (1, 2):
            model.register_task(t)
        rng = np.random.default_rng(3)
        for p in model.all_params():  # mid-training values: nonzero biases
            p.data += 0.1 * rng.normal(size=p.data.shape)
        params = {"all": model.all_params(),
                  "extractor+heads": model.extractor_params()
                  + model.head_params(),
                  "generator": model.generator_params(),
                  "discriminator": model.discriminator_params()}[group]
        with grad_only(params, model.all_params()):
            loss = model_loss(model, rows, fused)
            backward(loss)
        return loss, model.all_params()

    loss, params = run(fused=True)
    ref, ref_params = run(fused=False)
    assert loss.data.tobytes() == ref.data.tobytes()
    assert any(p.grad is not None for p in params)
    for p, r in zip(params, ref_params):
        assert (p.grad is None) == (r.grad is None)
        if p.grad is not None:
            assert p.grad.tobytes() == r.grad.tobytes()


def test_transform_last_differs_from_per_layer():
    per_layer = small_model(transform_mode="per_layer")
    last = small_model(transform_mode="last")
    for m in (per_layer, last):
        m.register_task(1)
    x = np.random.default_rng(0).normal(size=(3, 4))
    a = per_layer.task_features(x, 1).data
    b = last.task_features(x, 1).data
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


def test_register_capacity():
    model = small_model(k_max=2)
    model.register_task(1)
    model.register_task(2)
    model.register_task(2)  # idempotent
    with pytest.raises(CapacityError):
        model.register_task(3)


def test_snapshot_matches_forward_and_is_detached():
    model = small_model()
    model.register_task(1)
    x = np.random.default_rng(0).normal(size=(4, 4))
    snap = model.snapshot_logits(x, 1)
    assert np.array_equal(snap, model.logits(x, 1).data)
    snap[:] = 123.0
    assert not np.array_equal(snap, model.logits(x, 1).data)


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


def test_head_params_selects_tasks():
    model = small_model()
    model.register_task(1)
    model.register_task(2)
    only_two = model.head_params([2])
    w2, b2 = model.heads.heads[2]
    assert only_two == [w2, b2]
