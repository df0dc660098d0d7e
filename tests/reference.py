"""The op-by-op reference network the tests hold the package's nodes to.

Training, snapshots and evaluation run the model through one path,
``metacl.autodiff.TaskForward``, and every loss is one tape node over it.
This module keeps the other implementation: the same network and losses as
chains of primitive tape ops, one node per op, written on the helpers of
``metacl.autodiff``. No path of the package calls it. The bitwise tests
hold each loss node and forward to its chain, and the finite-difference and
closed-form checks hold the chain to its definitions.

The ops: ``sub``, ``div``, ``sqrt``, ``tsum``, ``gather_rows``,
``slice_cols``, ``mask_cols``, ``softmax_cross_entropy``,
``soft_cross_entropy`` and ``l2_distance``; the package keeps ``add``,
``mul``, ``neg``, ``matmul`` and ``relu``, which its own trunk forward and
loss composition use. The layers, as functions over a ``ContinualModel``'s
parameters: ``film_transform`` on ``coefficients``, ``task_features`` (the
plain trunk ``extract`` with FiLM after the modulated layers), ``classify``
(ReLU, then the task's head), ``logits`` and ``discriminate``. The
losses, each the chain its node in ``metacl.losses`` must equal bit for
bit: ``reference_ce_loss``, ``reference_derpp_loss``,
``reference_classification_loss``, ``reference_alignment``,
``reference_total_loss`` and ``reference_discriminator_loss``.
"""

import numpy as np

from metacl.autodiff import (
    NORM_EPS,
    Tensor,
    _ce_grad,
    _check_targets,
    _l2_grad,
    _log_softmax,
    _make,
    _masked,
    _soft_ce,
    _soft_ce_grad,
    _unbroadcast,
    _unmasked,
    _wrap,
    grad_only,
    matmul,
    relu,
)
from metacl.errors import CapacityError, DimensionError, UnknownTaskError

# ---------------------------------------------------------------------------
# primitive ops


def sub(a, b):
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward_fn(g):
        return (_unbroadcast(g, a.data.shape) if need_a else None,
                _unbroadcast(-g, b.data.shape) if need_b else None)

    return _make(a.data - b.data, (a, b), backward_fn)


def div(a, b):
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward_fn(g):
        return (_unbroadcast(g / b.data, a.data.shape) if need_a else None,
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
                if need_b else None)

    return _make(a.data / b.data, (a, b), backward_fn)


def sqrt(x):
    """Elementwise square root; negatives clamp to 0, subgradient at 0 is 0."""
    out_data = np.sqrt(np.maximum(x.data, 0.0))

    def backward_fn(g):
        return (np.where(out_data > 0, 0.5 * g / np.where(out_data > 0, out_data, 1.0), 0.0),)

    return _make(out_data, (x,), backward_fn)


def tsum(x):
    """Sum over all entries."""
    def backward_fn(g):
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _make(x.data.sum(), (x,), backward_fn)


def gather_rows(table, indices):
    """Row lookup ``table[indices]`` (embedding); scatter-adds on backward."""
    idx = np.asarray(indices, dtype=np.int64)

    def backward_fn(g):
        out = np.zeros_like(table.data)
        np.add.at(out, idx, g)
        return (out,)

    return _make(table.data[idx], (table,), backward_fn)


def slice_cols(x, n):
    """First ``n`` columns of a matrix; zero-pads the gradient."""
    def backward_fn(g):
        out = np.zeros_like(x.data)
        out[:, :n] = g
        return (out,)

    return _make(x.data[:, :n].copy(), (x,), backward_fn)


def mask_cols(x, valid):
    """Replace columns >= ``valid`` with ``MASK_FILL``; masked columns get no
    grad."""
    def backward_fn(g):
        return (_unmasked(g.copy(), valid),)

    return _make(_masked(x.data, valid), (x,), backward_fn)


def softmax_cross_entropy(logits, targets):
    """Mean over the batch of -log softmax(logits)[target].

    ``targets`` is an integer class-index vector of length B.
    """
    if logits.data.ndim != 2:
        raise DimensionError(f"softmax_cross_entropy: logits must be 2-D, got {logits.data.shape}")
    n, c = logits.data.shape
    targets = _check_targets("softmax_cross_entropy", targets, n, c)
    log_probs, softmax = _log_softmax(logits.data)
    loss = -log_probs[np.arange(n), targets].mean()

    def backward_fn(g):
        return (_ce_grad(softmax, targets, g / n),)

    return _make(loss, (logits,), backward_fn)


def soft_cross_entropy(logits, target_probs):
    """Mean over rows of -sum(target_probs * log softmax(logits)).

    ``target_probs`` is a constant (B, C) array of target distributions.
    """
    probs = np.asarray(target_probs, dtype=np.float64)
    if probs.shape != logits.data.shape:
        raise DimensionError(
            f"soft_cross_entropy: logits {logits.data.shape} vs targets {probs.shape}")
    n = logits.data.shape[0]
    log_probs, softmax = _log_softmax(logits.data)

    def backward_fn(g):
        return (_soft_ce_grad(softmax, probs, g / n),)

    return _make(_soft_ce(log_probs, probs), (logits,), backward_fn)


def _l2_norms(diff):
    """(rows, norms): ``diff`` as rows (a 1-D input is one row) and each
    row's Euclidean norm."""
    rows = (diff.reshape(1, -1) if diff.ndim == 1
            else diff.reshape(diff.shape[0], -1))
    return rows, np.sqrt((rows * rows).sum(axis=1))


def l2_distance(a, b):
    """Euclidean norm of (a - b), averaged over batch rows.

    1-D inputs are treated as a single row. Zero distance propagates a zero
    subgradient.
    """
    if a.data.shape != b.data.shape:
        raise DimensionError(
            f"l2_distance: shapes differ, {a.data.shape} vs {b.data.shape}")
    rows, norms = _l2_norms(a.data - b.data)
    n = rows.shape[0]
    loss = norms.mean()

    def backward_fn(g):
        grad = _l2_grad(rows, norms, n, g).reshape(a.data.shape)
        return grad, -grad

    return _make(loss, (a, b), backward_fn)


# ---------------------------------------------------------------------------
# layers


def film_transform(features, scale_coeff, shift_coeff):
    """Normalized scale-and-shift with a residual sum.

    private = (phi1 / (||phi1|| + NORM_EPS)) * g + phi2 / (||phi2|| + NORM_EPS)
    output  = private + g

    Zero coefficient vectors make both terms exactly zero, so the output
    reduces to the input features.
    """
    features = _wrap(features)
    scale_coeff = _wrap(scale_coeff)
    shift_coeff = _wrap(shift_coeff)
    scale_norm = sqrt(tsum(scale_coeff * scale_coeff)) + NORM_EPS
    shift_norm = sqrt(tsum(shift_coeff * shift_coeff)) + NORM_EPS
    private = (features * div(scale_coeff, scale_norm)
               + div(shift_coeff, shift_norm))
    return private + features


def coefficients(model, task_id, layer_index):
    """The model's generator's (scale, shift) row vectors for one layer,
    conditioned on the task ID."""
    if not 1 <= task_id <= model.k_max:
        raise UnknownTaskError(
            f"task {task_id} outside generator capacity 1..{model.k_max}")
    table, w_scale, b_scale, w_shift, b_shift = model.generator[layer_index]
    emb = gather_rows(table, [task_id])
    scale = matmul(emb, w_scale) + b_scale
    shift = matmul(emb, w_shift) + b_shift
    return scale, shift


def extract(model, x):
    """Common (task-invariant) features: the plain trunk."""
    return model.extractor.forward(x)


def task_features(model, x, task_id):
    """Features on the classification path: each trunk layer's
    ``relu(a @ w + b)``, then FiLM with the task's coefficients after the
    layers the model's ``transform_mode`` modulates."""
    if model.transform_mode == "off":
        return extract(model, x)
    model._check_task(task_id)
    a = _wrap(x)
    model.extractor.check_input(a.data)
    for index, (w, b) in enumerate(model.extractor.layers):
        a = relu(matmul(a, w) + b)
        if model._modulated(index):
            a = film_transform(
                a, *coefficients(model, task_id, index))
    return a


def classify(model, features, task_id):
    """A model's logits for the task: ReLU, then the task's head."""
    w, b = model.head(task_id)
    return matmul(relu(_wrap(features)), w) + b


def logits(model, x, task_id):
    """The task's logits of ``x``: ``classify`` on ``task_features``."""
    return classify(model, task_features(model, x, task_id), task_id)


def discriminate(model, features, seen_tasks):
    """The model's discriminator's logits over {fake=0, task 1..K_max}, those
    of tasks beyond ``seen_tasks`` masked (``mask_cols``)."""
    if seen_tasks > model.k_max:
        raise CapacityError(
            f"{seen_tasks} tasks exceed discriminator capacity {model.k_max}")
    (w1, b1), (w2, b2) = model.discriminator
    hidden = relu(matmul(_wrap(features), w1) + b1)
    return mask_cols(matmul(hidden, w2) + b2, seen_tasks + 1)


# ---------------------------------------------------------------------------
# losses


def union_rows(batch, memory):
    """(x, y, t): the batch rows, then the memory rows in draw order."""
    parts = []
    if batch is not None and len(batch.x):
        parts.append((batch.x, batch.y, np.full(len(batch.x), batch.task_id)))
    if memory is not None and len(memory):
        parts.append((memory.x, memory.y, memory.t))
    return [np.concatenate(column) for column in zip(*parts)]


def reference_ce_loss(model, batch, memory=None):
    """Union CE as the per-task chain the CE node must equal bit for bit:
    ``logits`` of each task's rows, ``softmax_cross_entropy`` times
    the task's share of the rows, summed by ascending task."""
    x, y, t = union_rows(batch, memory)
    total = None
    for task in np.unique(t).tolist():
        mask = t == task
        part = (softmax_cross_entropy(logits(model, x[mask], task), y[mask])
                * (int(mask.sum()) / len(y)))
        total = part if total is None else total + part
    return total


def reference_derpp_loss(model, memory, config):
    """The dark-replay term as the per-task chain: every task's memory rows
    go through ``logits``, then ``l2_distance`` and
    ``softmax_cross_entropy`` weighted by the task's share."""
    if memory is None or len(memory) == 0:
        return Tensor(0.0)
    width = model.classes_per_task  # every head's
    l2_total, ce_total = None, None
    for task in np.unique(memory.t).tolist():
        mask = memory.t == task
        task_logits = logits(model, memory.x[mask], task)
        frac = int(mask.sum()) / len(memory)
        l2_part = (l2_distance(task_logits, Tensor(memory.h[mask, :width]))
                   * frac)
        ce_part = softmax_cross_entropy(task_logits, memory.y[mask]) * frac
        l2_total = l2_part if l2_total is None else l2_total + l2_part
        ce_total = ce_part if ce_total is None else ce_total + ce_part
    return config.lambda1 * l2_total + config.lambda2 * ce_total


def reference_classification_loss(model, batch, memory, config):
    loss = reference_ce_loss(model, batch, memory)
    if config.lambda1 == 0 and config.lambda2 == 0:
        return loss
    return loss + reference_derpp_loss(model, memory, config)


def reference_alignment(model, batch, memory, config):
    """The alignment term as the chain the alignment node must equal bit for
    bit: the plain trunk, the discriminator on constant copies of its
    weights, ``mask_cols``, then soft CE against the uniform real-task
    distribution or the negated CE on the task labels."""
    k = model.n_seen
    if k < 2:
        return Tensor(0.0)
    x, _, t = union_rows(batch, memory)
    order = np.argsort(t, kind="stable")
    w1, b1, w2, b2 = (Tensor(p.data) for p in model.discriminator_params())
    hidden = relu(matmul(extract(model, x[order]), w1) + b1)
    logits = mask_cols(matmul(hidden, w2) + b2, k + 1)
    if config.generator_mode == "uniform-confusion":
        target = np.zeros((len(x), model.k_max + 1))
        target[:, 1:k + 1] = 1.0 / k
        return soft_cross_entropy(logits, target)
    return -softmax_cross_entropy(logits, t[order])


def reference_total_loss(model, batch, memory, config):
    loss = reference_classification_loss(model, batch, memory, config)
    if config.lambda3 != 0:
        loss = loss + config.lambda3 * reference_alignment(
            model, batch, memory, config)
    return loss


def reference_discriminator_loss(model, x, labels, memory, config):
    """The discriminator's loss as the per-width chain its node must equal
    bit for bit: untaped features (trunk frozen) of today's rows, then of
    each width's memory rows, through ``discriminate``; CE on today's rows,
    and per width ``l2_distance`` on the first w columns and CE, weighted by
    the width's share of the memory rows and summed by ascending width."""
    k = model.n_seen
    with grad_only((), model.extractor_params()):
        feats = extract(model, x).data
    loss = softmax_cross_entropy(
        discriminate(model, Tensor(feats), k), labels)
    if (memory is None or len(memory) == 0
            or config.lambda1 == config.lambda2 == 0):
        return loss
    widths = memory.h_disc_width
    l2_total, ce_total = None, None
    for width in np.unique(widths).tolist():
        mask = widths == width
        with grad_only((), model.extractor_params()):
            feats_m = extract(model, memory.x[mask]).data
        logits_m = discriminate(model, Tensor(feats_m), k)
        frac = int(mask.sum()) / len(memory)
        l2_part = (l2_distance(slice_cols(logits_m, width),
                               Tensor(memory.h_disc[mask, :width])) * frac)
        ce_part = softmax_cross_entropy(logits_m, memory.t[mask]) * frac
        l2_total = l2_part if l2_total is None else l2_total + l2_part
        ce_total = ce_part if ce_total is None else ce_total + ce_part
    return loss + config.lambda1 * l2_total + config.lambda2 * ce_total
