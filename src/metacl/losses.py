"""Composite training loss and the discriminator's objective.

The learner minimizes

    L = CE(current + memory) + lam1 * L2(logits, stored logits)
      + lam2 * CE(memory) + lam3 * L_align

where L_align pushes the discriminator's read of the shared features toward
task-indistinguishability without touching the discriminator weights. The
discriminator separately minimizes CE over {fake=0, task 1..K} plus its own
dark-replay term on stored discriminator logits, without touching the
feature path.

Each step builds the part of L that reaches the parameters it moves. The
inner step (extractor and heads) builds all of it, ``total_loss``. The outer
step (parameter generator) builds ``classification_loss``, the first three
terms: L_align runs the plain trunk and the discriminator, so it never
reaches the generator.

Every term is one tape node over a ``TaskForward`` of its rows grouped by
task (the discriminator's memory rows by stored snapshot width):
``autodiff.task_loss`` for CE and dark replay, ``task_alignment`` for the
soft-target alignment. Each is bit-identical in value and every gradient
to its per-group chain of primitive ops over the model's parameters.
Those chains are the reference path the tests hold the nodes to
(``tests/reference.py``); no loss runs them. A step groups its rows once,
and ``derpp_loss`` is always built on CE's forward: the memory rows of a
task the batch does not hold go through the network once. With both
dark-replay weights zero (ablation B) neither the learner's nor the
discriminator's dark-replay term is built.

The trade-off constants lam1..lam3, the noise model and the alignment
direction are read from the run's ``RunConfig``, passed as ``config``.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, grad_only, task_alignment, task_loss
from .errors import ContractError, MemoryConsistencyError


def noise_batch(config, rng, n, dim):
    """Fresh Gaussian pseudo-inputs in data space, labeled task 0 by callers."""
    return rng.normal(config.noise_mean, config.noise_std, size=(n, dim))


def _grouped(t):
    """(order, tasks, sizes): the stable order that groups rows by their
    task ``t`` (or any non-negative integer key, such as a snapshot width),
    tasks ascending, and each group's task and row count."""
    counts = np.bincount(t)
    tasks = np.flatnonzero(counts).tolist()
    return np.argsort(t, kind="stable"), tasks, counts[tasks]


def _step_rows(batch, memory, shared):
    """(x, y, t, order, tasks, sizes): a step's batch rows, then its memory
    rows in draw order, and their ``_grouped`` grouping by ascending task;
    None when both are empty. It is made once per ``shared`` dict, which
    keeps it as ``"rows"``."""
    if "rows" in shared:
        return shared["rows"]
    in_batch = batch is not None and len(batch.x) > 0
    parts = [(np.asarray(batch.x, dtype=np.float64),
              np.asarray(batch.y, dtype=np.int64),
              np.full(len(batch.x), batch.task_id, dtype=np.int64))
             ] if in_batch else []
    if memory is not None and len(memory) > 0:
        parts.append((memory.x, memory.y, memory.t))
    rows = None
    if parts:
        x, y, t = (np.concatenate(column) for column in zip(*parts))
        rows = (x, y, t, *_grouped(t))
    shared["rows"] = rows
    return rows


def ce_loss(model, batch, memory=None, shared=None):
    """Mean cross-entropy over current plus memory samples.

    Each sample's logits come from the head of its own task, so the mean is
    taken across heads, weighted by per-task sample counts. ``memory`` is a
    ``Draw`` or None. The rows run through one ``TaskForward``, grouped by
    ascending task, and the loss is one tape node (``autodiff.task_loss``,
    every group plain). A ``shared`` dict keeps the step's rows and grouping
    and gets the forward as ``"forward"`` for the other terms on one draw.
    """
    shared = {} if shared is None else shared
    rows = _step_rows(batch, memory, shared)
    if rows is None:
        raise ContractError("ce_loss needs at least one sample")
    x, y, _, order, tasks, sizes = rows
    forward = model.task_forward(x[order], tasks, sizes)
    shared["forward"] = forward
    return task_loss(forward, y[order])


def derpp_loss(model, memory, config, shared):
    """Dark-replay term: lam1 * mean L2 to stored logits + lam2 * mean CE.

    Every drawn row must carry a classifier-logit snapshot whose width
    matches the current head of its task. The loss is one tape node
    (``autodiff.task_loss``, every group replayed at its head's width).
    It is built on ``shared`` as ``ce_loss`` filled it, on the same draw
    and weights: the memory rows keep CE's grouping, those of every task
    but the batch task reuse CE's forward, whose groups for those tasks
    hold exactly these rows, and every task's FiLM comes from it. A memory
    row of a task after the batch's (CE's last group) fails as ContractError.
    """
    if memory is None or len(memory) == 0:
        return Tensor(0.0)
    if not memory.h_width.all():
        raise MemoryConsistencyError("memory entry lacks a logit snapshot")
    # CE's order cut to the memory rows is their own stable order, and its
    # last group, the batch task's, keeps only its memory rows
    _, _, t, order, tasks, sizes = shared["rows"]
    n_batch = len(order) - len(memory)
    if n_batch and tasks[-1] != t[0]:
        raise ContractError(f"derpp_loss: memory holds task {tasks[-1]}, "
                            f"after the batch's task {t[0]}")
    reuse = (shared["forward"], len(tasks) - (n_batch > 0))
    order, sizes = order[order >= n_batch] - n_batch, sizes.tolist()
    sizes[-1] -= n_batch
    keep = len(tasks) - (sizes[-1] == 0)
    tasks, sizes = tasks[:keep], sizes[:keep]
    widths = [model.heads.output_dim(task) for task in tasks]
    stored, expected = memory.h_width[order], np.repeat(widths, sizes)
    wrong = np.flatnonzero(stored != expected)
    if wrong.size:
        row = wrong[0]
        raise MemoryConsistencyError(
            f"stored logits for task {memory.t[order[row]]} have shape "
            f"({stored[row]},), head expects ({expected[row]},)")
    forward = model.task_forward(memory.x[order], tasks, sizes, reuse)
    return task_loss(forward, memory.y[order], stored=memory.h[order],
                     widths=widths, lambda1=config.lambda1,
                     lambda2=config.lambda2)


def adversarial_generator_loss(model, batch, memory, config, shared=None):
    """Feature-alignment objective; gradient reaches the extractor only.

    uniform-confusion (default): CE between the frozen discriminator's read
    of the shared features and the uniform distribution over the real task
    labels 1..K; its minimum over the real-label simplex is ln K.
    negative-ce: the negated discriminator CE on true task labels.

    The rows, grouped by task, run through the plain trunk and the
    discriminator as one ``TaskForward`` group, built with the
    discriminator's weights frozen (``autodiff.grad_only``), and the term is
    ``autodiff.task_alignment``, or under negative-ce a plain ``task_loss``
    negated. A ``shared`` dict lends it the step's rows and grouping.
    With fewer than two seen tasks there is nothing to confuse; returns 0.
    """
    k = model.n_seen
    if k < 2:
        return Tensor(0.0)
    rows = _step_rows(batch, memory, {} if shared is None else shared)
    if rows is None:
        raise ContractError("alignment loss needs at least one sample")
    x, _, t, order = rows[:4]
    with grad_only((), model.discriminator_params()):
        forward = model.discriminator_forward(x[order], [0], [len(x)])
        if config.generator_mode == "uniform-confusion":
            target = np.zeros((len(x), model.k_max + 1))
            target[:, 1:k + 1] = 1.0 / k
            return task_alignment(forward, k + 1, target)
        return -task_loss(forward, t[order], k + 1)


def dark_replay_off(config):
    """Both dark-replay weights zero: no term is built, no snapshot read."""
    return config.lambda1 == 0 and config.lambda2 == 0


def discriminator_loss(model, x, task_labels, memory, config):
    """CE over {fake=0, task 1..K} plus dark replay on stored disc logits.

    ``x`` must mix real rows (labeled by true task) with fresh noise rows
    (labeled 0). ``memory`` is a ``Draw`` or None. The rows of ``x``, then
    the memory rows grouped by stored width (ascending, each group in draw
    order), run through one ``TaskForward`` built with the trunk frozen
    (``autodiff.grad_only``), so only discriminator weights receive
    gradient, and the loss is one tape node (``autodiff.task_loss``, on
    logits masked to the k + 1 classes: today's rows plain, the memory's
    width groups replayed at their widths).
    """
    task_labels = np.asarray(task_labels, dtype=np.int64)
    if x is None or len(x) == 0:
        raise ContractError("discriminator batch is empty")
    if not np.any(task_labels == 0):
        raise ContractError("discriminator batch contains no noise samples")
    x = np.asarray(x, dtype=np.float64)
    model.extractor.check_input(x)  # before memory rows are joined to it
    k = model.n_seen
    keys, sizes, stored, group_widths = [0], [len(x)], None, []
    if memory is not None and len(memory) > 0 and not dark_replay_off(config):
        widths = memory.h_disc_width
        if not widths.all():
            raise MemoryConsistencyError(
                "memory entry lacks a discriminator-logit snapshot")
        if widths.max() > k + 1:
            raise MemoryConsistencyError(
                f"stored discriminator logits have width "
                f"{widths[widths > k + 1][0]}, only {k + 1} classes exist")
        order, group_widths, counts = _grouped(widths)
        keys += group_widths
        sizes += counts.tolist()
        x = np.concatenate([x, memory.x[order]])
        task_labels = np.concatenate([task_labels, memory.t[order]])
        stored = memory.h_disc[order]
    with grad_only((), model.extractor_params()):
        forward = model.discriminator_forward(x, keys, sizes)
        return task_loss(forward, task_labels, k + 1, stored, group_widths,
                         config.lambda1, config.lambda2)


def classification_loss(model, batch, memory, config, shared=None):
    """CE + dark replay (none if ``dark_replay_off``), on one ``shared`` dict
    (``ce_loss``): the terms on the parameter generator's path."""
    shared = {} if shared is None else shared
    loss = ce_loss(model, batch, memory, shared)
    if dark_replay_off(config):
        return loss
    return loss + derpp_loss(model, memory, config, shared)


def total_loss(model, batch, memory, config):
    """The learner's full objective: CE + dark replay + lam3 * alignment."""
    shared = {}
    loss = classification_loss(model, batch, memory, config, shared)
    if config.lambda3 != 0:
        loss = loss + config.lambda3 * adversarial_generator_loss(
            model, batch, memory, config, shared)
    return loss
