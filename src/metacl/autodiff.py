"""Reverse-mode automatic differentiation over dense float64 tensors.

A dynamic tape: every differentiable operation appends a graph node with a
monotonically increasing sequence number, and ``backward`` replays the nodes
reachable from the loss in exact reverse construction order. The package
composes only a few primitive ops by hand: ``add``, ``mul``, ``neg``,
``matmul`` and ``relu`` (``+``, ``*`` and unary ``-`` on ``Tensor``).
``sgd_step`` is plain SGD on the resulting gradients.

Only work that depends on a tensor with ``requires_grad`` is taped. An
operation whose inputs are all constants records no node, and the binary
operations (``add``, ``mul``, ``matmul``) note at record time which inputs
require grad and compute no gradient for a constant one.
``grad_only(params, among)`` turns every tensor of ``among`` outside
``params`` into a constant for the length of a block, so a training step
tapes and differentiates only the subgraph that reaches the parameters it
updates; the gradients of those parameters are bit-identical to those of
the fully taped graph.

At width 64 a node's Python cost outweighs its arithmetic, so the network
is not taped op by op: every training loss is one node over a
``TaskForward``, rows of many groups (tasks, or stored snapshot widths)
through trunk, FiLM and heads, whose value and every gradient equal those
of the groups' chains of primitive ops bit for bit. ``task_loss`` is the
one cross-entropy and dark-replay node (union CE, DER++'s term and the
discriminator's loss); ``task_alignment`` is the soft-target alignment.
Inference reads the logits of a one-group ``TaskForward``; a forward plans
its backward only when a loss node is built on it. The losses sum these
nodes with ``add`` and scale them with ``mul``.

The op-by-op chains the nodes are held to, and the ops only they use
(``sub``, ``div``, ``sqrt``, ``tsum``, ``gather_rows``, ``slice_cols``,
``mask_cols``, the cross-entropies and ``l2_distance``), live in the
tests, in ``tests/reference.py``, written on this module's helpers; the
docstrings here name them as the chain's steps. FiLM's epsilon
``NORM_EPS`` is set here alone.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError

_node_seq = itertools.count()

# Finite stand-in for -inf: exp(-1e9) underflows to exactly 0.0 in float64,
# so masked logits get exactly zero softmax probability without NaN risk.
MASK_FILL = -1e9
NORM_EPS = 1e-8  # FiLM divides each coefficient vector by its norm plus this


@contextmanager
def grad_only(params, among):
    """Tape and differentiate only what reaches ``params`` inside the block.

    Every tensor in ``among`` but not in ``params`` has ``requires_grad``
    switched off, so work that depends only on it records no node and it
    receives no gradient. On exit, also on an exception, the flags this
    block switched off are switched back on; tensors outside ``among`` are
    never touched.
    """
    keep = {id(p) for p in params}
    frozen = [t for t in among if t.requires_grad and id(t) not in keep]
    for t in frozen:
        t.requires_grad = False
    try:
        yield
    finally:
        for t in frozen:
            t.requires_grad = True


class Node:
    """One recorded operation: input tensors and a closure mapping the
    output gradient to input gradients.

    The node does not point back at its output: the output already points
    at its node, so a reference back would make every tape a reference
    cycle, freed by the cyclic garbage collector long after its loss is
    dropped.
    """

    __slots__ = ("inputs", "backward_fn", "seq")

    def __init__(self, inputs, backward_fn):
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.seq = next(_node_seq)


class Tensor:
    """Dense n-dimensional float64 value, optionally participating in grads.

    ``data`` is a row-major numpy array; ``grad`` (same shape) appears after a
    backward pass for every tensor with ``requires_grad``.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # operator sugar; scalars are wrapped as constants
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return neg(self)


def _wrap(value):
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(data):
    """Trainable tensor (requires_grad on)."""
    return Tensor(data, requires_grad=True)


def _make(out_data, inputs, backward_fn):
    out = Tensor(out_data)
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            out.node = Node(inputs, backward_fn)
            break
    return out


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting rules)

def add(a, b):
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward_fn(g):
        return (_unbroadcast(g, a.data.shape) if need_a else None,
                _unbroadcast(g, b.data.shape) if need_b else None)

    return _make(a.data + b.data, (a, b), backward_fn)


def mul(a, b):
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward_fn(g):
        return (_unbroadcast(g * b.data, a.data.shape) if need_a else None,
                _unbroadcast(g * a.data, b.data.shape) if need_b else None)

    return _make(a.data * b.data, (a, b), backward_fn)


def neg(a):
    def backward_fn(g):
        return (-g,)

    return _make(-a.data, (a,), backward_fn)


def relu(x):
    """Elementwise max(0, x); subgradient at 0 is 0. NaN passes through, so
    a non-finite input still shows in the loss."""
    out, mask = _relu(x.data)

    def backward_fn(g):
        return (g * mask,)

    return _make(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul: incompatible shapes {a.data.shape} x {b.data.shape}")

    need_a, need_b = a.requires_grad, b.requires_grad

    def backward_fn(g):
        return (g @ b.data.T if need_a else None,
                a.data.T @ g if need_b else None)

    return _make(a.data @ b.data, (a, b), backward_fn)


def _masked(x, valid):
    """A copy of ``x`` with columns >= ``valid`` set to ``MASK_FILL``."""
    out = x.copy()
    out[:, valid:] = MASK_FILL
    return out


def _unmasked(g, valid):
    """``g`` with columns >= ``valid`` zeroed in place: the gradient that
    reaches what ``_masked`` masked."""
    g[:, valid:] = 0.0
    return g


# ---------------------------------------------------------------------------
# layer formulas, written once and evaluated by the task-vectorised loss
# nodes below

def _relu(z, out=None):
    """(relu(z), the mask of its live entries), ``out=z`` in place; NaN
    passes through. The values are ``np.where(z <= 0, 0.0, z)``'s:
    ``maximum`` may keep a -0.0, which adding +0.0 makes +0.0."""
    dead = z <= 0
    out = np.maximum(z, 0.0, out=out)
    out += 0.0
    return out, np.logical_not(dead, out=dead)


def _row_products(rows, w, out=None):
    """``rows[k:k + 1] @ w`` stacked over k, as one stacked matmul (into
    ``out`` if given): numpy runs for each stacked row the product it runs
    for that row alone."""
    return np.matmul(rows[:, None, :], w,
                     out=None if out is None else out[:, None, :])[:, 0, :]


def _film(a, s_hat, t_hat):
    """``(a * s_hat + t_hat) + a``, left to right, in one new array."""
    out = a * s_hat
    out += t_hat
    out += a
    return out


def _outer(e, g):
    """``e[k:k + 1].T @ g[k, i:i + 1]`` stacked over k and i (``g`` is (K, 2,
    F)): that matmul adds each product to zero, turning -0.0 into +0.0."""
    out = e[:, None, :, None] * g[:, :, None, :]
    out += 0.0
    return out


def _norms(v):
    """(root, norm) of ``sqrt(tsum(v_k * v_k)) + NORM_EPS`` for each row v_k
    along the last axis of ``v``, with that axis kept at length one."""
    root = np.sqrt(np.maximum((v * v).sum(axis=-1, keepdims=True), 0.0))
    return root, root + NORM_EPS


def _normalized_grad(g_hat, v, root, norm):
    """The gradient reaching each row v_k (along the last axis) of ``v``
    through ``v_k / (sqrt(tsum(v_k * v_k)) + NORM_EPS)`` from row k of
    ``g_hat`` on the quotient: the div's share, then mul's two."""
    g_norm = (-g_hat * v / (norm * norm)).sum(axis=-1, keepdims=True)
    live = root > 0
    g_sum = np.where(live, 0.5 * g_norm / np.where(live, root, 1.0), 0.0)
    # tsum spreads g_sum over v_k's shape, and mul(v, v) sends g_sum * v_k
    # twice; the div's share arrives first
    g_square = g_sum * v
    return (g_hat / norm + g_square) + g_square


class _Film:
    """FiLM coefficients of K tasks at one layer, row k for task
    ``tasks[k]``, each as the chain of primitive ops computes it alone:
    ``emb = gather_rows(table, [task])``, ``scale = matmul(emb, w_scale) +
    b_scale``, ``shift`` likewise, and ``s_hat = scale / (sqrt(tsum(scale *
    scale)) + NORM_EPS)``, ``t_hat`` likewise. ``params`` is (table, w_scale,
    b_scale, w_shift, b_shift). Scale and shift are one (K, 2, F) array
    ``coeffs``, written by one stacked matmul each; every other step is one
    call over all 2K rows, each reduced on its own. ``s_hat`` and ``t_hat``
    are (K, F) views of ``hats``.
    """

    __slots__ = ("params", "tasks", "embs", "coeffs", "root", "norm",
                 "hats", "s_hat", "t_hat")

    def __init__(self, params, tasks):
        table, w_scale, b_scale, w_shift, b_shift = params
        self.params = params
        self.tasks = np.asarray(tasks, dtype=np.int64)
        self.embs = table.data[self.tasks]
        self.coeffs = np.empty((len(self.tasks), 2, b_scale.data.shape[0]))
        for i, (w, b) in enumerate(((w_scale, b_scale), (w_shift, b_shift))):
            part = self.coeffs[:, i]
            _row_products(self.embs, w.data, out=part)
            part += b.data
        self.root, self.norm = _norms(self.coeffs)
        self.hats = self.coeffs / self.norm
        self.s_hat, self.t_hat = self.hats[:, 0], self.hats[:, 1]

    def rows(self, start, stop):
        """The coefficients of tasks ``start`` to ``stop - 1`` (views)."""
        out = object.__new__(_Film)
        out.params = self.params
        for name in _Film.__slots__[1:]:
            setattr(out, name, getattr(self, name)[start:stop])
        return out

    def grads(self, g_hat, need):
        """Per parameter of ``params`` flagged in ``need``, in that order, a
        stack whose row k is what task k's chain sends it, given the
        gradient ``g_hat`` (K, 2, F) on (s_hat, t_hat)."""
        table, w_scale, _, w_shift, _ = self.params
        g = _normalized_grad(g_hat, self.coeffs, self.root, self.norm)
        g_scale, g_shift = g[:, 0], g[:, 1]
        # gather_rows' np.add.at of one row into zeros, for every task
        k = len(self.tasks)
        g_table = np.zeros((k,) + table.data.shape)
        g_table[np.arange(k), self.tasks] += (
            _row_products(g_shift, w_shift.data.T)
            + _row_products(g_scale, w_scale.data.T))
        outers = _outer(self.embs, g)
        # a bias gets add's _unbroadcast of one row, which adds it to zero
        biases = g + 0.0
        return _flagged((g_table, outers[:, 0], biases[:, 0], outers[:, 1],
                         biases[:, 1]), need)


def _log_softmax(z):
    """Row-wise (log softmax(z), softmax(z)), max-subtraction stabilized."""
    shifted = z - z.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    return log_probs, np.exp(log_probs)


def _ce_grad(softmax, targets, scale):
    """(softmax - one_hot(targets)) * scale; ``scale`` is a scalar or a
    column."""
    grad = softmax.copy()
    grad[np.arange(len(targets)), targets] -= 1.0
    return grad * scale


def _soft_ce(log_probs, probs):
    """Mean over rows of -sum(probs * log_probs)."""
    return -(probs * log_probs).sum(axis=1).mean()


def _soft_ce_grad(softmax, probs, scale):
    """The gradient of ``_soft_ce`` on the logits, times ``scale``."""
    return (softmax * probs.sum(axis=1, keepdims=True) - probs) * scale


def _check_targets(op, targets, n, c):
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n,):
        raise DimensionError(f"{op}: {n} logit rows vs {targets.shape} targets")
    if targets.size and (targets.min() < 0 or targets.max() >= c):
        raise IndexError(f"{op}: target out of range for {c} classes")
    return targets


def _l2_grad(rows, norms, n, g):
    """The gradient of mean-over-``n``-rows of ``norms`` times ``g`` on
    ``rows``; zero norm propagates a zero subgradient. ``n`` and ``g`` are
    scalars or one value per row (``g`` as a column)."""
    safe = np.where(norms > 0, norms, 1.0)
    scale = np.where(norms > 0, 1.0 / safe, 0.0) / n
    return rows * scale[:, None] * g


# ---------------------------------------------------------------------------
# task-vectorised loss nodes

class TaskForward:
    """Rows grouped by task through a task-conditioned MLP: per trunk layer
    ``relu(a @ w + b)``, optionally followed by FiLM with the task's
    coefficients, then the task's head ``relu(a) @ w + b``. Group k holds
    ``sizes[k]`` consecutive rows of task ``tasks[k]`` (any keys: the
    discriminator's loss groups by snapshot width); the keys must be
    strictly ascending and the groups must split the rows of ``x`` exactly,
    none empty, or ``ContractError`` is raised. ``layers`` holds (w, b,
    film) per trunk layer, film being None or FiLM's (table, w_scale,
    b_scale, w_shift, b_shift), and ``heads`` one (w, b) per group.

    Every matmul runs per group, into the group's rows of one array, on
    exactly the operands of that group's chain of primitive ops (the
    reference ``task_features`` with ``film_transform``, then ``classify``,
    in ``tests/reference.py``); everything else is one numpy call over all
    rows or groups, so each group's values equal its chain's bit for bit.

    ``leaves`` lists what the chains send gradient to, once per contribution
    and in the order those arrive: groups last to first, each its head,
    then from the last layer down each layer's FiLM parameters and affine
    map, as far as the requires-grad flags let the gradient go when the
    backward is planned. ``backward`` returns the contributions in that
    order, so a node whose inputs are ``leaves`` adds them up exactly as the
    chains' nodes do. ``task_loss`` and ``task_alignment`` make the plan
    with ``_plan()`` where they build their node, inside the step's
    ``grad_only`` block; a forward no loss is built on, as at inference,
    never plans.

    With ``reuse=(source, n)`` the tasks are the first of the forward
    ``source``, made on the same weights, whose first n groups hold the same
    rows: one loop computes the rows of the other groups (none when n is
    every group), then the source's rows go in front of each array, and all
    FiLM coefficients are the source's. ``films`` is ``task_films`` of
    exactly these tasks, in place of making it.
    """

    def __init__(self, x, tasks, sizes, layers, heads, reuse=None, films=None):
        self.tasks = list(tasks)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        ends = list(itertools.accumulate(self.sizes.tolist()))
        if (not ends or ends[-1] != len(x) or len(self.tasks) != len(ends)
                or min(sizes) < 1
                or any(a >= b for a, b in itertools.pairwise(self.tasks))):
            raise ContractError(f"TaskForward: groups {self.tasks} of sizes "
                                f"{self.sizes.tolist()} are not ascending "
                                f"keys that split {len(x)} rows")
        self.bounds = list(zip([0, *ends[:-1]], ends))
        self.layers, self.heads = layers, heads
        source, shared = reuse if reuse is not None else (None, 0)
        k = len(self.tasks)
        if source is not None and source.tasks[:k] != self.tasks:
            raise ContractError(
                f"TaskForward: tasks {self.tasks} are not the first tasks of "
                f"the reused forward's {source.tasks}")
        self.films = films if films is not None else (
            task_films(layers, self.tasks) if source is None
            else [None if c is None else c.rows(0, k) for c in source.films])
        # compute the rows of the groups from ``shared`` on
        copied = self.bounds[shared - 1][1] if shared else 0
        fresh = [(s - copied, e - copied) for s, e in self.bounds[shared:]]
        group = np.repeat(np.arange(shared, k), self.sizes[shared:])

        def products(a, weights):
            # one product per fresh group, weights given for every group
            out = np.empty((len(a), weights[0].data.shape[1]))
            for (s, e), w in zip(fresh, weights[shared:]):
                np.matmul(a[s:e], w.data, out=out[s:e])
            return out

        self.inputs, self.masks, self.features, self.scales = [], [], [], []
        a = x[copied:]
        for (w, b, _), coeffs in zip(layers, self.films):
            self.inputs.append(a)
            z = products(a, [w] * k)
            z += b.data
            a, mask = _relu(z, out=z)
            self.masks.append(mask)
            self.features.append(a)
            scale_rows = None
            if coeffs is not None:
                scale_rows = coeffs.s_hat[group]
                a = _film(a, scale_rows, coeffs.t_hat[group])
            self.scales.append(scale_rows)
        head_relu, head_mask = _relu(a, out=a)
        logits = products(head_relu, [w for w, _ in heads])
        logits += np.array([b.data for _, b in heads])[group]
        self.head_relu, self.head_mask, self.logits = head_relu, head_mask, logits
        if copied:
            # the source's rows in front of every array
            for name in ("inputs", "masks", "features", "scales"):
                setattr(self, name, [
                    None if v is None else np.concatenate([u[:copied], v])
                    for v, u in zip(getattr(self, name), getattr(source, name))])
            for name in ("head_relu", "head_mask", "logits"):
                setattr(self, name, np.concatenate(
                    [getattr(source, name)[:copied], getattr(self, name)]))

    def _plan(self):
        """Read what requires grad: ``head_needs`` per group, and ``steps``,
        the layers backward reaches from the last down, each as (index,
        FiLM flags or None, (w, b) flags or None when the gradient stops
        at the FiLM, whether it goes on below); then list ``leaves`` and
        return them."""
        self.leaves = []
        self.head_needs = [(w.requires_grad, b.requires_grad)
                           for w, b in self.heads]
        needs, live = [], False
        for w, b, film_params in self.layers:
            own = (w.requires_grad, b.requires_grad)
            film_need = (None if film_params is None
                         else tuple(p.requires_grad for p in film_params))
            trunk = live or any(own)
            needs.append((live, trunk, own, film_need))
            live = trunk or any(film_need or ())
        self.steps = []
        trunk_leaves = []  # the same for every group
        for index in reversed(range(len(self.layers)) if live else ()):
            below, trunk, own, film_need = needs[index]
            self.steps.append((index, film_need, own if trunk else None,
                               trunk and below))
            w, b, film_params = self.layers[index]
            if film_need is not None:
                trunk_leaves += _flagged(film_params, film_need)
            if trunk:
                trunk_leaves += _flagged((w, b), own)
            if not (trunk and below):
                break
        for k in reversed(range(len(self.heads))):
            self.leaves += _flagged(self.heads[k], self.head_needs[k])
            self.leaves += trunk_leaves
        # each row's place among the groups' rows padded to the largest
        self.largest = int(self.sizes.max())
        self.slots = np.arange(self.bounds[-1][1]) + np.repeat(
            np.arange(0, len(self.sizes) * self.largest, self.largest)
            - np.asarray([s for s, _ in self.bounds]), self.sizes)
        return self.leaves

    def _group_sums(self, v):
        """Each group's rows of ``v`` summed over axis 0, stacked (G, F).
        Wider than one column, one axis-1 sum runs over the rows placed at
        ``slots`` of an array padded with -0.0: an axis-0 sum adds a group's
        rows to +0.0 in order, and ``x + -0.0`` is ``x`` for every x. A
        lone column is summed pairwise, so each group is summed alone."""
        if v.shape[1] == 1:
            return np.concatenate([v[s:e].sum(axis=0, keepdims=True)
                                   for s, e in self.bounds])
        padded = np.full((len(self.bounds) * self.largest, v.shape[1]), -0.0)
        padded[self.slots] = v
        return padded.reshape(len(self.bounds), self.largest, -1).sum(axis=1)

    def backward(self, g):
        """The contributions to ``leaves``, in order, of the gradient ``g``
        on the logits; the layer below's gets each group's rows in place."""
        bounds = self.bounds
        sent = [[] for _ in bounds]  # per group, in arrival order

        def affine(x, g, params, needs, below):
            # each group's gradients of matmul(x, w) + b: those on (w, b) go
            # to ``sent``, b's being add's _unbroadcast (a row sum); the one
            # on x is returned if ``below`` asks for it
            out = np.empty((len(g), len(params[0][0].data))) if below else None
            sums = (self._group_sums(g)
                    if any(need_b for _, need_b in needs) else None)
            for k, ((s, e), (w, _), (need_w, need_b)) in enumerate(
                    zip(bounds, params, needs)):
                if below:
                    np.matmul(g[s:e], w.data.T, out=out[s:e])
                if need_w:
                    sent[k].append(x[s:e].T @ g[s:e])
                if need_b:
                    sent[k].append(sums[k])
            return out

        g = affine(self.head_relu, g, self.heads, self.head_needs,
                   bool(self.steps))
        if self.steps:
            g *= self.head_mask
        for index, film_need, own, below in self.steps:
            w, b, _ = self.layers[index]
            if film_need is not None and any(film_need):
                # the gradients on s_hat and t_hat: each group's rows of
                # g * features and of g summed as _unbroadcast sums them, in
                # one call (axis-0 sums run per column) but at width 1, and
                # a one-row group's row as it is (a sum would make -0.0 +0.0)
                width = g.shape[1]
                scaled = g * self.features[index]
                both = np.concatenate([scaled, g], 1)
                sums = (self._group_sums(both) if width > 1 else
                        np.concatenate([self._group_sums(scaled),
                                        self._group_sums(g)], 1))
                ones = [k for k, (s, e) in enumerate(bounds) if e - s == 1]
                if ones:
                    sums[ones] = both[[bounds[k][0] for k in ones]]
                stacks = self.films[index].grads(
                    sums.reshape(len(bounds), 2, width), film_need)
                for k, grads in enumerate(sent):
                    grads += [stack[k] for stack in stacks]
            if own is None:
                break
            if film_need is not None:
                # the residual sum's share, then the scaling's
                residual = g * self.scales[index]
                residual += g
                g = residual
            g *= self.masks[index]
            g = affine(self.inputs[index], g, [(w, b)] * len(bounds),
                       [own] * len(bounds), below)
        return [c for grads in reversed(sent) for c in grads]

    def means(self, v, first=0):
        """Each group's mean, from group ``first`` on, of the 1-D ``v``
        that holds those groups' rows: numpy's ``mean``, the sum of the
        group's entries over their count, without its Python wrapper."""
        base = self.bounds[first][0]
        return [np.add.reduce(v[s - base:e - base]) / (e - s)
                for s, e in self.bounds[first:]]


def task_films(layers, tasks):
    """Per layer of ``TaskForward`` ``layers``, the ``_Film`` of ``tasks``
    (None without FiLM); ``rows(k, k + 1)`` of each is task k's alone."""
    return [None if params is None else _Film(params, tasks)
            for _, _, params in layers]


def _flagged(tensors, flags):
    return [t for t, flag in zip(tensors, flags) if flag]


def _fold(values):
    """Sum ``values`` left to right as ``add`` nodes do; None if empty."""
    total = None
    for value in values:
        total = value if total is None else total + value
    return total


def task_loss(forward, targets, valid=None, stored=None, widths=(),
              lambda1=0.0, lambda2=0.0):
    """Cross-entropy and dark replay over the groups of ``forward`` as one
    node, on its logits masked to the first ``valid`` columns
    (``mask_cols``) when given. The last ``len(widths)`` groups replay
    stored logits, group k's in the first ``widths[k]`` columns of its rows
    of ``stored`` (a constant array, one row per replayed row); the groups
    before them are plain. The value

        ce_plain + lambda1 * l2 + lambda2 * ce

    has ``ce_plain`` sum ``softmax_cross_entropy(logits_t, targets_t) *
    (n_t / N)`` over the plain groups, N being their rows; ``l2`` sums
    ``l2_distance(slice_cols(logits_t, w_t), stored_t) * (n_t / M)`` and
    ``ce`` the cross-entropy likewise over the replayed groups, M being
    their rows. Each part sums its groups in order, a part without
    groups is left out, and the value and every gradient equal those of
    that per-group chain bit for bit."""
    logits = (forward.logits if valid is None
              else _masked(forward.logits, valid))
    n, c = logits.shape
    targets = _check_targets("task_loss", targets, n, c)
    log_probs, softmax = _log_softmax(logits)
    plain = len(forward.sizes) - len(widths)
    main = forward.bounds[plain - 1][1] if plain else 0
    fracs = np.concatenate([forward.sizes[:plain] / main,
                            forward.sizes[plain:] / (n - main)])
    ce_terms = [-mean * frac for mean, frac in
                zip(forward.means(log_probs[np.arange(n), targets]), fracs)]
    value = _fold(ce_terms[:plain])
    if widths:
        wide = max(widths)
        diff = logits[main:, :wide] - stored[:, :wide]
        squares = diff * diff
        # each norm sums exactly its group's w columns: a sum that also
        # takes zero-padded columns can group its terms differently
        norms = np.sqrt(np.concatenate([
            squares[s - main:e - main, :w].sum(axis=1)
            for (s, e), w in zip(forward.bounds[plain:], widths)]))
        l2 = _fold([mean * frac for mean, frac in zip(
            forward.means(norms, plain), fracs[plain:])])
        value = lambda1 * l2 if value is None else value + lambda1 * l2
        value = value + lambda2 * _fold(ce_terms[plain:])

    def backward_fn(g):
        # each group's share, repeated over its rows
        gains = g * fracs
        gains[plain:] = (g * lambda2) * fracs[plain:]
        scale = np.repeat(gains / forward.sizes, forward.sizes)
        g_logits = _ce_grad(softmax, targets, scale[:, None])
        if widths:
            # each replayed row gets its CE share, then its L2 share padded
            # to the full width with zeros, as slice_cols pads it: adding it
            # turns a -0.0 CE share into +0.0, as the chain's sum does
            sizes = forward.sizes[plain:]
            g_l2 = _l2_grad(diff, norms, np.repeat(sizes, sizes),
                            np.repeat((g * lambda1) * fracs[plain:],
                                      sizes)[:, None])
            live = np.arange(wide) < np.repeat(widths, sizes)[:, None]
            padded = np.zeros((n - main, c))
            padded[:, :wide] = np.where(live, g_l2, 0.0)
            g_logits[main:] += padded
        return forward.backward(g_logits if valid is None
                                else _unmasked(g_logits, valid))

    return _make(value, forward._plan(), backward_fn)


def task_alignment(forward, valid, probs):
    """``soft_cross_entropy(logits, probs)`` on the logits of a one-group
    ``forward`` masked to the first ``valid`` columns (``mask_cols``), as
    one node, bit for bit in value and every gradient."""
    logits = _masked(forward.logits, valid)
    log_probs, softmax = _log_softmax(logits)
    n = len(logits)

    def backward_fn(g):
        return forward.backward(_unmasked(
            _soft_ce_grad(softmax, probs, g / n), valid))

    return _make(_soft_ce(log_probs, probs), forward._plan(), backward_fn)


# ---------------------------------------------------------------------------
# backward pass and SGD

def backward(loss):
    """Add the loss's gradient to ``grad`` of every requires_grad leaf tensor
    (one without a node) reachable from ``loss``.

    Repeated calls without zeroing accumulate, matching the usual semantics.
    Intermediate tensors get no ``grad``.
    """
    if loss.data.size != 1:
        raise ContractError(
            f"backward: loss must be scalar, got shape {loss.data.shape}")

    # every node reachable from the loss, keyed by its sequence number
    root = loss.node
    nodes = {} if root is None else {root.seq: root}
    stack = [] if root is None else [root]
    while stack:
        for inp in stack.pop().inputs:
            node = inp.node
            if node is not None and node.seq not in nodes:
                nodes[node.seq] = node
                stack.append(node)

    # flow gradients through a temporary map, keyed by the node that made a
    # tensor or by the tensor itself for a leaf, so repeated backward calls
    # add exactly one extra unit of gradient per call; a node's output
    # gradient is complete once every later node has run. A flow's second
    # contribution makes a new array (0-d: an immutable scalar), which
    # ``owned`` (by key: ids get reused) lets later ones add into in place
    flows = {loss if root is None else root: np.ones_like(loss.data)}
    owned = set()
    for seq in sorted(nodes, reverse=True):
        node = nodes[seq]
        g_out = flows.pop(node, None)
        if g_out is None:
            continue
        for inp, g in zip(node.inputs, node.backward_fn(g_out)):
            if g is None or not inp.requires_grad:
                continue
            key = inp if inp.node is None else inp.node
            prev = flows.get(key)
            if prev is None:
                flows[key] = g
            elif key in owned:
                prev += g
            else:
                flows[key] = prev = prev + g
                if np.ndim(prev):
                    owned.add(key)

    # every node has been popped, so only leaves remain
    for tensor, g in flows.items():
        if tensor.requires_grad:
            tensor.grad = g if tensor.grad is None else tensor.grad + g


def zero_grads(params):
    for p in params:
        p.grad = None


def sgd_step(params, lr):
    """In-place ``p -= lr * grad`` for each parameter, then clear the grads;
    a learning rate that is not a finite number > 0 moves nothing."""
    if not (math.isfinite(lr) and lr > 0):
        raise ContractError(
            f"sgd_step: learning rate must be a finite number > 0, got {lr}")
    params = list(params)
    for p in params:
        if p.grad is None:
            raise ContractError("sgd_step: parameter has no gradient")
    for p in params:
        p.data -= lr * p.grad
        p.grad = None


def assert_finite(tensor, label="tensor"):
    data = tensor.data
    if not (math.isfinite(data.item()) if data.size == 1
            else np.all(np.isfinite(data))):
        raise FloatingPointError(f"{label} contains NaN or Inf")
