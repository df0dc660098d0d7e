"""Reverse-mode automatic differentiation over dense float64 tensors.

A dynamic tape: every differentiable operation appends a graph node with a
monotonically increasing sequence number, and ``backward`` replays the nodes
reachable from the loss in exact reverse construction order. The engine covers
what an MLP stack needs -- affine maps, ReLU, softmax cross-entropy, Euclidean
distances, elementwise arithmetic with numpy-style broadcasting -- plus plain
SGD on the resulting gradients.

Only work that depends on a tensor with ``requires_grad`` is taped. An
operation whose inputs are all constants records no node, and the binary
operations (``add``, ``sub``, ``mul``, ``div``, ``matmul``) note at record
time which inputs require grad and compute no gradient for a constant one.
``grad_only(params, among)`` turns every tensor of ``among`` outside
``params`` into a constant for the length of a block, so a training step
tapes and differentiates only the subgraph that reaches the parameters it
updates; the gradients of those parameters are bit-identical to those of
the fully taped graph.

At width 64 a node's Python cost outweighs its arithmetic, so the network's
layers record fused nodes, one per layer call: ``affine`` (matmul + add),
``affine_relu`` (matmul + add + relu), ``relu_affine`` (relu + matmul + add)
and ``film`` (the embedding gather, the two affine coefficient maps and the
normalized scale-and-shift with its residual, 18 nodes when unfused). Each
is bit-identical to the chain of primitive ops it replaces, in its value and
in every gradient it sends: its backward evaluates the chain's backward
expressions in the chain's reverse recording order, and an input that the
chain reaches twice (FiLM's features) is listed twice, so its two
contributions join its other gradients in the chain's order. A fused node
lists only the inputs that require grad.

``replay(out)`` re-records the tape that made ``out`` without redoing its
forward arithmetic: the result shares ``out.data``, its leaves and constants
are ``out``'s, and every node that made ``out`` is recorded again, in its
original order, with its own ``backward_fn`` and its inputs remapped to the
copies. Back-propagating through a replay is bit-identical to recomputing
``out`` at the point where ``replay`` is called, so a value that two loss
terms need is computed once and differentiated as if each had built it.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError

_node_seq = itertools.count()
_grad_enabled = True

# Finite stand-in for -inf: exp(-1e9) underflows to exactly 0.0 in float64,
# so masked logits get exactly zero softmax probability without NaN risk.
MASK_FILL = -1e9


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


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

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self):
        """Gradient-disconnected copy of the current value."""
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # operator sugar; scalars are wrapped as constants
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _wrap(value):
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(data):
    """Trainable tensor (requires_grad on)."""
    return Tensor(data, requires_grad=True)


def _make(out_data, inputs, backward_fn):
    out = Tensor(out_data)
    if _grad_enabled:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                out.node = Node(inputs, backward_fn)
                break
    return out


def replay(out):
    """A tensor equal to ``out`` whose tape is a fresh copy of ``out``'s.

    The copy shares ``out.data``, ``out``'s leaves and its constants; every
    intermediate tensor and node is new. Each new node keeps its original's
    ``backward_fn`` and inputs, remapped to the copies (an input listed twice
    stays listed twice), and takes a new sequence number, in the originals'
    recording order. Gradients through the copy are therefore bit-identical
    to those through a recompute of ``out`` at this point. A tensor with no
    node is returned as is; under ``no_grad`` the copy records nothing.
    """
    if out.node is None:
        return out
    if not _grad_enabled:
        return Tensor(out.data)
    made = {}  # every node that made ``out`` -> the tensor it made
    stack = [out]
    while stack:
        tensor = stack.pop()
        if tensor.node not in made:
            made[tensor.node] = tensor
            stack.extend(t for t in tensor.node.inputs if t.node is not None)
    copies = {}
    for node in sorted(made, key=lambda n: n.seq):
        copy = Tensor(made[node].data, requires_grad=True)
        copy.node = Node([t if t.node is None else copies[t.node]
                          for t in node.inputs], node.backward_fn)
        copies[node] = copy
    return copies[out.node]


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


def sub(a, b):
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward_fn(g):
        return (_unbroadcast(g, a.data.shape) if need_a else None,
                _unbroadcast(-g, b.data.shape) if need_b else None)

    return _make(a.data - b.data, (a, b), backward_fn)


def mul(a, b):
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward_fn(g):
        return (_unbroadcast(g * b.data, a.data.shape) if need_a else None,
                _unbroadcast(g * a.data, b.data.shape) if need_b else None)

    return _make(a.data * b.data, (a, b), backward_fn)


def div(a, b):
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward_fn(g):
        return (_unbroadcast(g / b.data, a.data.shape) if need_a else None,
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
                if need_b else None)

    return _make(a.data / b.data, (a, b), backward_fn)


def neg(a):
    def backward_fn(g):
        return (-g,)

    return _make(-a.data, (a,), backward_fn)


def relu(x):
    """Elementwise max(0, x); subgradient at 0 is 0. NaN passes through, so
    a non-finite input still shows in the loss."""
    dead = x.data <= 0
    mask = ~dead

    def backward_fn(g):
        return (g * mask,)

    return _make(np.where(dead, 0.0, x.data), (x,), backward_fn)


def sqrt(x):
    """Elementwise square root; negatives clamp to 0, subgradient at 0 is 0."""
    out_data = np.sqrt(np.maximum(x.data, 0.0))

    def backward_fn(g):
        return (np.where(out_data > 0, 0.5 * g / np.where(out_data > 0, out_data, 1.0), 0.0),)

    return _make(out_data, (x,), backward_fn)


def tsum(x, axis=None, keepdims=False):
    """Sum over all entries or one axis."""
    def backward_fn(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, x.data.shape).copy(),)

    return _make(x.data.sum(axis=axis, keepdims=keepdims), (x,), backward_fn)


def tmean(x, axis=None, keepdims=False):
    n = x.data.size if axis is None else x.data.shape[axis]

    def backward_fn(g):
        if axis is None:
            return (np.broadcast_to(g / n, x.data.shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp / n, x.data.shape).copy(),)

    return _make(x.data.mean(axis=axis, keepdims=keepdims), (x,), backward_fn)


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


def mask_cols(x, valid, fill=MASK_FILL):
    """Replace columns >= ``valid`` with ``fill``; masked columns get no grad."""
    out_data = x.data.copy()
    out_data[:, valid:] = fill

    def backward_fn(g):
        g = g.copy()
        g[:, valid:] = 0.0
        return (g,)

    return _make(out_data, (x,), backward_fn)


# ---------------------------------------------------------------------------
# fused layers: one node for a chain of the ops above

def _make_fused(out_data, inputs, backward_fn):
    """Record a fused node on those of ``inputs`` that require grad, so a
    constant is no node's input; ``backward_fn`` returns their gradients in
    the same order. An input listed twice gets two contributions, added in
    that order as the unfused chain adds them."""
    return _make(out_data, [t for t in inputs if t.requires_grad], backward_fn)


def _check_affine(op, x, w, b):
    if (x.data.ndim != 2 or w.data.ndim != 2
            or x.data.shape[1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise DimensionError(
            f"{op}: incompatible shapes {x.data.shape} x {w.data.shape} "
            f"+ {b.data.shape}")


def _affine_grads(g, x_data, w, b, need):
    """The gradients matmul(x, w) + b sends to those of (x, w, b) flagged
    in ``need``, in that order; ``x_data`` is the matmul's left operand.
    b's is add's ``_unbroadcast`` from (B, F) to b's (F,): one row sum."""
    need_x, need_w, need_b = need
    grads = []
    if need_x:
        grads.append(g @ w.data.T)
    if need_w:
        grads.append(x_data.T @ g)
    if need_b:
        grads.append(g.sum(axis=0))
    return grads


def affine(x, w, b):
    """``matmul(x, w) + b`` as one node."""
    _check_affine("affine", x, w, b)
    need = (x.requires_grad, w.requires_grad, b.requires_grad)

    def backward_fn(g):
        return _affine_grads(g, x.data, w, b, need)

    return _make_fused(x.data @ w.data + b.data, (x, w, b), backward_fn)


def affine_relu(x, w, b):
    """``relu(matmul(x, w) + b)`` as one node."""
    _check_affine("affine_relu", x, w, b)
    need = (x.requires_grad, w.requires_grad, b.requires_grad)
    z = x.data @ w.data + b.data
    dead = z <= 0
    mask = ~dead

    def backward_fn(g):
        return _affine_grads(g * mask, x.data, w, b, need)

    return _make_fused(np.where(dead, 0.0, z), (x, w, b), backward_fn)


def relu_affine(x, w, b):
    """``matmul(relu(x), w) + b`` as one node."""
    _check_affine("relu_affine", x, w, b)
    need = (x.requires_grad, w.requires_grad, b.requires_grad)
    dead = x.data <= 0
    mask = ~dead
    r = np.where(dead, 0.0, x.data)

    def backward_fn(g):
        grads = _affine_grads(g, r, w, b, need)
        if need[0]:
            grads[0] = grads[0] * mask
        return grads

    return _make_fused(r @ w.data + b.data, (x, w, b), backward_fn)


def _norm(v, eps):
    """(root, norm) of ``sqrt(tsum(v * v)) + eps``."""
    root = np.sqrt(np.maximum((v * v).sum(), 0.0))
    return root, root + eps


def _normalized_grad(g_hat, v, root, norm):
    """The gradient reaching ``v`` through ``v / (sqrt(tsum(v * v)) + eps)``
    from ``g_hat`` on the quotient: the div's share, then mul's two."""
    g_norm = _unbroadcast(-g_hat * v / (norm * norm), ())
    g_sum = 0.5 * g_norm / root if root > 0 else 0.0
    # tsum spreads g_sum over v's shape, and mul(v, v) sends g_sum * v
    # twice; the div's share arrives first
    g_square = g_sum * v
    return (g_hat / norm + g_square) + g_square


def film(features, table, row, w_scale, b_scale, w_shift, b_shift, eps):
    """Normalized feature-wise scale and shift plus a residual, with the
    coefficients looked up from ``row`` of an embedding table, as one node:

        emb   = gather_rows(table, [row])
        scale = matmul(emb, w_scale) + b_scale
        shift = matmul(emb, w_shift) + b_shift
        out   = features * (scale / (sqrt(tsum(scale * scale)) + eps))
                + shift / (sqrt(tsum(shift * shift)) + eps) + features
    """
    f = features.data
    fits = f.ndim == 2 and table.data.ndim == 2
    if fits:
        w_shape, b_shape = (table.data.shape[1], f.shape[1]), (f.shape[1],)
        fits = (w_scale.data.shape == w_shape == w_shift.data.shape
                and b_scale.data.shape == b_shape == b_shift.data.shape)
    if not fits:
        raise DimensionError(
            f"film: features {f.shape}, table {table.data.shape}, scale "
            f"{w_scale.data.shape} + {b_scale.data.shape}, shift "
            f"{w_shift.data.shape} + {b_shift.data.shape} do not fit")
    inputs = (features, features, table, w_scale, b_scale, w_shift, b_shift)
    need_f, _, need_e, need_ws, need_bs, need_wt, need_bt = [
        t.requires_grad for t in inputs]
    need_scale = need_e or need_ws or need_bs
    need_shift = need_e or need_wt or need_bt

    idx = np.asarray([row], dtype=np.int64)
    emb = table.data[idx]
    scale = emb @ w_scale.data + b_scale.data
    shift = emb @ w_shift.data + b_shift.data
    root_s, norm_s = _norm(scale, eps)
    root_t, norm_t = _norm(shift, eps)
    s_hat = scale / norm_s

    def backward_fn(g):
        grads = []
        if need_f:
            # the residual sum's share, then the scaling's
            grads += [g, g * s_hat]
        if need_scale:
            g_scale = _normalized_grad(_unbroadcast(g * f, s_hat.shape),
                                       scale, root_s, norm_s)
        if need_shift:
            g_shift = _normalized_grad(_unbroadcast(g, shift.shape),
                                       shift, root_t, norm_t)
        if need_e:
            g_table = np.zeros_like(table.data)
            np.add.at(g_table, idx, g_shift @ w_shift.data.T
                      + g_scale @ w_scale.data.T)
            grads.append(g_table)
        if need_ws:
            grads.append(emb.T @ g_scale)
        if need_bs:
            grads.append(g_scale.sum(axis=0))
        if need_wt:
            grads.append(emb.T @ g_shift)
        if need_bt:
            grads.append(g_shift.sum(axis=0))
        return grads

    return _make_fused((f * s_hat + shift / norm_t) + f, inputs, backward_fn)


# ---------------------------------------------------------------------------
# losses

def log_softmax(x):
    """Row-wise log-softmax with max-subtraction stabilization."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out_data = shifted - log_z
    softmax = np.exp(out_data)

    def backward_fn(g):
        return (g - softmax * g.sum(axis=1, keepdims=True),)

    return _make(out_data, (x,), backward_fn)


def softmax_cross_entropy(logits, targets):
    """Mean over the batch of -log softmax(logits)[target].

    ``targets`` is an integer class-index vector of length B.
    """
    if logits.data.ndim != 2:
        raise DimensionError(f"softmax_cross_entropy: logits must be 2-D, got {logits.data.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    n, c = logits.data.shape
    if targets.shape != (n,):
        raise DimensionError(
            f"softmax_cross_entropy: {n} logit rows vs {targets.shape} targets")
    if targets.size and (targets.min() < 0 or targets.max() >= c):
        raise IndexError(
            f"softmax_cross_entropy: target out of range for {c} classes")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    softmax = np.exp(log_probs)
    loss = -log_probs[np.arange(n), targets].mean()

    def backward_fn(g):
        grad = softmax.copy()
        grad[np.arange(n), targets] -= 1.0
        return (grad * (g / n),)

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
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    softmax = np.exp(log_probs)
    loss = -(probs * log_probs).sum(axis=1).mean()

    def backward_fn(g):
        row_mass = probs.sum(axis=1, keepdims=True)
        return ((softmax * row_mass - probs) * (g / n),)

    return _make(loss, (logits,), backward_fn)


def l2_distance(a, b):
    """Euclidean norm of (a - b), averaged over batch rows.

    1-D inputs are treated as a single row. Zero distance propagates a zero
    subgradient.
    """
    if a.data.shape != b.data.shape:
        raise DimensionError(
            f"l2_distance: shapes differ, {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    rows = diff.reshape(1, -1) if diff.ndim == 1 else diff.reshape(diff.shape[0], -1)
    norms = np.sqrt((rows * rows).sum(axis=1))
    n = rows.shape[0]
    loss = norms.mean()

    def backward_fn(g):
        safe = np.where(norms > 0, norms, 1.0)
        scale = np.where(norms > 0, 1.0 / safe, 0.0) / n
        grad = (rows * scale[:, None] * g).reshape(a.data.shape)
        return grad, -grad

    return _make(loss, (a, b), backward_fn)


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
    # gradient is complete once every later node has run
    flows = {loss if root is None else root: np.ones_like(loss.data)}
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
            flows[key] = g if prev is None else prev + g

    # every node has been popped, so only leaves remain
    for tensor, g in flows.items():
        if tensor.requires_grad:
            tensor.grad = g if tensor.grad is None else tensor.grad + g


def zero_grads(params):
    for p in params:
        p.grad = None


def sgd_step(params, lr):
    """In-place ``p -= lr * grad`` for each parameter, then clear the grads."""
    if lr <= 0:
        raise ContractError(f"sgd_step: learning rate must be positive, got {lr}")
    params = list(params)
    for p in params:
        if p.grad is None:
            raise ContractError("sgd_step: parameter has no gradient")
    for p in params:
        p.data -= lr * p.grad
        p.grad = None


def assert_finite(tensor, label="tensor"):
    if not np.all(np.isfinite(tensor.data)):
        raise FloatingPointError(f"{label} contains NaN or Inf")
