"""Reference ops the tests build the loss chains from.

``slice_cols``, ``soft_cross_entropy`` and ``l2_distance`` are primitive
tape ops like those of ``metacl.autodiff``, written on its helpers, but no
path of the package calls them: the loss nodes (``task_loss``'s dark
replay, ``task_alignment``) must equal their chains bit for bit, and the
finite-difference and closed-form checks hold them to their definitions.
``_l2_norms``, the row norms, is ``l2_distance``'s alone.
"""

import numpy as np

from metacl.autodiff import (
    _l2_grad,
    _log_softmax,
    _make,
    _soft_ce,
    _soft_ce_grad,
)
from metacl.errors import DimensionError


def slice_cols(x, n):
    """First ``n`` columns of a matrix; zero-pads the gradient."""
    def backward_fn(g):
        out = np.zeros_like(x.data)
        out[:, :n] = g
        return (out,)

    return _make(x.data[:, :n].copy(), (x,), backward_fn)


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
