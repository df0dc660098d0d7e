"""Shared test oracles and fixtures.

The finite-difference checker is deliberately independent of the autodiff
backward path: it re-evaluates the loss through fresh forward passes only.
"""

import os

import numpy as np

from metacl.autodiff import backward, zero_grads
from metacl.losses import ce_loss, derpp_loss
from metacl.memory import Draw


def draw_of(entries):
    """The memory draw holding ``entries`` in the given order, laid out as
    ``EpisodicMemory.sample`` lays out its rows."""
    entries = list(entries)

    def padded(snaps):
        width = np.array([0 if s is None else len(s) for s in snaps],
                         dtype=np.int64)
        out = np.zeros((len(snaps), int(width.max(initial=0))))
        for i, s in enumerate(snaps):
            if s is not None:
                out[i, :len(s)] = s
        return out, width

    h, h_width = padded([e.h for e in entries])
    h_disc, h_disc_width = padded([e.h_disc for e in entries])
    x = (np.stack([e.x for e in entries]).astype(np.float64) if entries
         else np.zeros((0, 0)))
    return Draw(x=x, y=np.array([e.y for e in entries], dtype=np.int64),
                t=np.array([e.t for e in entries], dtype=np.int64),
                h=h, h_width=h_width, h_disc=h_disc, h_disc_width=h_disc_width)


def derpp_on_ce(model, memory, config):
    """The dark-replay term on ``memory`` as training builds it: on the
    ``shared`` dict that ``ce_loss`` fills for the same draw, with no batch."""
    shared = {}
    if memory is not None and len(memory) > 0:
        ce_loss(model, None, memory, shared)
    return derpp_loss(model, memory, config, shared)


def finite_difference_grad(loss_fn, param, step=1e-5):
    """Central finite differences of ``loss_fn()`` w.r.t. every entry of
    ``param`` (a Tensor whose .data is perturbed in place)."""
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(loss_fn().data)
        flat[i] = orig - step
        lo = float(loss_fn().data)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return grad


def check_gradients(loss_fn, params, step=1e-5, rtol=1e-4, min_denom=1e-8):
    """Assert analytic grads from ``backward`` match central differences.

    Relative error uses max(|analytic|, |numeric|, min_denom) as denominator.
    Returns the worst relative error observed.
    """
    zero_grads(params)
    loss = loss_fn()
    backward(loss)
    worst = 0.0
    for p in params:
        analytic = np.zeros_like(p.data) if p.grad is None else p.grad
        numeric = finite_difference_grad(loss_fn, p, step=step)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), min_denom)
        rel = np.abs(analytic - numeric) / denom
        worst = max(worst, float(rel.max()) if rel.size else 0.0)
        assert np.all(rel < rtol), (
            f"gradient mismatch: worst rel err {rel.max():.3e} (rtol {rtol})")
    zero_grads(params)
    return worst


class _FailingFile:
    """A file that takes ``budget`` bytes, writes part of the next chunk, then
    raises OSError, as a full disk would."""

    def __init__(self, f, budget):
        self._f, self._budget = f, budget

    def write(self, data):
        data = bytes(data)
        if len(data) > self._budget:
            self._f.write(data[:self._budget])
            raise OSError("no space left on device")
        self._budget -= len(data)
        return self._f.write(data)

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def fail_writes_after(monkeypatch, budget):
    """Make every file opened with ``os.fdopen`` fail after ``budget`` bytes."""
    real = os.fdopen
    monkeypatch.setattr(os, "fdopen",
                        lambda *a, **k: _FailingFile(real(*a, **k), budget))
