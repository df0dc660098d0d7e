"""A tour of the reverse-mode tape: build graphs, read gradients, fit a model.

Everything in the library runs on float64 numpy through this one module, so
it is worth seeing it move on its own before it disappears under the trainer.
The network is not taped op by op: a ``TaskForward`` runs rows grouped by
task through trunk and heads, and ``task_loss`` is one tape node of
cross-entropy over it.
"""

import numpy as np

from metacl.autodiff import (
    TaskForward,
    backward,
    parameter,
    sgd_step,
    task_loss,
    zero_grads,
)


def scalar_chain():
    print("== a scalar chain ==")
    x = parameter(np.array(3.0))
    y = x * x + x  # d/dx (x^2 + x) = 2x + 1 = 7 at x = 3
    backward(y)
    print(f"  f(x) = x^2 + x at x=3:  f = {y.data:.1f}, df/dx = {x.grad:.1f}")


def mlp(rng, widths):
    """Parameters of ``relu(x @ w1 + b1)``, then a head ``relu(h) @ w2 + b2``,
    as ``TaskForward`` takes them: one trunk layer without FiLM, one head."""
    w1 = parameter(0.5 * rng.normal(size=widths[:2]))
    b1 = parameter(np.zeros(widths[1]))
    w2 = parameter(0.5 * rng.normal(size=widths[1:]))
    b2 = parameter(np.zeros(widths[2]))
    return [(w1, b1, None)], [(w2, b2)]


def finite_difference_spot_check():
    print("== gradient vs central difference ==")
    rng = np.random.default_rng(0)
    layers, heads = mlp(rng, (4, 6, 3))
    x = rng.normal(size=(5, 4))
    y = rng.integers(0, 3, size=5)
    w = layers[0][0]

    def loss():
        # one group: all five rows belong to task 1
        return task_loss(TaskForward(x, [1], [5], layers, heads), y)

    backward(loss())
    analytic = w.grad[1, 2]

    step = 1e-6
    w.data[1, 2] += step
    hi = loss().data
    w.data[1, 2] -= 2 * step
    lo = loss().data
    w.data[1, 2] += step
    numeric = (hi - lo) / (2 * step)
    print(f"  analytic {analytic:+.8f}  numeric {numeric:+.8f}  "
          f"|diff| {abs(analytic - numeric):.2e}")


def fit_a_small_classifier():
    print("== fit two gaussian blobs ==")
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.normal(-1.5, 1.0, size=(60, 2)),
                        rng.normal(+1.5, 1.0, size=(60, 2))])
    y = np.concatenate([np.zeros(60, dtype=int), np.ones(60, dtype=int)])

    layers, heads = mlp(rng, (2, 8, 2))
    params = [p for w, b, _ in layers for p in (w, b)] + list(heads[0])

    for step in range(201):
        forward = TaskForward(x, [1], [len(x)], layers, heads)
        loss = task_loss(forward, y)
        if step % 50 == 0:
            acc = (forward.logits.argmax(axis=1) == y).mean()
            print(f"  step {step:3d}  loss {loss.data:.4f}  acc {acc:.3f}")
        zero_grads(params)
        backward(loss)
        sgd_step(params, lr=0.5)


def fan_out_accumulates():
    print("== one weight on two paths accumulates both gradients ==")
    rng = np.random.default_rng(3)
    layers, heads = mlp(rng, (3, 4, 2))
    w = layers[0][0]
    x, y = rng.normal(size=(6, 3)), rng.integers(0, 2, size=6)

    def half_loss(rows):
        return task_loss(TaskForward(x[rows], [1], [3], layers, heads), y[rows])

    separate = []
    for rows in (slice(0, 3), slice(3, 6)):
        zero_grads([w])
        backward(half_loss(rows))
        separate.append(w.grad)
    zero_grads([w])
    backward(half_loss(slice(0, 3)) + half_loss(slice(3, 6)))
    print(f"  grad of the sum == sum of the grads: "
          f"{np.array_equal(w.grad, separate[0] + separate[1])}")


if __name__ == "__main__":
    scalar_chain()
    finite_difference_spot_check()
    fit_a_small_classifier()
    fan_out_accumulates()
