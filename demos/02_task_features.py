"""How one shared trunk serves many tasks through normalized scale-and-shift.

The model keeps a single feature extractor. Per task, a generator emits one
scale vector and one shift vector per trunk layer; both are normalized to
unit length before use, and the modulated features are added back onto the
raw ones. This script pokes at the three properties that make the scheme
safe to bolt onto a shared trunk, through the forward the library trains
and evaluates with: ``ContinualModel.task_forward``, whose FiLM
coefficients ``task_films`` computes.
"""

import numpy as np

from metacl.networks import ContinualModel


def model(transform_mode="per_layer", classes=2):
    out = ContinualModel(
        input_dim=8, classes_per_task=classes, feature_width=16, depth=2,
        head_mode="multi", k_max=4, embed_dim=8,
        transform_mode=transform_mode, share_embedding=True, disc_hidden=8,
        seed=0)
    out.register_task(1)
    out.register_task(2)
    return out


def normalization_kills_magnitude():
    print("== coefficient magnitude does not matter ==")
    m = model()
    x = np.random.default_rng(1).normal(size=(3, 8))
    base = m.snapshot_logits(x, 1)
    for c in (10.0, 1000.0):
        # every generator map scaled by c scales every coefficient by c
        for p in m.generator_params()[1:]:
            p.data *= c
        diff = np.abs(m.snapshot_logits(x, 1) - base).max()
        for p in m.generator_params()[1:]:
            p.data /= c
        print(f"  coefficients x{c:6.0f}: max |change in logits| = {diff:.2e}")


def zero_coefficients_are_identity():
    print("== a silent generator leaves features untouched ==")
    m, plain = model(), model(transform_mode="off")
    for p in m.generator_params()[1:]:
        p.data[...] = 0.0
    hats = [film.hats for film in m.task_films([1])]
    x = np.random.default_rng(2).normal(size=(4, 8))
    same = np.array_equal(m.snapshot_logits(x, 1), plain.snapshot_logits(x, 1))
    print(f"  normalized coefficients all zero: "
          f"{not any(h.any() for h in hats)}")
    print(f"  logits == those of the unmodulated twin: {same}")


def tasks_get_different_views():
    print("== same input, different task, different features ==")
    m, plain = model(), model(transform_mode="off")
    x = np.random.default_rng(3).normal(size=(1, 8))
    # one row per task; head_relu holds the features each task's head reads
    f1, f2 = m.task_forward(np.vstack([x, x]), [1, 2], [1, 1]).head_relu
    shared = plain.task_forward(x, [1], [1]).head_relu[0]

    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    print(f"  cos(task1, task2)  = {cos(f1, f2):.4f}")
    print(f"  cos(task1, shared) = {cos(f1, shared):.4f}")
    print(f"  cos(task2, shared) = {cos(f2, shared):.4f}")
    print("  the residual keeps both views anchored to the trunk, while the")
    print("  per-task modulation separates them from each other")


def a_zeroed_head_is_maximally_unsure():
    print("== a zeroed head predicts the uniform distribution ==")
    m = model(classes=4)
    w, b = m.heads[1]
    w.data[...] = 0.0
    b.data[...] = 0.0
    x = np.random.default_rng(4).normal(size=(2, 8))
    logits = m.snapshot_logits(x, 1)
    print(f"  logits through a zeroed head: {logits[0]}")
    print(f"  cross-entropy on any label is ln(4) = {np.log(4.0):.4f}")


if __name__ == "__main__":
    normalization_kills_magnitude()
    zero_coefficients_are_identity()
    tasks_get_different_views()
    a_zeroed_head_is_maximally_unsure()
