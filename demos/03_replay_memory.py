"""The shared episodic memory: reservoirs, budgets, and frozen snapshots.

One memory serves every task. Each task owns a fixed number of slots filled
by one-pass reservoir sampling, so the kept samples are a uniform draw from
a stream the trainer saw exactly once. Stored rows carry the model's logits
from the moment of storage; replay later regresses onto those stale logits,
which is what lets the buffer carry more than bare labels. Tasks arrive in
order, so each new row goes at the end of the memory's per-field arrays, and
a row of an earlier task is refused. A replay draw is a set of row arrays
gathered from those arrays; a round takes two of them, one per side.
"""

import numpy as np

from metacl.errors import ContractError
from metacl.memory import EpisodicMemory, make_entry


def uniform_over_the_stream():
    print("== reservoir keeps a uniform sample of a once-seen stream ==")
    stream_len, budget, trials = 500, 25, 400
    rng = np.random.default_rng(0)
    survivals = np.zeros(stream_len)
    for _ in range(trials):
        mem = EpisodicMemory(budget, rng=rng)
        for i in range(stream_len):
            mem.observe(make_entry(np.zeros(1), i, 1))
        for e in mem.entries():
            survivals[e.y] += 1
    rates = survivals / trials
    fifths = rates.reshape(5, -1).mean(axis=1)
    print(f"  expected keep rate {budget / stream_len:.3f} everywhere")
    print("  measured by stream fifth:",
          " ".join(f"{r:.3f}" for r in fifths))


def budgets_are_per_task():
    print("== each task owns its own slots ==")
    mem = EpisodicMemory(10, rng=np.random.default_rng(1))
    for t in (1, 2, 3):
        for i in range(100):
            mem.observe(make_entry(np.zeros(1), i, t))
    per_task = {t: sum(1 for e in mem.entries() if e.t == t) for t in (1, 2, 3)}
    print(f"  stored per task: {per_task}  total {len(mem)}")
    try:
        mem.observe(make_entry(np.zeros(1), 0, 1))
    except ContractError as e:
        print(f"  task 1 again after task 3 is refused: {e}")


def snapshots_are_frozen():
    print("== stored logits cannot drift after insertion ==")
    entry = make_entry(np.ones(3), 0, 1, h=np.array([0.5, -0.5]))
    try:
        entry.h[0] = 99.0
    except ValueError as e:
        print(f"  writing to a stored snapshot raises: {e}")


def replay_draws_and_splits():
    print("== one round draws two independent replay batches ==")
    mem = EpisodicMemory(50, rng=np.random.default_rng(2))
    for i in range(200):
        mem.observe(make_entry(np.full(4, float(i)), i % 2, 1))

    rng = np.random.default_rng(3)
    train_draw, val_draw = mem.partition(rng, replay_batch_size=16)
    a = set(train_draw.x[:, 0].astype(int).tolist())
    b = set(val_draw.x[:, 0].astype(int).tolist())
    print(f"  train-side draw {len(train_draw)} rows, "
          f"val-side {len(val_draw)}, overlap {len(a & b)}")
    print("  both sides share the current batch; only the draws differ")


if __name__ == "__main__":
    uniform_over_the_stream()
    budgets_are_per_task()
    snapshots_are_frozen()
    replay_draws_and_splits()
