"""Episodic memory tests: reservoir statistics, isolation, immutability, and
agreement with a list-based reference reservoir."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from metacl.errors import ContractError, MemoryConsistencyError
from metacl.memory import Draw, EpisodicMemory, make_entry


def entry_for(i, t=1, dim=3):
    return make_entry(np.full(dim, float(i)), y=i % 2, t=t,
                      h=np.array([float(i), -float(i)]))


def stored(mem, t=None):
    """The stored entries, optionally of task ``t`` only."""
    return [e for e in mem.entries() if t is None or e.t == t]


def row_values(e):
    """An entry's contents as plain values, for comparisons by value."""
    def snap(a):
        return None if a is None else a.tolist()

    return (e.x.tolist(), e.y, e.t, snap(e.h), snap(e.h_disc))


# -- reservoir behavior --------------------------------------------------------


def test_first_budget_entries_stored_in_order():
    mem = EpisodicMemory(budget_per_task=50, rng=np.random.default_rng(0))
    for i in range(50):
        assert mem.observe(entry_for(i))
    assert len(mem) == 50
    assert [e.x[0] for e in stored(mem, 1)] == [float(i) for i in range(50)]


def test_budget_never_exceeded_simple():
    mem = EpisodicMemory(budget_per_task=5, rng=np.random.default_rng(0))
    for i in range(200):
        mem.observe(entry_for(i))
    assert len(stored(mem, 1)) == 5


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                max_size=120).map(sorted),
       st.integers(min_value=0, max_value=7),
       st.integers(min_value=0, max_value=2**31))
def test_budget_property_random_streams(task_stream, budget, seed):
    mem = EpisodicMemory(budget_per_task=budget, rng=np.random.default_rng(seed))
    for i, t in enumerate(task_stream):
        mem.observe(entry_for(i, t=t))
    for t in set(task_stream):
        slot = stored(mem, t)
        assert len(slot) <= budget
        assert len(slot) == min(budget, mem.seen_counts[t])


def test_budget_one_selection_is_uniform():
    # every position of a length-10 stream should survive equally often
    n, trials = 10, 20000
    rng = np.random.default_rng(42)
    entries = [entry_for(i) for i in range(n)]
    counts = np.zeros(n)
    for _ in range(trials):
        mem = EpisodicMemory(budget_per_task=1, rng=rng)
        for e in entries:
            mem.observe(e)
        counts[int(mem.entries()[0].x[0])] += 1
    chi2 = ((counts - trials / n) ** 2 / (trials / n)).sum()
    p = stats.chi2.sf(chi2, df=n - 1)
    assert p > 0.01


def test_task_isolation():
    mem = EpisodicMemory(budget_per_task=3, rng=np.random.default_rng(0))
    for i in range(3):
        mem.observe(entry_for(i, t=1))
    frozen = [row_values(e) for e in stored(mem, 1)]
    for i in range(500):
        mem.observe(entry_for(i, t=2))
    assert [row_values(e) for e in stored(mem, 1)] == frozen
    assert len(stored(mem, 2)) == 3


def test_budget_zero_stores_nothing():
    mem = EpisodicMemory(budget_per_task=0, rng=np.random.default_rng(0))
    assert not mem.observe(entry_for(0))
    assert len(mem) == 0


def test_determinism_same_seed_same_contents():
    def run(seed):
        mem = EpisodicMemory(budget_per_task=3, rng=np.random.default_rng(seed))
        for i in range(100):
            mem.observe(entry_for(i))
        return [e.x[0] for e in mem.entries()]

    assert run(7) == run(7)
    assert run(7) != run(8)


# -- immutability ----------------------------------------------------------------


def test_entries_are_write_locked():
    e = entry_for(3)
    with pytest.raises(ValueError):
        e.x[0] = 99.0
    with pytest.raises(ValueError):
        e.h[0] = 99.0


def test_make_entry_copies_sources():
    x = np.ones(3)
    h = np.ones(2)
    e = make_entry(x, y=0, t=1, h=h)
    x[0] = 42.0
    h[0] = 42.0
    assert e.x[0] == 1.0 and e.h[0] == 1.0


def test_snapshot_shape_validation():
    with pytest.raises(MemoryConsistencyError):
        make_entry(np.ones(3), y=0, t=1, h=np.ones((2, 2)))


@pytest.mark.parametrize("y, t, at_fault", [
    (0.7, 1, "label"), (1.5, 1, "label"), (True, 1, "label"),
    (0, 1.9, "task id"), (0, True, "task id"), (0, "1", "task id")],
    ids=["label-0.7", "label-1.5", "label-a-bool", "task-1.9", "task-a-bool",
         "task-a-string"])
def test_make_entry_rejects_a_label_or_task_id_that_is_no_integer(y, t,
                                                                  at_fault):
    # a cast would store label 0.7 as 0 and task 1.9 as task 1
    with pytest.raises(ContractError, match=f"^{at_fault} "):
        make_entry(np.zeros(3), y=y, t=t)


def test_make_entry_keeps_numpy_integers_as_ints():
    e = make_entry(np.zeros(3), y=np.int64(1), t=np.int32(2))
    assert (e.y, e.t) == (1, 2) and type(e.y) is int and type(e.t) is int


@pytest.mark.parametrize("budget", [5.0, True, "5"])
def test_budget_that_is_no_integer_is_rejected(budget):
    with pytest.raises(ContractError, match="^budget_per_task "):
        EpisodicMemory(budget, rng=np.random.default_rng(0))


# -- sampling ----------------------------------------------------------------------


def test_sample_empty_memory_returns_empty_draw():
    mem = EpisodicMemory(budget_per_task=3, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    assert len(mem.sample(64, rng)) == 0
    assert rng.bit_generator.state == before  # an empty draw draws nothing


def test_sample_singleton():
    mem = EpisodicMemory(budget_per_task=3, rng=np.random.default_rng(0))
    mem.observe(entry_for(7))
    draw = mem.sample(64, np.random.default_rng(1))
    assert len(draw) == 64
    (only,) = mem.entries()
    assert np.all(draw.x == only.x) and np.all(draw.y == only.y)
    assert np.all(draw.t == only.t) and np.all(draw.h_width == 2)
    assert np.all(draw.h[:, :2] == only.h)


def test_sample_task_frequencies_match_slot_proportions():
    mem = EpisodicMemory(budget_per_task=20, rng=np.random.default_rng(0))
    for i in range(20):
        mem.observe(entry_for(i, t=1))
    for i in range(10):
        mem.observe(entry_for(i, t=2))
    n_draws = 10_000
    drawn = mem.sample(n_draws, np.random.default_rng(5))
    count_t1 = int(np.sum(drawn.t == 1))
    p = 20 / 30
    sigma = np.sqrt(n_draws * p * (1 - p))
    assert abs(count_t1 - n_draws * p) < 3 * sigma


# -- partition ----------------------------------------------------------------------


def test_partition_empty_memory_degenerates_to_current():
    mem = EpisodicMemory(budget_per_task=3, rng=np.random.default_rng(0))
    train, val = mem.partition(np.random.default_rng(1), 64)
    assert len(train) == 0 and len(val) == 0


def test_partition_draws_are_independent():
    mem = EpisodicMemory(budget_per_task=100, rng=np.random.default_rng(0))
    for i in range(100):
        mem.observe(entry_for(i))
    train, val = mem.partition(np.random.default_rng(1),
                               replay_batch_size=64)
    assert len(train) == 64 and len(val) == 64
    # identical 64-long index sequences from disjoint substreams are
    # astronomically unlikely over 100 slots
    assert not np.array_equal(train.x, val.x)


def test_partition_deterministic_given_rng_seed():
    mem = EpisodicMemory(budget_per_task=10, rng=np.random.default_rng(0))
    for i in range(30):
        mem.observe(entry_for(i))

    def draw(seed):
        train, val = mem.partition(np.random.default_rng(seed), 64)
        return (train.x[:, 0].tolist(), val.x[:, 0].tolist())

    assert draw(9) == draw(9)
    assert draw(9) != draw(10)


# -- agreement with a list-based reference ----------------------------------------


class ListReservoir:
    """Reference memory: per-task lists of entries, the rule spelled out."""

    def __init__(self, budget, rng):
        self.budget, self.rng = budget, rng
        self.slots, self.seen_counts = {}, {}

    def observe(self, entry):
        count = self.seen_counts[entry.t] = self.seen_counts.get(entry.t, 0) + 1
        slot = self.slots.setdefault(entry.t, [])
        if len(slot) < self.budget:
            slot.append(entry)
            return True
        if self.budget == 0:
            return False
        j = int(self.rng.integers(0, count))
        if j < self.budget:
            slot[j] = entry
        return j < self.budget

    def entries(self):
        return [e for t in sorted(self.slots) for e in self.slots[t]]

    def sample(self, n, rng):
        pool = self.entries()
        if not pool or n <= 0:
            return []
        return [pool[i] for i in rng.integers(0, len(pool), size=n)]


def stream_of(order, seed):
    """Entries of tasks in ``order``, with snapshots of several widths and
    some rows without snapshots."""
    rng = np.random.default_rng(seed)
    out = []
    for i, t in enumerate(order):
        h = None if i % 7 == 3 else rng.normal(size=2)
        h_disc = None if i % 5 == 1 else rng.normal(size=2 + i % 3)
        out.append(make_entry(rng.normal(size=4), i % 3, t, h=h, h_disc=h_disc))
    return out


# three tasks arriving in order, each seen more often than any drawn budget
ORDERED_TASKS = [2] * 30 + [5] * 25 + [7] * 35


def assert_matches(mem, ref, i):
    assert [row_values(a) for a in mem.entries()] == \
        [row_values(b) for b in ref.entries()]
    assert len(mem) == len(ref.entries())
    assert mem.seen_counts == ref.seen_counts
    assert mem.rng.bit_generator.state == ref.rng.bit_generator.state
    draw = mem.sample(9, np.random.default_rng(i))
    expected = ref.sample(9, np.random.default_rng(i))
    assert len(draw) == len(expected)
    for k, b in enumerate(expected):
        hw, hdw = draw.h_width[k], draw.h_disc_width[k]
        got = (draw.x[k].tolist(), int(draw.y[k]), int(draw.t[k]),
               draw.h[k, :hw].tolist() if hw else None,
               draw.h_disc[k, :hdw].tolist() if hdw else None)
        assert got == row_values(b)
    if len(mem):
        train, val = mem.partition(np.random.default_rng(i),
                                   replay_batch_size=5)
        rng = np.random.default_rng(i)
        for side, want in ((train, ref.sample(5, rng)), (val, ref.sample(5, rng))):
            assert side.x.tolist() == [b.x.tolist() for b in want]
            assert side.t.tolist() == [b.t for b in want]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                max_size=60).map(sorted),
       st.integers(min_value=0, max_value=8))
@example(ORDERED_TASKS, 0)
@example(ORDERED_TASKS, 6)
@example(ORDERED_TASKS, 1000)
def test_memory_matches_list_reference(order, budget):
    # tasks in order, as a task-incremental stream presents them
    mem = EpisodicMemory(budget, rng=np.random.default_rng(11))
    ref = ListReservoir(budget, rng=np.random.default_rng(11))
    for i, e in enumerate(stream_of(order, budget)):
        assert mem.observe(e) == ref.observe(e)
        if i % 20 == 19 or i == len(order) - 1:
            assert_matches(mem, ref, i)


def test_rows_and_entries_stay_copies():
    # the later observations rewrite stored rows in place, so copies that
    # shared storage with the memory would change with them
    mem = EpisodicMemory(3, rng=np.random.default_rng(0))
    for t in (5, 5, 5, 7, 7):
        mem.observe(entry_for(t, t=t))
    rows, entries = mem.rows(), mem.entries()
    want_rows = {name: getattr(rows, name).tolist() for name in Draw.FIELDS}
    want_entries = [row_values(e) for e in entries]
    mem.observe(entry_for(8, t=7))  # a new row
    replaced = False
    for i in range(10, 20):  # a reservoir replacement
        replaced = mem.observe(entry_for(i, t=7)) or replaced
    assert replaced
    mem.observe(entry_for(3, t=9))  # a new row of a later task
    assert [e.t for e in mem.entries()] == [5, 5, 5, 7, 7, 7, 9]
    assert {name: getattr(rows, name).tolist()
            for name in Draw.FIELDS} == want_rows
    assert [row_values(e) for e in entries] == want_entries


@pytest.mark.parametrize("earlier", [1, 2])
def test_observe_rejects_an_earlier_task_changing_nothing(earlier):
    # task 1 is full, so a draw would advance the rng; task 2 has room, so a
    # new row of it would belong before task 3's rows
    mem = EpisodicMemory(2, rng=np.random.default_rng(0))
    for i, t in enumerate([1, 1, 1, 2, 3, 3]):
        mem.observe(entry_for(i, t=t))
    rows = {name: getattr(mem.rows(), name).tolist() for name in Draw.FIELDS}
    counts, state = dict(mem.seen_counts), mem.rng.bit_generator.state
    with pytest.raises(ContractError, match=f"task {earlier} .*task 3"):
        mem.observe(entry_for(9, t=earlier))
    assert {name: getattr(mem.rows(), name).tolist()
            for name in Draw.FIELDS} == rows
    assert mem.seen_counts == counts
    assert mem.rng.bit_generator.state == state
    assert mem.observe(entry_for(9, t=4))  # a later task still comes in


def test_entries_are_write_locked_views():
    mem = EpisodicMemory(2, rng=np.random.default_rng(0))
    mem.observe(entry_for(1))
    mem.observe(make_entry(np.ones(3), 0, 1, h=np.ones(2), h_disc=np.ones(3)))
    first, second = mem.entries()
    for a in (first.x, first.h, second.h_disc):
        with pytest.raises(ValueError):
            a[0] = 99.0
    assert first.h_disc is None and second.h_disc.shape == (3,)
    # storage stays writable for the reservoir itself
    mem.observe(entry_for(5))
    assert len(mem) == 2


def test_observe_rejects_a_different_input_shape():
    mem = EpisodicMemory(2, rng=np.random.default_rng(0))
    mem.observe(entry_for(0, dim=3))
    with pytest.raises(MemoryConsistencyError, match="shape"):
        mem.observe(entry_for(1, dim=4))
    assert mem.seen_counts == {1: 1}


@pytest.mark.parametrize("t, y", [(0, 0), (-1, 0), (1, -1)],
                         ids=["fake-class-task", "negative-task",
                              "negative-label"])
@pytest.mark.parametrize("held", [0, 3])
def test_observe_rejects_a_row_no_loss_can_read_changing_nothing(t, y, held):
    # task 0 is the discriminator's fake class, and neither the grouping by
    # task nor the CE targets take a negative value: such a row would fail
    # a later step, far from the write
    mem = EpisodicMemory(2, rng=np.random.default_rng(0))
    for i in range(held):
        mem.observe(entry_for(i))
    rows = {name: getattr(mem.rows(), name).tolist() for name in Draw.FIELDS}
    counts, state = dict(mem.seen_counts), mem.rng.bit_generator.state
    with pytest.raises(ContractError, match=f"task {t}, label {y}"):
        mem.observe(make_entry(np.zeros(3), y=y, t=t))
    assert {name: getattr(mem.rows(), name).tolist()
            for name in Draw.FIELDS} == rows
    assert mem.seen_counts == counts
    assert mem.rng.bit_generator.state == state


@pytest.mark.parametrize("field, value, seen", [
    ("t", 0, {0: 3, 9: 1}), ("t", -1, {-1: 3, 9: 1}), ("y", -1, None)],
    ids=["fake-class-task", "negative-task", "negative-label"])
def test_from_rows_rejects_a_row_no_loss_can_read(field, value, seen):
    mem = EpisodicMemory(2, rng=np.random.default_rng(0))
    for i, t in enumerate([4, 4, 4, 9]):
        mem.observe(entry_for(i, t=t))
    rows = mem.rows()
    getattr(rows, field)[:2] = value  # task 4's rows
    with pytest.raises(MemoryConsistencyError, match="below 1 or a negative"):
        EpisodicMemory.from_rows(2, rows, seen or mem.seen_counts,
                                 np.random.default_rng(0))


def test_from_rows_round_trips_and_checks_the_reservoir_state():
    mem = EpisodicMemory(2, rng=np.random.default_rng(0))
    for i, t in enumerate([4, 4, 4, 9]):
        mem.observe(entry_for(i, t=t))
    rows = mem.rows()
    assert rows.t.tolist() == [4, 4, 9]

    def part(keep):
        return Draw(**{name: getattr(rows, name)[keep] for name in Draw.FIELDS})

    # every seen task holds min(budget, seen) rows, no more and no fewer
    for keep, seen, message in (
            (slice(0, 2), mem.seen_counts, "task 9: 0 stored rows"),
            (slice(1, 3), mem.seen_counts, "task 4: 1 stored rows"),
            (slice(0, 3), {4: 1, 9: 1}, "task 4: 2 stored rows")):
        with pytest.raises(MemoryConsistencyError, match=message):
            EpisodicMemory.from_rows(2, part(keep), seen,
                                     np.random.default_rng(0))
    back = EpisodicMemory.from_rows(2, rows, mem.seen_counts,
                                    np.random.default_rng(0))
    mem.rng = np.random.default_rng(0)
    # a new row of the last task, a reservoir draw, then a new last task
    for i, t in enumerate([9, 9, 12, 12, 12], start=10):
        assert back.observe(entry_for(i, t=t)) == mem.observe(entry_for(i, t=t))
    assert [row_values(e) for e in back.entries()] == \
        [row_values(e) for e in mem.entries()]
