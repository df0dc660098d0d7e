"""Pure helpers of the benchmark: spans, percentiles and record checks.

Nothing here imports numpy or metacl, so the tests of these helpers run
without the library and the entry point can set the BLAS thread variables
before numpy loads.
"""

import math
import time

MIN_BEYOND = 10  # samples a reported percentile must leave above it


# -- spans ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans: ``[name, start, end, parent index]``, parent -1 at the top.

    Single-threaded: spans nest strictly, so the open ones form a stack.
    """

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          open_[-1] if open_ else -1])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = time.perf_counter()

        return traced


def self_times(spans):
    """Total self time per span name, in seconds.

    A span's self time is its duration minus the time its direct children
    cover; children of one span never overlap, because spans nest.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = {}
    for (name, start, end, _parent), child in zip(spans, covered):
        totals[name] = totals.get(name, 0.0) + (end - start - child)
    return totals


# -- statistics ---------------------------------------------------------------------


def beyond(n, pct):
    """Samples strictly above the nearest-rank ``pct``-th percentile of ``n``."""
    return n - math.ceil(pct * n / 100)


def percentile(values, pct):
    """Nearest-rank percentile; refuses one with fewer than MIN_BEYOND above it."""
    n = len(values)
    if beyond(n, pct) < MIN_BEYOND:
        raise ValueError(
            f"p{pct} of {n} samples leaves {beyond(n, pct)} beyond it, "
            f"fewer than {MIN_BEYOND}")
    return sorted(values)[math.ceil(pct * n / 100) - 1]


# -- result records -----------------------------------------------------------------

REFERENCE_FIELDS = ("acc_matrix", "final_acc", "final_fm", "samples_seen",
                    "counters")


def reference_fields(record):
    """The part of a record.json a checked-in reference pins down."""
    return {name: record[name] for name in REFERENCE_FIELDS}


def compare_record(record, reference):
    """Names of the reference fields on which ``record`` differs (exactly)."""
    return [name for name in REFERENCE_FIELDS
            if record.get(name) != reference[name]]


def expected_counters(method, rounds, n_in, n_out, n_ad):
    if method == "scale":
        return {"inner_updates": rounds * n_out * n_in,
                "outer_updates": rounds * n_out,
                "adversarial_updates": rounds * n_ad}
    return {"inner_updates": rounds, "outer_updates": 0,
            "adversarial_updates": 0}


def check_invariants(record, train_sizes, batch_size, method, n_in, n_out, n_ad):
    """Problems with a record of any seed; ``train_sizes`` maps task id to size.

    Every training sample is consumed once, the update counters follow from
    the round count, and the accuracy matrix is lower-triangular in [0, 1].
    """
    problems = []
    want_seen = {str(t): n for t, n in train_sizes.items()}
    if record.get("samples_seen") != want_seen:
        problems.append(f"samples_seen {record.get('samples_seen')} != {want_seen}")
    rounds = sum(math.ceil(n / batch_size) for n in train_sizes.values())
    want = expected_counters(method, rounds, n_in, n_out, n_ad)
    if record.get("counters") != want:
        problems.append(f"counters {record.get('counters')} != {want}")
    rows = record.get("acc_matrix") or []
    if len(rows) != len(train_sizes):
        problems.append(f"{len(rows)} matrix rows for {len(train_sizes)} tasks")
    for k, row in enumerate(rows, start=1):
        if len(row) != k:
            problems.append(f"matrix row {k} has {len(row)} entries")
        if any(not 0.0 <= a <= 1.0 for a in row):
            problems.append(f"matrix row {k} leaves [0, 1]")
    return problems
