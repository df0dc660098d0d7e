"""metacl benchmark: seconds per seed-run and milliseconds per round.

Run from the repository root:

    python3 bench/run_bench.py --workload desk5-full --seed 0 --seconds 15 --trace 0
    python3 bench/run_bench.py            # every workload, each in a fresh process

Each workload is a closed loop in one process and one thread: a round (one
minibatch) starts when the previous one has ended. A pass runs the
workload's seeds through ``metacl.experiments.execute_run`` into a scratch
directory under ``.bench_tmp/``. With ``--trace 0`` the run starts passes
until ``--seconds`` have gone by and prints the end-to-end metrics. With ``--trace 1`` it makes one untraced
and one traced pass, requires their records to be byte-identical, and prints
the per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Everything is measured from outside ``src/``: wrappers are patched onto
metacl's public functions where their callers look them up, and removed
after the pass.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import zipfile
from dataclasses import dataclass
from pathlib import Path

from harness import (
    Tracer,
    check_invariants,
    compare_record,
    percentile,
    self_times,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11
REFERENCE_SEED = 0  # the workload seed whose records are checked in

# RunConfig fields per workload (BENCHMARK.json says why each was chosen).
# Workload seed s trains seeds s*n .. s*n+n-1 on the stream of data_seed s,
# so seed 0 of desk5-full is exactly RunConfig().
WORKLOADS = {
    "desk5-full": {"seeds": 5, "config": {}},
    # four short seed-runs rather than one long one: round cost grows with the
    # tasks seen, so the median round comes from the middle tasks of each
    # seed-run, and four of them average out the host's speed swings
    "long20-full": {"seeds": 4,
                    "config": {"n_tasks": 20, "train_per_class": 20}},
    # checkpoint save + load of model, memory and matrix after every task
    "resume20-er": {"seeds": 1, "resume": True,
                    "config": {"method": "er", "n_tasks": 20,
                               "memory_budget": 200}},
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "seed_run_s": "s",
    "samples_per_s": "1/s",
    "round_ms.p50": "ms",
    "round_ms.p95": "ms",
    "peak_rss_mb": "MB",
}

# self time in ms, summed over the traced pass
SPAN_METRICS = (
    "trainer.inner_step", "trainer.outer_step", "trainer.adversarial_step",
    "trainer.evaluate",
    "losses.ce_loss", "losses.derpp_loss", "losses.adversarial_generator_loss",
    "losses.discriminator_loss",
    "networks.snapshot",
    "autodiff.backward", "autodiff.sgd_step",
    "memory.partition", "memory.sample", "memory.observe",
    "checkpoint.save", "checkpoint.load",
    "experiments.write_record", "datasets.build_stream",
)
PER_LAYER = {
    **{f"{name}.ms": "ms" for name in SPAN_METRICS},
    "trainer.rounds": "count",
    "networks.trunk_passes_per_round": "count",
    "autodiff.tape_nodes_per_round": "count",
    "memory.observe.stored_ratio": "ratio",
    "memory.rows": "count",
    "checkpoint.bytes": "B",
    "checkpoint.members": "count",
    "trace.overhead_s": "s",
}

COUNTS = ("networks.trunk_passes", "autodiff.tape_nodes",
          "memory.observe.calls", "memory.observe.stored",
          "checkpoint.bytes", "checkpoint.members")

# Time a fresh process takes to import metacl (numpy with it) and build the
# workload's stream: the set-up a user pays before the first round.
SETUP_PROBE = """
import json, sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from metacl.config import RunConfig
from metacl.experiments import build_stream
build_stream(RunConfig(**json.loads(sys.argv[2])))
print(time.perf_counter() - started)
"""


def workload_config(name, seed):
    from metacl.config import RunConfig
    spec = WORKLOADS[name]
    n = spec["seeds"]
    return RunConfig(seeds=tuple(range(seed * n, seed * n + n)),
                     data_seed=seed, **spec["config"])


def probe_setup(name, seed):
    fields = dict(WORKLOADS[name]["config"], data_seed=seed)
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(fields)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"set-up probe exited with {out.returncode}")
    return float(out.stdout.split()[-1])


# -- instrumentation ------------------------------------------------------------------


def same_state(trainer, loaded):
    """Bit-exact: params, every memory entry, reservoir RNG state and matrix."""
    def same(a, b):
        if a is None or b is None:
            return a is b
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())

    params, params_back = trainer.model.all_params(), loaded.model.all_params()
    memory, memory_back = trainer.memory, loaded.memory
    entries, entries_back = memory.entries(), memory_back.entries()
    return (len(params) == len(params_back)
            and all(same(p.data, q.data) for p, q in zip(params, params_back))
            and list(trainer.model.seen_tasks) == list(loaded.model.seen_tasks)
            and memory.budget_per_task == memory_back.budget_per_task
            and memory.seen_counts == memory_back.seen_counts
            and memory.rng.bit_generator.state == memory_back.rng.bit_generator.state
            and len(entries) == len(entries_back)
            and all(e.y == f.y and e.t == f.t and same(e.x, f.x)
                    and same(e.h, f.h) and same(e.h_disc, f.h_disc)
                    for e, f in zip(entries, entries_back))
            and trainer.state.matrix.to_rows() == loaded.matrix.to_rows())


class Instruments:
    """Wrappers for one pass, patched where metacl's callers look names up.

    Always: a round timer around ``metacl.trainer.batches`` and a seed-run
    timer around ``metacl.experiments.run_single``; for a resume workload,
    a checkpoint round trip after every task. With a tracer: spans around
    each layer's public calls, and the exact counters.
    """

    def __init__(self, workdir, tracer=None, resume=False):
        self.workdir = workdir
        self.tracer = tracer
        self.round_s = []
        self.seed_run_s = []
        self.round_trips = []  # one bool per checkpoint round trip: bit-exact
        self.memory_rows = []  # stored rows at the end of each seed-run
        self.counts = dict.fromkeys(COUNTS, 0)
        self.verify_s = 0.0  # benchmark-side checks inside the timed pass
        self._last_memory = None
        self._patched = []
        self._install(resume)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _traced(self, span, fn):
        return fn if self.tracer is None else self.tracer.wrap(span, fn)

    def _patch(self, owner, name, make):
        original = getattr(owner, name)
        self._patched.append((owner, name, original))
        setattr(owner, name, make(original))

    def _install(self, resume):
        from metacl import experiments, losses, memory, networks, trainer

        self._patch(trainer, "batches", self._timed_batches)
        self._patch(experiments, "run_single", self._timed_seed_run)
        if resume:
            self._patch(trainer.ReplayTrainer, "train_task", self._resume_before)
            self._patch(experiments, "run_stream", self._resume_after)
        if self.tracer is None:
            return
        spans = (
            (trainer.Trainer, "inner_step", "trainer.inner_step"),
            (trainer.Trainer, "outer_step", "trainer.outer_step"),
            (trainer.Trainer, "adversarial_step", "trainer.adversarial_step"),
            (trainer, "evaluate", "trainer.evaluate"),
            # total_loss reaches the loss terms through metacl.losses' globals
            (trainer, "ce_loss", "losses.ce_loss"),
            (losses, "ce_loss", "losses.ce_loss"),
            (losses, "derpp_loss", "losses.derpp_loss"),
            (losses, "adversarial_generator_loss",
             "losses.adversarial_generator_loss"),
            (trainer, "discriminator_loss", "losses.discriminator_loss"),
            (trainer, "sgd_step", "autodiff.sgd_step"),
            (networks.ContinualModel, "snapshot_logits", "networks.snapshot"),
            (networks.ContinualModel, "snapshot_disc_logits", "networks.snapshot"),
            (memory.EpisodicMemory, "partition", "memory.partition"),
            (memory.EpisodicMemory, "sample", "memory.sample"),
            # building the frozen entry is part of offering it to memory
            (trainer, "make_entry", "memory.observe"),
            (experiments, "write_record", "experiments.write_record"),
        )
        for owner, name, span in spans:
            self._patch(owner, name,
                        lambda fn, span=span: self.tracer.wrap(span, fn))
        self._patch(memory.EpisodicMemory, "observe", self._counted_observe)
        self._patch(trainer, "backward", self._counted_backward)
        self._patch(networks.FeatureExtractor, "forward", self._counted_forward)

    def _timed_batches(self, batches):
        round_s = self.round_s

        def timed(*args, **kwargs):
            for batch in batches(*args, **kwargs):
                started = time.perf_counter()
                yield batch
                round_s.append(time.perf_counter() - started)

        return timed

    def _timed_seed_run(self, run_single):
        def timed(*args, **kwargs):
            started, verify_before = time.perf_counter(), self.verify_s
            record = run_single(*args, **kwargs)
            self.seed_run_s.append(time.perf_counter() - started
                                   - (self.verify_s - verify_before))
            if self._last_memory is not None:
                self.memory_rows.append(len(self._last_memory))
            return record

        return timed

    def _counted_observe(self, observe):
        counts = self.counts

        def counted(memory, entry, *args, **kwargs):
            stored = observe(memory, entry, *args, **kwargs)
            counts["memory.observe.calls"] += 1
            counts["memory.observe.stored"] += bool(stored)
            self._last_memory = memory
            return stored

        return self.tracer.wrap("memory.observe", counted)

    def _counted_backward(self, backward):
        # the walk has a span of its own, so it stays out of the backward span
        walk = self.tracer.wrap("bench.tape_walk", self._count_tape)
        traced = self.tracer.wrap("autodiff.backward", backward)

        def counted(loss, *args, **kwargs):
            walk(loss)
            return traced(loss, *args, **kwargs)

        return counted

    def _count_tape(self, loss):
        seen = set()
        stack = [loss]
        while stack:
            node = stack.pop().node
            if node is not None and id(node) not in seen:
                seen.add(id(node))
                stack.extend(node.inputs)
        self.counts["autodiff.tape_nodes"] += len(seen)

    def _counted_forward(self, forward):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["networks.trunk_passes"] += 1
            return forward(*args, **kwargs)

        return counted

    def _resume_before(self, train_task):
        def resumed(trainer, task):
            if trainer.state.matrix.n_rows:  # a task has been learned
                self._round_trip(trainer)
            return train_task(trainer, task)

        return resumed

    def _resume_after(self, run_stream):
        def resumed(trainer, stream):
            records = run_stream(trainer, stream)
            self._round_trip(trainer)
            return records

        return resumed

    def _round_trip(self, trainer):
        """Save, load, check bit-exactness, and continue from what was loaded."""
        from metacl.checkpoint import load_checkpoint, save_checkpoint

        path = self.workdir / "resume.npz"
        try:
            self._traced("checkpoint.save", save_checkpoint)(
                path, trainer.model, trainer.memory, trainer.state.matrix)
            loaded = self._traced("checkpoint.load", load_checkpoint)(path)
        except Exception:
            traceback.print_exc()
            self.round_trips.append(False)
            return
        started = time.perf_counter()
        exact = same_state(trainer, loaded)
        if not exact:
            print(f"checkpoint round trip {len(self.round_trips) + 1} "
                  "is not bit-exact", file=sys.stderr)
        self.round_trips.append(exact)
        if self.tracer is not None:
            self.counts["checkpoint.bytes"] += path.stat().st_size
            with zipfile.ZipFile(path) as archive:
                self.counts["checkpoint.members"] += len(archive.namelist())
        self.verify_s += time.perf_counter() - started
        trainer.model = trainer.state.model = loaded.model
        trainer.state.memory = loaded.memory
        trainer.state.matrix = loaded.matrix
        self._last_memory = loaded.memory


# -- passes ---------------------------------------------------------------------------


@dataclass
class Pass:
    """What one pass over the workload's seeds measured and produced."""

    inst: Instruments
    wall_s: float  # execute_run, less the benchmark's own checks
    elapsed_s: float  # everything the pass cost
    records: dict  # seed -> record.json bytes, None if missing
    error: bool  # execute_run raised


def run_pass(cfg, stream, workdir, resume, tracer=None):
    from metacl import experiments

    started = time.perf_counter()
    out_dir = Path(tempfile.mkdtemp(dir=workdir))
    error = False
    with Instruments(workdir, tracer, resume) as inst:
        begun = time.perf_counter()
        try:
            experiments.execute_run(cfg, out_dir=str(out_dir), stream=stream)
        except Exception:
            traceback.print_exc()
            error = True
        wall = time.perf_counter() - begun - inst.verify_s
    records = {}
    for seed in cfg.seeds:
        found = list(out_dir.glob(f"*/seed-{seed}/record.json"))
        records[seed] = found[0].read_bytes() if len(found) == 1 else None
    shutil.rmtree(out_dir)
    return Pass(inst, wall, time.perf_counter() - started, records, error)


def check_pass(p, cfg, stream, reference):
    """(attempted, failed) ops: one per seed-run and per checkpoint round trip."""
    attempted = len(p.records) + len(p.inst.round_trips)
    failed = p.inst.round_trips.count(False)
    if p.error:  # execute_run raised: none of its seed-runs counts
        return attempted, failed + len(p.records)
    sizes = {task.task_id: len(task.train.x) for task in stream.tasks}
    for seed, raw in p.records.items():
        if raw is None:
            print(f"seed {seed}: no record.json", file=sys.stderr)
            failed += 1
            continue
        record = json.loads(raw)
        problems = check_invariants(record, sizes, cfg.batch_size, cfg.method,
                                    cfg.n_in, cfg.n_out, cfg.n_ad)
        if reference is not None:
            problems += [f"{name} differs from the reference" for name in
                         compare_record(record, reference[str(seed)])]
        if problems:
            print(f"seed {seed}: " + "; ".join(problems), file=sys.stderr)
            failed += 1
    return attempted, failed


def expected_rounds(cfg, stream):
    per_seed = sum(-(-len(task.train.x) // cfg.batch_size) for task in stream.tasks)
    return per_seed * len(cfg.seeds)


def load_reference(name):
    with open(BENCH / "reference" / f"{name}.json", encoding="utf-8") as f:
        return json.load(f)


# -- metrics --------------------------------------------------------------------------


def end_to_end_metrics(passes, setup_s):
    rounds = [r for p in passes for r in p.inst.round_s]
    wall = sum(p.wall_s for p in passes)
    samples = sum(sum(json.loads(raw)["samples_seen"].values())
                  for p in passes for raw in p.records.values() if raw)
    return {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median([p.wall_s for p in passes]),
        "seed_run_s": statistics.median(
            [s for p in passes for s in p.inst.seed_run_s]),
        "samples_per_s": samples / wall,
        "round_ms.p50": percentile(rounds, 50) * 1e3,
        "round_ms.p95": percentile(rounds, 95) * 1e3,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(untraced, traced, build_stream_s):
    inst = traced.inst
    self_s = self_times(inst.tracer.spans)
    self_s["datasets.build_stream"] = build_stream_s
    rounds = len(inst.round_s)
    counts = inst.counts
    metrics = {f"{name}.ms": self_s.get(name, 0.0) * 1e3 for name in SPAN_METRICS}
    calls = counts["memory.observe.calls"]
    metrics.update({
        "trainer.rounds": rounds,
        "networks.trunk_passes_per_round": counts["networks.trunk_passes"] / rounds,
        "autodiff.tape_nodes_per_round": counts["autodiff.tape_nodes"] / rounds,
        "memory.observe.stored_ratio":
            counts["memory.observe.stored"] / calls if calls else 0.0,
        "memory.rows": (sum(inst.memory_rows) / len(inst.memory_rows)
                        if inst.memory_rows else 0.0),
        "checkpoint.bytes": counts["checkpoint.bytes"],
        "checkpoint.members": counts["checkpoint.members"],
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    })
    return metrics


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            **{var: os.environ[var] for var in THREAD_VARS}}


def emit(correct, attempted, failed, metrics, units, env):
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)


# -- entry points ---------------------------------------------------------------------


def run_workload(name, seed, seconds, trace):
    if not (SRC / "metacl").is_dir():
        raise SystemExit(f"no metacl sources under {SRC}")
    resume = WORKLOADS[name].get("resume", False)
    sys.path.insert(0, str(SRC))
    from metacl.experiments import build_stream

    cfg = workload_config(name, seed)
    stream = build_stream(cfg)
    reference = load_reference(name) if seed == REFERENCE_SEED else None
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if trace:
            started = time.perf_counter()
            traced_stream = build_stream(cfg)
            build_stream_s = time.perf_counter() - started
            passes = [run_pass(cfg, stream, workdir, resume),
                      run_pass(cfg, traced_stream, workdir, resume, Tracer())]
        else:
            passes = []
            while not passes or sum(p.elapsed_s for p in passes) < seconds:
                passes.append(run_pass(cfg, stream, workdir, resume))
    finally:
        shutil.rmtree(workdir)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = failed = 0
    for p in passes:
        a, f = check_pass(p, cfg, stream, reference)
        attempted, failed = attempted + a, failed + f
    want_rounds = expected_rounds(cfg, stream)
    for p in passes:
        if not p.error and len(p.inst.round_s) != want_rounds:
            raise RuntimeError(f"the round timer saw {len(p.inst.round_s)} "
                               f"rounds, expected {want_rounds}")
    if trace:
        untraced, traced = passes
        mismatched = [s for s in cfg.seeds
                      if traced.records[s] != untraced.records[s]]
        if mismatched:
            print(f"traced records differ for seeds {mismatched}", file=sys.stderr)
            failed += len(mismatched)
        metrics = per_layer_metrics(untraced, traced, build_stream_s)
        units = PER_LAYER
    else:
        setup_s = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
        metrics = end_to_end_metrics(passes, setup_s)
        units = END_TO_END
    emit(failed == 0, attempted, failed, metrics, units, environment())


def run_all(seed, seconds, trace):
    """Every workload in a fresh process; one combined result line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        print(f"# workload {name}", flush=True)
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {out.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # before numpy loads, here and in every child process
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # a terminated run still removes its scratch directory and children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
