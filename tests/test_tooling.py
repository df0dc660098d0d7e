"""Smoke tests for the demos, the README's library example and the benchmark
entry point.

The demos import metacl's public API at module level, so importing each one
catches a renamed or deleted name without running the demo. The fast demos
(01 to 03, about 2 s together) also run to the end, which calls the model's
forward paths and snapshots they show, and so does the README's ``python``
block (about 1 s), so the documented library use keeps working; its config
file example must parse, and it names every export of ``metacl.__all__``
in backticks. The benchmark patches metacl's functions where
their callers look them up: installing its patches catches a refactor that
moves one of those names in milliseconds, and a short run of it catches one
that changes what they do. Two ``ast`` scans of ``src/metacl`` and of the
tests' reference chain (``tests/reference.py``, written on the package's
private helpers) keep deletions from leaving debris in either: an import
nothing in its module uses, and a private (``_name``) module-level name or
method nothing in them references. A third finds no ``global`` statement
in them, so no process-wide mode decides what is taped. A fourth finds
every ``RunConfig`` field read as an attribute in a package module other
than ``config.py``: an option that no code reads fails the suite. A fifth
finds no class in them defining ``__getattr__`` or ``__getattribute__``,
so reading an attribute runs no code, and a sixth no package module
importing another's private name, so each module's private helpers stay
its own (the reference chain is written on them by design). Last, a
fresh interpreter importing the package loads no module beyond the
standard library and numpy, and no ``metacl.checkpoint``: the benchmark
times that import as ``setup_s``. Two more hold each file format's writer
and reader to its one declaration: ``save_checkpoint`` writes exactly the
keys ``Metadata`` declares, and every ``ResultRecord`` field declares a
type that ``check_format`` can check below its top level.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from metacl.checkpoint import MemoryMetadata, Metadata, save_checkpoint
from metacl.config import RunConfig, parse_config
from metacl.errors import FormatError
from metacl.experiments import ResultRecord, check_format
from metacl.memory import EpisodicMemory, make_entry
from metacl.metrics import AccuracyMatrix
from metacl.networks import ContinualModel

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = ROOT / "src" / "metacl"
REFERENCE = ROOT / "tests" / "reference.py"


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def run_python(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("path", DEMOS[:3], ids=lambda path: path.stem)
def test_fast_demo_runs(path):
    out = run_python([str(path)])
    assert out.returncode == 0, out.stderr


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    out = run_python(["-c", block])
    assert out.returncode == 0, out.stderr
    # it prints final ACC and FM, then the accuracy matrix
    assert len(out.stdout.splitlines()) == 2


def test_readme_config_example_parses():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
    config = parse_config(block)
    assert config.seeds == (0, 1, 2, 3, 4)
    assert config.generator_mode == "negative-ce"


def test_readme_names_every_export():
    # each name in metacl.__all__ appears in backticks, bare, dotted
    # (`metacl.metrics.la`) or called (`make_synthetic(config)`)
    import metacl

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [name for name in metacl.__all__ if not re.search(
        rf"`(?:[\w.]+\.)?{re.escape(name)}(?:\([^`]*\))?`", readme)]
    assert missing == []


def test_readme_names_the_idx_files():
    # the files an IDX stream reads, as `dataset = idx` users must name them
    from metacl.datasets import IDX_NAMES

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in IDX_NAMES if f"`{name}`" not in readme] == []


# the spans each workload's method never reaches: ER trains no generator
# and no discriminator, reads no dark replay and draws no partition; only
# the resume workload saves and loads checkpoints
UNREACHED_SPANS = {
    "resume20-er": {"trainer.outer_step", "trainer.adversarial_step",
                    "losses.derpp_loss", "losses.adversarial_generator_loss",
                    "losses.discriminator_loss", "networks.snapshot",
                    "memory.partition"},
    "desk5-full": {"checkpoint.save", "checkpoint.load"},
    "long20-full": {"checkpoint.save", "checkpoint.load"},
}
# (rounds, memory rows at the end of a seed-run) of each traced pass
ROUNDS_AND_ROWS = {"desk5-full": (625, 250), "long20-full": (400, 800),
                   "resume20-er": (500, 4000)}

TAPE_NODES_PER_ROUND = {
    ("--workload", "desk5-full", "--seed", "0", "--trace", "1"): 9.584,
    ("--workload", "long20-full", "--seed", "0", "--trace", "1"): 9.88,
}


@pytest.mark.parametrize("args", [
    ["--workload", "resume20-er", "--seed", "0", "--trace", "1"],
    # the full method's traced records must equal its untraced ones and the
    # checked-in reference
    ["--workload", "desk5-full", "--seed", "0", "--trace", "1"],
    ["--workload", "desk5-full", "--seed", "0", "--trace", "0",
     "--seconds", "0"],
    # the workload with the most tasks per draw, where the loss nodes do the
    # most grouping
    ["--workload", "long20-full", "--seed", "0", "--trace", "1"],
    # every workload's untraced pass as the benchmark times it, cut to one
    ["--workload", "resume20-er", "--seed", "0", "--trace", "0",
     "--seconds", "0"],
    ["--workload", "long20-full", "--seed", "0", "--trace", "0",
     "--seconds", "0"],
], ids=["resume20-er-traced", "desk5-full-traced", "desk5-full-untraced",
        "long20-full-traced", "resume20-er-untraced", "long20-full-untraced"])
def test_benchmark_runs_without_failures(args, monkeypatch):
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run_bench.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["failed"] == 0, out.stderr
    assert result["attempted"] > 0
    # the full method's traced tape shape: one node per loss term and no
    # trunk pass outside the grouped forwards
    nodes = TAPE_NODES_PER_ROUND.get(tuple(args))
    if nodes is not None:
        metrics = result["metrics"]
        assert metrics["autodiff.tape_nodes_per_round"]["value"] == nodes
        assert metrics["networks.trunk_passes_per_round"]["value"] == 0
    traced = args[args.index("--trace") + 1] == "1"
    if traced:
        # every hook the workload's method reaches was called, so no hooked
        # name has stopped being looked up where the benchmark patches it
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        from run_bench import SPAN_METRICS

        metrics = result["metrics"]
        reached = {span for span in SPAN_METRICS
                   if metrics[f"{span}.ms"]["value"] > 0}
        assert reached == set(SPAN_METRICS) - UNREACHED_SPANS[args[1]]
        assert ((metrics["trainer.rounds"]["value"],
                 metrics["memory.rows"]["value"])
                == ROUNDS_AND_ROWS[args[1]])
    if args[1] == "resume20-er" and traced:
        # a checkpoint saved and loaded after each of the 20 tasks, nine
        # members each however many tasks the model has seen
        assert result["metrics"]["checkpoint.members"]["value"] == 9 * 20


def test_benchmark_hooks_resolve(tmp_path, monkeypatch):
    # entering the traced resume pass's instruments patches every name the
    # benchmark hooks in metacl, so a renamed or deleted one fails here, by
    # name, without a training run; leaving them puts every original back
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import harness
    import run_bench
    from metacl import memory

    with run_bench.Instruments(tmp_path, harness.Tracer(),
                               resume=True) as instruments:
        originals = {}
        for owner, name, original in instruments._patched:
            originals.setdefault((owner, name), original)
            assert getattr(owner, name) is not original, name
    assert (memory.EpisodicMemory, "partition") in originals
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original, name


def package_trees():
    """{module file name: parsed source} for every module of the package
    and for the reference chain."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in [*sorted(PACKAGE.glob("*.py")), REFERENCE]}


def exported(tree):
    """The names a module's ``__all__`` lists."""
    return {element.value
            for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for element in node.value.elts}


def test_package_has_no_unused_import():
    # the package's modules and every module of the tests
    unused = []
    for path in [*sorted(PACKAGE.glob("*.py")),
                 *sorted(REFERENCE.parent.glob("*.py"))]:
        module = path.relative_to(ROOT)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)} | exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{module}:{node.lineno} {bound}"
                           for alias in node.names
                           if (bound := alias.asname
                               or alias.name.split(".")[0]) not in used]
    assert unused == []


def test_package_has_no_global_statement():
    # what a forward tapes is read from its tensors' flags alone
    found = [f"{module}:{node.lineno} global {', '.join(node.names)}"
             for module, tree in package_trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert found == []


def test_package_defines_no_attribute_hook():
    # reading an attribute has no side effect: a forward's backward is
    # planned where its loss node is built, not on a first read
    found = [f"{module}:{item.lineno} {node.name}.{item.name}"
             for module, tree in package_trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for item in node.body if isinstance(item, ast.FunctionDef)
             and item.name in ("__getattr__", "__getattribute__")]
    assert found == []


def test_package_imports_no_private_name_of_another_module():
    found = [f"{module}:{node.lineno} {alias.name}"
             for module, tree in package_trees().items()
             if module != REFERENCE.name
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").split(".")[0] == "metacl")
             for alias in node.names
             if alias.name.startswith("_")]
    assert found == []


def private_definitions(tree):
    """(name, line) of each private module-level function, class or
    assigned name, and of each private method."""
    found = []
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        found += [(item.name, item.lineno) for item in (node, *members)
                  if isinstance(item, (ast.FunctionDef, ast.ClassDef))]
        if isinstance(node, ast.Assign):
            found += [(target.id, node.lineno) for target in node.targets
                      if isinstance(target, ast.Name)]
    return [(name, line) for name, line in found
            if name.startswith("_") and not name.startswith("__")]


def test_package_has_no_unreferenced_private_name():
    trees = package_trees()
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unreferenced = [f"{module}:{line} {name}"
                    for module, tree in trees.items()
                    for name, line in private_definitions(tree)
                    if name not in referenced]
    assert unreferenced == []


def test_every_config_field_is_read_outside_config():
    read = {node.attr for module, tree in package_trees().items()
            if module not in ("config.py", REFERENCE.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    assert [f.name for f in fields(RunConfig) if f.name not in read] == []


def test_a_run_loads_no_checkpoint_module():
    # runs write their files with experiments.atomic_write; only a resume
    # reads or writes a checkpoint
    out = run_python(["-c", "\n".join([
        "import sys",
        "import metacl, metacl.experiments, metacl.cli",
        "print('metacl.checkpoint' in sys.modules)"])])
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


def test_package_imports_only_the_standard_library_and_numpy():
    out = run_python(["-c", "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import metacl, metacl.experiments, metacl.cli",
        "print(*sorted({name.partition('.')[0]",
        "               for name in set(sys.modules) - before}))"])])
    assert out.returncode == 0, out.stderr
    loaded = out.stdout.split()
    assert "numpy" in loaded and "metacl" in loaded
    assert [name for name in loaded if name not in sys.stdlib_module_names
            and name not in ("numpy", "metacl")] == []


def test_save_checkpoint_writes_exactly_the_declared_metadata(tmp_path):
    model = ContinualModel(input_dim=2, classes_per_task=2, feature_width=4,
                           depth=1, head_mode="multi", k_max=2, embed_dim=2,
                           transform_mode="per_layer", share_embedding=True,
                           disc_hidden=2)
    model.register_task(1)
    memory = EpisodicMemory(1, rng=np.random.default_rng(0))
    memory.observe(make_entry(np.zeros(2), 0, 1))
    save_checkpoint(tmp_path / "c.npz", model, memory=memory,
                    matrix=AccuracyMatrix.from_rows([[0.5]]))
    with np.load(tmp_path / "c.npz", allow_pickle=False) as archive:
        meta = json.loads(str(archive["__meta__"]))
    assert list(meta) == [f.name for f in fields(Metadata)]
    assert list(meta["memory"]) == [f.name for f in fields(MemoryMetadata)]


@pytest.mark.parametrize("field", fields(ResultRecord), ids=lambda f: f.name)
def test_every_record_field_has_a_checkable_declaration(field):
    # its declaration rejects an object of lists and a list of objects: a
    # bare ``list`` or ``dict`` annotation, which checks nothing below its
    # own level, accepts one of the two
    for probe in ({"probe": [None]}, [{"probe": None}]):
        with pytest.raises(FormatError, match=f"^file: field {field.name}: "):
            check_format("file", probe, field.type, field.metadata,
                         field.name)
