"""Smoke tests for the demos, the README's library example and the benchmark
entry point.

The demos import metacl's public API at module level, so importing each one
catches a renamed or deleted name without running the demo. The fast demos
(01 to 03, about 2 s together) also run to the end, which calls the model's
forward paths and snapshots they show, and so does the README's ``python``
block (about 1 s), so the documented library use keeps working; its config
file example must parse. The benchmark patches metacl's functions where
their callers look them up: installing its patches catches a refactor that
moves one of those names in milliseconds, and a short run of it catches one
that changes what they do. Two ``ast`` scans of ``src/metacl`` keep
deletions from leaving debris: an import nothing in its module uses, and a
private (``_name``) module-level name or method nothing in the package
references.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from metacl.config import parse_config

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = ROOT / "src" / "metacl"


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
], ids=["resume20-er-traced", "desk5-full-traced", "desk5-full-untraced",
        "long20-full-traced"])
def test_benchmark_runs_without_failures(args):
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run_bench.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["failed"] == 0, out.stderr
    assert result["attempted"] > 0


def test_benchmark_hooks_resolve(tmp_path, monkeypatch):
    # entering the traced resume pass's instruments patches every name the
    # benchmark hooks in metacl, so a renamed or deleted one fails here, by
    # name, without a training run; leaving them puts every original back
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import harness
    import run_bench
    from metacl import losses, trainer

    originals = (trainer.Trainer.train_task, trainer.Trainer.inner_step,
                 trainer.ce_loss, losses.ce_loss, trainer.backward)
    with run_bench.Instruments(tmp_path, harness.Tracer(), resume=True):
        assert trainer.Trainer.inner_step is not originals[1]
    assert (trainer.Trainer.train_task, trainer.Trainer.inner_step,
            trainer.ce_loss, losses.ce_loss, trainer.backward) == originals


def package_trees():
    """{module file name: parsed source} for every module of the package."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def exported(tree):
    """The names a module's ``__all__`` lists."""
    return {element.value
            for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for element in node.value.elts}


def test_package_has_no_unused_import():
    unused = []
    for module, tree in package_trees().items():
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
