"""One tamper property test for every file metacl reads back.

A saved ``record.json``, ``timing.json`` and checkpoint metadata (its memory
block included) are each mutated at one JSON node, in a way that no
declaration of the format can accept: a string or a bool for a number, a
container for a scalar or a scalar for a container, a negative count, seed or
time, a required key removed or an unknown key added. Every such file must
fail to load as ``FormatError`` whose message starts with its path. The named
regressions stay where they were: ``TAMPERINGS`` and ``ROW_TAMPERINGS`` in
``test_checkpoint.py``, the malformed-record rows in ``test_experiments.py``.
"""

import copy
import json
import string
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from metacl.checkpoint import load_checkpoint, save_checkpoint
from metacl.config import RunConfig, apply_overrides
from metacl.errors import FormatError
from metacl.experiments import (build_stream, execute_run, load_record,
                                run_dir_name)
from metacl.trainer import build_trainer, run_stream

# ablation C never runs the outer step, so timing.json holds nulls too
CONFIG = apply_overrides(RunConfig(), [
    "n_tasks=3", "train_per_class=10", "test_per_class=5", "input_dim=8",
    "feature_width=16", "depth=2", "embed_dim=4", "disc_hidden=8",
    "batch_size=10", "replay_batch_size=8", "memory_budget=5", "seeds=[0]",
    "ablation=C"])
# the keys whose numbers, at any depth, count something, seed or time it
COUNTS = {"seed", "samples_seen", "counters", "wall_s", "task_wall_s",
          "budget_per_task", "seen_counts", "input_dim", "classes_per_task",
          "feature_width", "depth", "k_max", "embed_dim", "disc_hidden"}
RECORD_FILES = ("record.json", "timing.json")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """{file name: its JSON document} of one seed-run's two record files and
    of a checkpoint of a model, memory and matrix trained on the same run,
    and the checkpoint's arrays."""
    out = tmp_path_factory.mktemp("saved")
    execute_run(CONFIG, out_dir=str(out))
    seed_dir = out / run_dir_name(CONFIG) / "seed-0"
    documents = {name: json.loads((seed_dir / name).read_text())
                 for name in RECORD_FILES}
    trainer = build_trainer(build_stream(CONFIG), CONFIG, 0)
    run_stream(trainer, build_stream(CONFIG))
    save_checkpoint(out / "c.npz", trainer.model, memory=trainer.memory,
                    matrix=trainer.state.matrix)
    with np.load(out / "c.npz", allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}
    documents["checkpoint"] = json.loads(str(arrays["__meta__"]))
    return documents, arrays


def nodes(value, path=()):
    """(path, node) of ``value`` and of every node below it."""
    yield path, value
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from nodes(child, path + (key,))


def mutations(path, node):
    """The mutations that no declaration accepts at ``node``."""
    found = []
    if path and isinstance(node, (int, float)) and not isinstance(node, bool):
        found += ["string", "bool"]
        if COUNTS & set(path):
            found.append("negative")
    if path:
        found.append("scalar" if isinstance(node, (dict, list))
                     else "container")
    if isinstance(node, dict):
        found.append("add key")
        # a map keyed by task ids holds data, not required keys
        if node and not all(key.isdecimal() for key in node):
            found.append("remove key")
    return found


def mutated(document, path, how, data):
    document = copy.deepcopy(document)
    node = reduce(getitem, path, document)
    if how == "add key":
        node[data.draw(st.text(string.ascii_letters, min_size=1).filter(
            lambda key: key not in node))] = 0
        return document
    if how == "remove key":
        del node[data.draw(st.sampled_from(sorted(node)))]
        return document
    parent = reduce(getitem, path[:-1], document)
    parent[path[-1]] = data.draw({
        "string": st.text(),
        "bool": st.booleans(),
        "negative": st.integers(1, 10**6).map(lambda n: -abs(node) - n),
        "container": st.sampled_from([[], {}, [0], {"a": 0}]),
        "scalar": st.sampled_from([0, 1.5, "x", True]),
    }[how])
    return document


def load(name, document, saved, directory):
    """Write ``document`` as file ``name`` in ``directory``, beside the
    other saved files, and load it with them; returns the file's path."""
    documents, arrays = saved
    if name == "checkpoint":
        path = directory / "c.npz"
        with open(path, "wb") as f:
            np.savez(f, **arrays | {"__meta__": np.array(json.dumps(document))})
        load_checkpoint(path)
        return path
    for other in RECORD_FILES:
        (directory / other).write_text(json.dumps(
            document if other == name else documents[other]))
    load_record(str(directory))
    return directory / name


def test_the_saved_files_load(saved, tmp_path):
    for name, document in saved[0].items():
        load(name, document, saved, tmp_path)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(data=st.data())
def test_a_file_tampered_at_any_node_fails_naming_it(saved, data):
    name = data.draw(st.sampled_from(sorted(saved[0])))
    path, node = data.draw(st.sampled_from(list(nodes(saved[0][name]))))
    how = data.draw(st.sampled_from(mutations(path, node)))
    event(f"{name}: {how}")
    document = mutated(saved[0][name], path, how, data)
    with tempfile.TemporaryDirectory() as directory:
        target = Path(directory) / (
            "c.npz" if name == "checkpoint" else name)
        with pytest.raises(FormatError) as info:
            load(name, document, saved, Path(directory))
        assert str(info.value).startswith(f"{target}: ")
