"""CLI tests: subcommands, flags, exit codes, diagnostics."""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from metacl.cli import main
from metacl.config import ABLATION_MODES, parse_config
from metacl.errors import ConfigurationError
from metacl.experiments import GRID_SPACE, SWEEP_AXES

TINY = [
    "--set", "n_tasks=3", "--set", "train_per_class=10",
    "--set", "test_per_class=5", "--set", "input_dim=8",
    "--set", "feature_width=16", "--set", "embed_dim=4",
    "--set", "disc_hidden=8", "--set", "batch_size=10",
    "--set", "replay_batch_size=8", "--set", "memory_budget=5",
]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_run_writes_results(tmp_path):
    code, out, err = invoke(
        ["run", "--seed", "0", "--out", str(tmp_path)] + TINY)
    assert code == 0, err
    assert "ACC" in out and "LA" in out
    assert list(tmp_path.glob("*/seed-0/record.json"))
    assert list(tmp_path.glob("*/summary.csv"))


def test_run_with_config_file(tmp_path):
    cfg = tmp_path / "desk.cfg"
    cfg.write_text("\n".join(s for s in TINY if s != "--set") +
                   "\nseeds = [0]\n")
    code, out, _ = invoke(["run", "--config", str(cfg),
                           "--out", str(tmp_path / "r")])
    assert code == 0
    assert "1 seed(s)" in out


def test_seeds_flag(tmp_path):
    code, _, _ = invoke(["run", "--seeds", "0,1",
                         "--out", str(tmp_path)] + TINY)
    assert code == 0
    assert list(tmp_path.glob("*/seed-1/record.json"))


def test_unknown_key_is_diagnosed(tmp_path):
    code, _, err = invoke(
        ["run", "--seed", "0", "--out", str(tmp_path),
         "--set", "bogus=1"])
    assert code == 2
    assert "error:" in err and "bogus" in err


def test_invalid_value_is_diagnosed(tmp_path):
    code, _, err = invoke(
        ["run", "--seed", "0", "--out", str(tmp_path),
         "--set", "method=nonsense"])
    assert code == 2
    assert "method" in err


# each is caught when the config is built, before a run writes anything
INVALID_OVERRIDES = [
    ["inner_lr=0"], ["generator_mode=bogus"], ["transform_mode=bogus"],
    ["n_in=0"], ["lambda1=-1"], ["fake_fraction=0"], ["replay_batch_size=0"],
    ["k_max=-1"], ["depth=0"], ["feature_width=0"],
    ["method=er", "transform_mode=bogus"],
    ["protocol=rotated"], ["n_tasks=0"], ["classes_per_task=1"],
    ["noise_scale=-1"], ["noise_scale=NaN"], ["input_dim=0"],
    ["train_per_class=0"], ["test_per_class=0"], ["data_seed=-1"],
    ["seeds=[-1]"], ["seeds=[0,0]"], ["seeds=[2,0,2]"],
    ["center_scale=NaN"], ["noise_scale=Infinity"], ["inner_lr=Infinity"],
    ["lambda3=Infinity"], ["noise_mean=NaN"], ["fake_fraction=Infinity"],
    ["fake_fraction=1.5"], ["fake_fraction=1e300"],
    ["noise_mean=-Infinity"],
    ["n_tasks=NaN"], ["n_tasks=Infinity"], ["n_tasks=-Infinity"],
    ["depth=1e400"], ["seeds=NaN"], ["seeds=Infinity"], ["seeds=-Infinity"],
    ["seeds=[0,1e400]"],
]


@pytest.mark.parametrize("overrides", INVALID_OVERRIDES, ids=" ".join)
def test_invalid_value_writes_no_run_directory(tmp_path, overrides):
    with pytest.raises(ConfigurationError):
        parse_config("\n".join(overrides))
    # seeds go in as a --set before the overrides, so a bad seed list wins
    argv = ["run", "--out", str(tmp_path)] + TINY + ["--set", "seeds=[0]"]
    for pair in overrides:
        argv += ["--set", pair]
    code, _, err = invoke(argv)
    assert code == 2
    # the diagnostic names the field at fault, the last one set
    assert f"error: {overrides[-1].partition('=')[0]} " in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seeds", ["0,0", "-1"])
def test_bad_seeds_flag_writes_no_run_directory(tmp_path, seeds):
    code, _, err = invoke(["run", "--seeds", seeds, "--out", str(tmp_path)]
                          + TINY)
    assert code == 2
    assert "seeds must be distinct and >= 0" in err
    assert list(tmp_path.iterdir()) == []


def test_seed_and_seeds_flags_are_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        invoke(["run", "--seeds", "0,1,2", "--seed", "5",
                "--out", str(tmp_path)] + TINY)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_k_max_below_task_count_writes_no_run_directory(tmp_path):
    code, _, err = invoke(["run", "--seed", "0", "--out", str(tmp_path)]
                          + TINY + ["--set", "k_max=2"])
    assert code == 2
    assert "k_max=2" in err
    assert list(tmp_path.iterdir()) == []


def test_missing_config_file_is_diagnosed(tmp_path):
    code, _, err = invoke(["run", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "error:" in err


def test_sweep_command(tmp_path):
    code, out, err = invoke(
        ["sweep", "--axis", "memory", "--values", "50",
         "--seed", "0", "--out", str(tmp_path)] + TINY)
    assert code == 0, err
    assert "memory=50" in out and "LA" in out
    assert (tmp_path / "sweep-memory.csv").exists()


def test_sweep_value_is_typed_by_its_field(tmp_path):
    # memory_budget is an integer field: 50.0 names the same run as 50
    runs = []
    for text in ("50", "50.0"):
        shutil.rmtree(tmp_path, ignore_errors=True)
        code, out, err = invoke(
            ["sweep", "--axis", "memory", "--values", text,
             "--seed", "0", "--out", str(tmp_path)] + TINY)
        assert code == 0, err
        assert "memory=50:" in out
        (run_dir,) = [p for p in tmp_path.iterdir() if p.is_dir()]
        runs.append((run_dir.name,
                     (run_dir / "config.txt").read_bytes(),
                     (run_dir / "seed-0" / "record.json").read_bytes(),
                     (tmp_path / "sweep-memory.csv").read_bytes()))
    assert runs[0] == runs[1]
    assert b"memory_budget = 50\n" in runs[0][1]
    assert b"\nmemory,50," in runs[0][3]


def test_sweep_rejects_bad_value(tmp_path):
    code, _, err = invoke(
        ["sweep", "--axis", "memory", "--values", "37",
         "--seed", "0", "--out", str(tmp_path)] + TINY)
    assert code == 2
    assert "37" in err


def test_sweep_rejects_empty_values(tmp_path):
    # an empty --values is no value, as sweep(values=[]) is, not the
    # axis's whole canonical sweep
    code, out, err = invoke(
        ["sweep", "--axis", "memory", "--values", "",
         "--seed", "0", "--out", str(tmp_path)] + TINY)
    assert code == 2
    assert "at least one value" in err
    assert not out
    assert not list(tmp_path.iterdir())


def test_grid_command(tmp_path):
    code, out, err = invoke(
        ["grid", "--space", '{"inner_lr": [0.1], "lambda3": [0.03]}',
         "--seed", "0", "--out", str(tmp_path)] + TINY)
    assert code == 0, err
    assert "best:" in out
    assert (tmp_path / "grid.csv").exists()


def test_grid_rejects_bad_space(tmp_path):
    code, _, err = invoke(
        ["grid", "--space", "not json", "--seed", "0",
         "--out", str(tmp_path)] + TINY)
    assert code == 2
    assert "JSON" in err


@pytest.mark.parametrize("values", ["0.03", '"0.03"'])
def test_grid_rejects_an_axis_value_that_is_not_a_list(tmp_path, values):
    code, out, err = invoke(
        ["grid", "--space", '{"lambda3": %s}' % values, "--seed", "0",
         "--out", str(tmp_path)] + TINY)
    assert code == 2
    assert "lambda3" in err and "0.03" in err and "list" in err
    assert not list(tmp_path.iterdir())


def test_ablate_command(tmp_path):
    code, out, err = invoke(
        ["ablate", "--modes", "full,C", "--seed", "0",
         "--out", str(tmp_path)] + TINY)
    assert code == 0, err
    assert "ablation full" in out and "ablation C" in out


# each names what is at fault and fails before a run writes anything
BAD_RUN_SETS = [
    (["ablate", "--modes", ""], "ablation needs at least one value"),
    (["ablate", "--modes", "A,A"], "ablation has the value 'A' twice"),
    (["ablate", "--modes", "full,Z"], "ablation accepts"),
    (["sweep", "--axis", "memory", "--values", "50,50"],
     "memory sweep has the value 50 twice"),
    (["grid", "--space", '{"lambda3": [0.03, 0.03]}'],
     "grid axis lambda3 has the value 0.03 twice"),
    (["grid", "--space", "{}"], "names no axis"),
    (["grid", "--space", ""], "--space"),
    (["sweep", "--axis", "memory", "--values", "abc"], "--values"),
    (["sweep", "--axis", "lambda", "--values", "0.03,"], "--values"),
]


@pytest.mark.parametrize("argv, named", BAD_RUN_SETS,
                         ids=[" ".join(argv) for argv, _ in BAD_RUN_SETS])
def test_bad_run_set_writes_nothing(tmp_path, argv, named):
    code, out, err = invoke(argv + ["--seed", "0", "--out", str(tmp_path)]
                            + TINY)
    assert code == 2
    assert named in err
    assert not out
    assert not list(tmp_path.iterdir())


def test_report_command(tmp_path):
    code, _, err = invoke(
        ["run", "--seed", "0", "--out", str(tmp_path)] + TINY)
    assert code == 0, err
    code, out, _ = invoke(["report", "--out", str(tmp_path)])
    assert code == 0
    assert "scale" in out and "ACC" in out and "LA" in out


def test_report_empty_dir(tmp_path):
    code, _, err = invoke(["report", "--out", str(tmp_path)])
    assert code == 2
    assert "record.json" in err


def test_console_entry_point_help():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "metacl.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    for name in ("run", "sweep", "grid", "ablate", "report"):
        assert name in proc.stdout


# -- run-set inputs, property-based ------------------------------------------

# a 2-task stream, one seed, a few samples per class
SMALL = ["--seed", "0", "--set", "n_tasks=2", "--set", "train_per_class=4",
         "--set", "test_per_class=2", "--set", "input_dim=4",
         "--set", "depth=2", "--set", "feature_width=8",
         "--set", "embed_dim=2", "--set", "disc_hidden=4",
         "--set", "batch_size=4", "--set", "replay_batch_size=4"]
MODE_TOKENS = [*ABLATION_MODES, "Z", "scale", "", " "]
VALUE_TOKENS = {"memory": ["50", "100", "200", "50.0", "37", "", "abc"],
                "lambda": ["0.03", "0.3", "0.9", "0.5", "", "NaN"]}
AXIS_TOKENS = {"inner_lr": [0.01, 0.1, 0.5], "lambda3": [0.03, 0.9, 2]}
RAW_SPACES = ["", "not json", "{", "[1]", "0.03", "{}", '{"lambda3": []}',
              '{"lambda3": 0.03}', '{"bogus": [1]}']


def _valid_keys(keys, allowed):
    return bool(keys) and all(k in allowed for k in keys) and all(
        keys.count(k) == 1 for k in keys)


def _sweep_values(text, axis):
    """The values ``--values text`` asks for, or None if it must fail."""
    try:
        values = [json.loads(v) for v in text.split(",")] if text else []
    except json.JSONDecodeError:
        return None
    return values if _valid_keys(values, SWEEP_AXES[axis][1]) else None


def _grid_space(text):
    """The space ``--space text`` asks for, or None if it must fail."""
    try:
        space = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not isinstance(space, dict) or not space:
        return None
    for key, values in space.items():
        if key not in GRID_SPACE or not isinstance(values, list) or not (
                _valid_keys(values, GRID_SPACE[key])):
            return None
    return space


def _check_outcome(argv, expected, out_dir):
    """``argv`` either fails with exit 2 and writes nothing under
    ``out_dir``, as ``expected`` None says, or runs: one record.json per
    expected variant (one seed) and one ``table`` row per expected entry,
    with finite ACC/FM throughout."""
    code, _, err = invoke(argv + ["--out", str(out_dir)] + SMALL)
    event("fails" if expected is None else "runs")
    if expected is None:
        assert code == 2 and err.startswith("error: ")
        assert not list(out_dir.iterdir())
        return
    variants, table, n_rows = expected
    assert code == 0, err
    records = sorted(out_dir.glob("*/seed-0/record.json"))
    assert len(records) == variants
    for path in records:
        record = json.loads(path.read_text())
        assert math.isfinite(record["final_acc"])
        assert math.isfinite(record["final_fm"])
    with open(out_dir / table, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == n_rows
    for row in rows:
        assert math.isfinite(float(row["mean_acc"]))
        assert math.isfinite(float(row["mean_fm"]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(MODE_TOKENS), max_size=3))
def test_ablate_modes_run_or_fail_by_name(tokens):
    text = ",".join(tokens)
    modes = [m.strip() for m in text.split(",") if m.strip()]
    expected = ((len(modes), "ablations.csv", len(modes))
                if _valid_keys(modes, ABLATION_MODES) else None)
    with tempfile.TemporaryDirectory() as tmp:
        _check_outcome(["ablate", "--modes", text], expected, Path(tmp))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(VALUE_TOKENS)).flatmap(lambda axis: st.tuples(
    st.just(axis), st.lists(st.sampled_from(VALUE_TOKENS[axis]),
                            min_size=1, max_size=2))))
def test_sweep_values_run_or_fail_by_name(drawn):
    axis, tokens = drawn
    text = ",".join(tokens)
    values = _sweep_values(text, axis)
    expected = (None if values is None
                else (len(values), f"sweep-{axis}.csv", len(values)))
    with tempfile.TemporaryDirectory() as tmp:
        _check_outcome(["sweep", "--axis", axis, "--values", text], expected,
                       Path(tmp))


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.sampled_from(RAW_SPACES),
    st.lists(st.sampled_from(sorted(AXIS_TOKENS)), min_size=1, max_size=2,
             unique=True).flatmap(lambda axes: st.fixed_dictionaries({
                 axis: st.lists(st.sampled_from(AXIS_TOKENS[axis]),
                                min_size=1, max_size=2)
                 for axis in axes})).map(json.dumps)))
def test_grid_space_runs_or_fails_by_name(text):
    # each combination leaves one record per seed and one grid.csv row
    space = _grid_space(text)
    combinations = None if space is None else math.prod(
        len(v) for v in space.values())
    expected = None if space is None else (
        combinations, "grid.csv", combinations)
    with tempfile.TemporaryDirectory() as tmp:
        _check_outcome(["grid", "--space", text], expected, Path(tmp))
