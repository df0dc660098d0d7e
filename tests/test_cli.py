"""CLI tests: subcommands, flags, exit codes, diagnostics."""

import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from metacl.cli import main
from metacl.config import parse_config
from metacl.errors import ConfigurationError

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
    assert "ACC" in out
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
    assert "memory=50" in out
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


def test_report_command(tmp_path):
    code, _, err = invoke(
        ["run", "--seed", "0", "--out", str(tmp_path)] + TINY)
    assert code == 0, err
    code, out, _ = invoke(["report", "--out", str(tmp_path)])
    assert code == 0
    assert "scale" in out and "ACC" in out


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
