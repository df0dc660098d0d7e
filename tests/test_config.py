"""Config document tests: defaults, round trip, overrides, hashing."""

from dataclasses import fields, replace

import numpy as np
import pytest

from metacl.config import (
    RunConfig,
    apply_overrides,
    config_hash,
    load_config,
    parse_config,
    serialize_config,
)
from metacl.errors import ConfigurationError


def test_every_field_has_a_default():
    config = RunConfig()
    assert config.method == "scale"
    assert config.seeds == (0, 1, 2, 3, 4)
    assert len(config.seeds) == 5
    assert config.memory_budget == 50
    assert config.lambda3 == 0.03


def test_parse_minimal_document():
    config = parse_config("""
    # a comment
    method = er
    seeds = [3, 4]
    inner_lr = 0.05
    share_embedding = false
    """)
    assert config.method == "er"
    assert config.seeds == (3, 4)
    assert config.inner_lr == 0.05
    assert config.share_embedding is False


def test_unknown_keys_rejected_and_listed():
    with pytest.raises(ConfigurationError, match="bogus.*also_bad"):
        parse_config("bogus = 1\nalso_bad = 2\n")


def test_round_trip_is_identity():
    config = parse_config(
        "method = scale\nseeds = [7]\nlambda3 = 0.9\nout_dir = somewhere\n")
    assert parse_config(serialize_config(config)) == config
    assert parse_config(serialize_config(RunConfig())) == RunConfig()


def test_round_trip_survives_awkward_strings():
    config = apply_overrides(RunConfig(), ["out_dir=123", "idx_dir=true"])
    assert config.out_dir == "123"
    assert config.idx_dir == "true"
    assert parse_config(serialize_config(config)) == config


def test_value_validation():
    with pytest.raises(ConfigurationError):
        parse_config("method = nonsense\n")
    with pytest.raises(ConfigurationError):
        parse_config("seeds = []\n")
    with pytest.raises(ConfigurationError):
        parse_config("n_tasks = 2.5\n")
    with pytest.raises(ConfigurationError):
        parse_config("share_embedding = 1\n")
    with pytest.raises(ConfigurationError):
        parse_config("method er\n")


FLOAT_FIELDS = [f.name for f in fields(RunConfig) if f.type is float]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_every_float_field_must_be_finite(name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        RunConfig(**{name: value})


def test_seeds_are_stored_as_a_tuple():
    listed, paired = RunConfig(seeds=[0, 1]), RunConfig(seeds=(0, 1))
    assert listed.seeds == (0, 1)
    assert listed == paired
    assert hash(listed) == hash(paired)
    assert config_hash(listed) == config_hash(paired)


def test_idx_config_skips_the_synthetic_only_checks():
    # the idx stream reads neither the synthetic sizes nor its spread
    idx = {"dataset": "idx", "idx_dir": "data"}
    config = RunConfig(**idx, classes_per_task=1, input_dim=0,
                       train_per_class=0, test_per_class=0, noise_scale=-1.0)
    assert config.classes_per_task == 1
    # both IDX protocols read n_tasks and the per-task cuts
    for bad in ({"data_seed": -1}, {"seeds": (1, 1)}, {"n_tasks": 0},
                {"train_per_task": -1}, {"test_per_task": -1}):
        with pytest.raises(ConfigurationError, match=next(iter(bad))):
            RunConfig(**idx, **bad)


def test_ablation_requires_scale():
    with pytest.raises(ConfigurationError):
        parse_config("method = er\nablation = B\n")


def test_overrides():
    config = apply_overrides(RunConfig(), ["seeds=[1,2]", "lambda1=3"])
    assert config.seeds == (1, 2)
    assert config.lambda1 == 3.0
    with pytest.raises(ConfigurationError, match="nope"):
        apply_overrides(RunConfig(), ["nope=1"])
    with pytest.raises(ConfigurationError):
        apply_overrides(RunConfig(), ["justakey"])


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("memory_budget = 100\n")
    assert load_config(path).memory_budget == 100


def test_hash_stability_and_sensitivity():
    a, b = RunConfig(), RunConfig()
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64
    c = apply_overrides(a, ["lambda3=0.9"])
    assert config_hash(c) != config_hash(a)


def test_every_field_holds_its_declared_type():
    loose = RunConfig(lambda1=1, memory_budget=50.0, seeds=[0, 1.0],
                      n_tasks=np.int64(3), inner_lr=np.float64(0.5))
    for config in (RunConfig(), loose, replace(loose, depth=2.0),
                   parse_config("seeds = 4\nnoise_std = 2")):
        for f in fields(config):
            assert type(getattr(config, f.name)) is f.type, f.name
        assert all(type(seed) is int for seed in config.seeds)
    assert loose.seeds == (0, 1) and loose.n_tasks == 3


def test_hash_does_not_depend_on_how_a_value_is_spelled():
    assert RunConfig(lambda1=1) == parse_config("lambda1 = 1")
    assert (config_hash(RunConfig(lambda1=1))
            == config_hash(parse_config("lambda1 = 1")))
    assert config_hash(RunConfig(memory_budget=50.0)) == config_hash(RunConfig())
    assert (config_hash(replace(RunConfig(), memory_budget=50.0))
            == config_hash(RunConfig()))


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("name", ["n_tasks", "depth", "seeds"])
def test_non_finite_integer_value_names_its_field(name, text):
    with pytest.raises(ConfigurationError, match=name):
        parse_config(f"{name} = {text}")
    with pytest.raises(ConfigurationError, match=name):
        apply_overrides(RunConfig(), [f"{name}={text}"])


@pytest.mark.parametrize("kwargs", [
    {"n_tasks": True}, {"lambda1": "1"}, {"out_dir": 3},
    {"share_embedding": 1}, {"seeds": [0, True]}, {"seeds": "01"},
    {"seeds": None}, {"lambda1": None}, {"memory_budget": 2.5},
])
def test_keyword_value_of_the_wrong_type_names_its_field(kwargs):
    (name,) = kwargs
    with pytest.raises(ConfigurationError, match=name):
        RunConfig(**kwargs)
