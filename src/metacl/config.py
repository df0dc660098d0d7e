"""Run configuration: a flat, human-editable ``key = value`` document.

Values are parsed as JSON where possible (numbers, booleans, lists) and fall
back to bare strings, so ``method = scale`` and ``seeds = [0, 1]`` both work.
Unknown keys are rejected. Every field has a default, and ``RunConfig`` itself
converts every value to its field's declared type and checks it, however the
config is built (from text, keywords or ``dataclasses.replace``), so a bad
value fails, naming its field, before a run writes anything. ``config_hash``
gives a stable content address used to name result directories.
"""

import hashlib
import json
import math
import numbers
from collections.abc import Iterable
from dataclasses import asdict, dataclass, fields, replace

from .errors import ConfigurationError

METHODS = ("scale", "er", "finetune")
ABLATION_MODES = ("full", "A", "B", "C")
DATASETS = ("synthetic", "idx")
PROTOCOLS = ("split", "permuted")
TRANSFORM_MODES = ("per_layer", "last", "off")
GENERATOR_MODES = ("uniform-confusion", "negative-ce")


@dataclass(frozen=True)
class RunConfig:
    # what to run
    method: str = "scale"
    ablation: str = "full"
    seeds: tuple = (0, 1, 2, 3, 4)
    out_dir: str = "results"
    # data
    dataset: str = "synthetic"
    protocol: str = "split"
    n_tasks: int = 5
    classes_per_task: int = 2
    train_per_class: int = 100
    test_per_class: int = 50
    input_dim: int = 32
    center_scale: float = 6.0
    noise_scale: float = 1.0
    data_seed: int = 0
    idx_dir: str = ""
    train_per_task: int = 1000
    test_per_task: int = 1000
    # model
    feature_width: int = 64
    depth: int = 3
    embed_dim: int = 16
    disc_hidden: int = 32
    transform_mode: str = "per_layer"
    share_embedding: bool = True
    k_max: int = 0
    # optimization
    inner_lr: float = 0.35
    outer_lr: float = 0.01
    adversarial_lr: float = 0.001
    n_in: int = 1
    n_out: int = 1
    n_ad: int = 1
    batch_size: int = 8
    replay_batch_size: int = 64
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 0.03
    noise_mean: float = 0.0
    noise_std: float = 1.0
    generator_mode: str = "uniform-confusion"
    fake_fraction: float = 1.0
    memory_budget: int = 50

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name,
                               _typed(f.name, f.type, getattr(self, f.name)))
        for name, valid in (("method", METHODS), ("ablation", ABLATION_MODES),
                            ("dataset", DATASETS), ("protocol", PROTOCOLS),
                            ("transform_mode", TRANSFORM_MODES),
                            ("generator_mode", GENERATOR_MODES)):
            if getattr(self, name) not in valid:
                raise ConfigurationError(f"{name} must be one of {valid}")
        if self.method != "scale" and self.ablation != "full":
            raise ConfigurationError(
                f"ablations apply to method=scale, not {self.method!r}")
        if not self.seeds:
            raise ConfigurationError("seeds must be non-empty")
        if min(self.seeds) < 0 or len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(
                f"seeds must be distinct and >= 0, got {list(self.seeds)}")
        for name in ("n_tasks", "feature_width", "depth", "embed_dim",
                     "disc_hidden", "n_in", "n_out", "n_ad", "batch_size",
                     "replay_batch_size"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        # written as "not >" so that NaN is rejected too
        for name in ("inner_lr", "outer_lr", "adversarial_lr", "noise_std"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be > 0")
        if not 0 < self.fake_fraction <= 1:  # fakes per real row of a batch
            raise ConfigurationError("fake_fraction must be in (0, 1]")
        # k_max = 0 sizes the task capacity to the stream, and a per-task
        # cut of 0 keeps every row
        for name in ("lambda1", "lambda2", "lambda3", "k_max", "memory_budget",
                     "data_seed", "train_per_task", "test_per_task"):
            if not getattr(self, name) >= 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.dataset == "idx":
            if not self.idx_dir:
                raise ConfigurationError("dataset=idx requires idx_dir")
            return
        # the fields only the synthetic stream reads
        for name in ("input_dim", "train_per_class", "test_per_class"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.classes_per_task < 2:
            raise ConfigurationError("classes_per_task must be >= 2")
        if not self.noise_scale >= 0:
            raise ConfigurationError("noise_scale must be >= 0")


def _typed(name, kind, value):
    """``value`` as field ``name`` of type ``kind`` holds it; raises
    ConfigurationError naming the field when it does not fit."""
    if kind is tuple:  # seeds: one integer or a sequence of them
        if isinstance(value, numbers.Real):
            value = (value,)
        if isinstance(value, str) or not isinstance(value, Iterable):
            raise ConfigurationError(
                f"seeds expects an integer or a list of integers, got {value!r}")
        return tuple(_typed("seeds", int, v) for v in value)
    if kind in (bool, str):
        if isinstance(value, kind):
            return value
        raise ConfigurationError(
            f"{name} expects {'true or false' if kind is bool else 'a string'}"
            f", got {value!r}")
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(
            f"{name} expects {'an integer' if kind is int else 'a number'}, "
            f"got {value!r}")
    if kind is int and isinstance(value, numbers.Integral):
        return int(value)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    if kind is float:
        return number
    if number != int(number):
        raise ConfigurationError(f"{name} expects an integer, got {value!r}")
    return int(number)


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _parse_value(raw):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _raw_values(items):
    """{field: raw value} from ``key = value`` strings: a string field keeps
    the text (unquoted if it is a JSON string), any other field parses it as
    JSON, falling back to the bare text. ``RunConfig`` types the values."""
    values = {}
    unknown = []
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigurationError(f"expected 'key = value', got {item!r}")
        key = key.strip()
        if key not in _FIELDS:
            unknown.append(key)
            continue
        raw = raw.strip()
        value = _parse_value(raw)
        if _FIELDS[key].type is str and not (raw.startswith('"')
                                             and isinstance(value, str)):
            value = raw
        values[key] = value
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    return values


def parse_config(text):
    """Parse a ``key = value`` document into a RunConfig."""
    lines = [line.strip() for line in text.splitlines()]
    return RunConfig(**_raw_values(
        line for line in lines if line and not line.startswith("#")))


def load_config(path):
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def serialize_config(config):
    """Emit the document form; parse(serialize(c)) == c."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if isinstance(value, str):
            # bare only when reparsing yields the same string back
            bare_ok = (value and value == value.strip()
                       and _parse_value(value) == value)
            rendered = value if bare_ok else json.dumps(value)
        else:
            rendered = json.dumps(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def apply_overrides(config, pairs):
    """Apply ``KEY=VALUE`` strings (CLI --set) on top of a config."""
    return replace(config, **_raw_values(pairs))


def config_hash(config):
    """Stable content address over all fields."""
    blob = json.dumps(asdict(config), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
