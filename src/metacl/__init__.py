"""Adversarial continual learning on a shared extractor, in plain numpy.

A compact research library: a reverse-mode autodiff core, a task-conditioned
feature network (shared trunk, per-task scale/shift, per-task heads, one
discriminator), episodic replay memory, a bi-level one-epoch trainer, and an
experiment runner with deterministic, seedable runs.
"""

from .autodiff import Tensor, backward, no_grad, sgd_step, zero_grads
from .config import RunConfig, load_config, parse_config, serialize_config
from .datasets import make_synthetic
from .memory import Draw, EpisodicMemory, MemoryEntry, make_entry
from .metrics import AccuracyMatrix, acc, fm
from .networks import ContinualModel
from .trainer import (
    Trainer,
    build_model,
    build_trainer,
    run_stream,
)

__version__ = "0.1.0"

__all__ = [
    "Tensor", "backward", "no_grad", "sgd_step", "zero_grads",
    "RunConfig", "load_config", "parse_config", "serialize_config",
    "make_synthetic",
    "Draw", "EpisodicMemory", "MemoryEntry", "make_entry",
    "AccuracyMatrix", "acc", "fm",
    "ContinualModel",
    "Trainer",
    "build_model", "build_trainer", "run_stream",
    "__version__",
]
