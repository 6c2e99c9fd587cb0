"""Run configuration: JSON files with flag overrides layered on top.

This module states the default and the rule of every run setting once.
A run config names the data, the system (pipeline or joint), the encoder
backend, and the optimization hyperparameters. Defaults follow the training
setup the reference systems used: learning rate 1e-5, warmup rate 0.06,
weight decay 0.01, six epochs. Values from a ``--config`` JSON file are
overridden by any explicitly passed flags.
"""

from __future__ import annotations

import dataclasses
import reprlib
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import read_json
from .errors import MalformedJson
from .nn import Hyperparams, in_unit_interval, is_count, is_finite_number, refusal

SYSTEM_CHOICES = ("pipeline", "joint")
BACKEND_CHOICES = ("toy", "pretrained")
POOLING_CHOICES = ("mean", "first", "max")
EVIDENCE_SOURCE_CHOICES = ("gold", "predicted")
TASK_CHOICES = ("both", "evidence", "entailment")

# Every entry point that takes one of these settings defaults to its name
# here; the functions below the entry points take the setting explicitly.
DEFAULT_POOLING = "mean"
DEFAULT_THRESHOLD = 0.5
# toy-encoder pair inputs stay short; joint inputs pack a whole document
DEFAULT_MAX_LEN = {"pipeline": 512, "joint": 1024}
DEFAULT_VOCAB_SIZE, DEFAULT_DIM, DEFAULT_N_LAYERS = 1024, 32, 2


@dataclass(frozen=True)
class EncoderConfig:
    """Which encoder to build and how big its inputs may be.

    ``max_len`` of None means the system's ``DEFAULT_MAX_LEN``; otherwise it
    must leave room for a claim token, a separator and a sentence token (at
    least 3).
    ``mixed_precision`` acts on the pretrained backend on CUDA only.
    """

    backend: str = "toy"
    vocab_size: int = DEFAULT_VOCAB_SIZE
    dim: int = DEFAULT_DIM
    n_layers: int = DEFAULT_N_LAYERS
    max_len: int | None = None
    pooling: str = DEFAULT_POOLING
    model_name: str = ""
    device: str = "cpu"
    mixed_precision: bool = True

    def __post_init__(self):
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(f"unknown encoder backend {reprlib.repr(self.backend)}")
        if self.pooling not in POOLING_CHOICES:
            raise refusal("pooling", f"one of {POOLING_CHOICES}", self.pooling)
        for name, low in (("vocab_size", 3), ("dim", 1), ("n_layers", 0)):
            if not is_count(getattr(self, name), low):
                raise refusal(name, f"an integer >= {low}", getattr(self, name))
        if self.max_len is not None and not is_count(self.max_len, 3):
            raise refusal("max_len", "None or an integer >= 3", self.max_len)
        if not isinstance(self.mixed_precision, bool):
            raise refusal("mixed_precision", "true or false", self.mixed_precision)

    def resolved_max_len(self, system: str) -> int:
        return self.max_len if self.max_len is not None else DEFAULT_MAX_LEN[system]


@dataclass(frozen=True)
class EnsembleConfig:
    """Member weights, the evidence cap and the tasks to average.

    Weights must be finite, non-negative numbers that sum to one, and
    ``max_evidence`` an integer of at least one. ``tasks`` restricts the
    averaging to one task; the first prediction passes through unchanged for
    the other. The evidence threshold is the run's, passed beside this config.
    """

    w_pipeline: float = 0.4
    w_joint: float = 0.6
    max_evidence: int = 20
    tasks: str = "both"

    def __post_init__(self):
        for name in ("w_pipeline", "w_joint"):
            value = getattr(self, name)
            if not (is_finite_number(value) and value >= 0):
                raise refusal(name, "a finite number >= 0", value)
        if abs(self.w_pipeline + self.w_joint - 1.0) > 1e-9:
            raise ValueError("ensemble weights must sum to 1")
        if not is_count(self.max_evidence, 1):
            raise refusal("max_evidence", "an integer >= 1", self.max_evidence)
        if self.tasks not in TASK_CHOICES:
            raise ValueError(f"tasks must be one of {TASK_CHOICES}")


@dataclass(frozen=True)
class RunConfig:
    """Everything one command invocation needs."""

    corpus: str | None = None
    claims: str | None = None
    split: str | None = None
    system: str = "pipeline"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    hyperparams: Hyperparams = field(default_factory=Hyperparams)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    threshold: float = DEFAULT_THRESHOLD
    evidence_source: str = "gold"
    inject_arm_prefix: bool = False
    lenient: bool = False

    def __post_init__(self):
        if self.system not in SYSTEM_CHOICES:
            raise ValueError(f"system must be one of {SYSTEM_CHOICES}")
        if self.evidence_source not in EVIDENCE_SOURCE_CHOICES:
            raise ValueError(f"evidence_source must be one of {EVIDENCE_SOURCE_CHOICES}")
        if not in_unit_interval(self.threshold):
            raise refusal("threshold", "a finite number in [0, 1]", self.threshold)
        for name in ("corpus", "claims", "split"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise refusal(name, "a string or null", getattr(self, name))
            if name != "split" and getattr(self, name) == "":  # Path("") is the working directory
                raise ValueError(f"{name} must be a path, got an empty string")
        for name in ("inject_arm_prefix", "lenient"):
            if not isinstance(getattr(self, name), bool):
                raise refusal(name, "true or false", getattr(self, name))


# the nested config objects: RunConfig field -> class
SECTIONS = {"encoder": EncoderConfig, "hyperparams": Hyperparams, "ensemble": EnsembleConfig}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        elif value is not None:
            out[key] = value
    return out


def _build(cls, obj: dict):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(obj) - names
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {reprlib.repr(sorted(unknown))}")
    return cls(**obj)


def read_config_file(path: str | Path | None) -> dict:
    """The JSON object of a config file; empty when ``path`` is None."""
    if path is None:
        return {}
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise MalformedJson(f"config {path}: expected a JSON object")
    return obj


def build_run_config(file_obj: dict, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from a parsed config file object plus overrides.

    Override values of None mean "not given" and never clobber the file;
    everything else wins over the file, which wins over defaults.
    """
    for key in SECTIONS:
        if not isinstance(file_obj.get(key, {}), dict):
            raise ValueError(f"config key {key!r} must be an object")
    obj = _merge(file_obj, overrides or {})
    kwargs = {key: _build(SECTIONS[key], v) if key in SECTIONS else v for key, v in obj.items()}
    return _build(RunConfig, kwargs)
