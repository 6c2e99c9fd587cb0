"""Checkpoint directories: config JSON plus a flat little-endian float32 blob.

A checkpoint is a directory holding ``config.json`` (how to rebuild the
model), ``manifest.json`` (which system it is, and each tensor's name,
shape, dtype, and byte offset into the blob), and ``params.bin`` (the
tensors concatenated as little-endian 32-bit floats). Parameters are
float64 in memory; saving quantizes them and loading casts back. Every head
is two-class, so the config records no class count, and a tensor of any
other shape is refused. A model whose parameters are not all finite (a
diverged training run) is neither saved nor loaded. Both systems share one
save and one load path, driven by the per-system layout table ``_LAYOUTS``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping

import numpy as np

from .config import EncoderConfig
from .corpus import read_json, write_text
from .encode import PretrainedEncoder, ToyEncoder
from .errors import BadCheckpoint, CtrnliError, IoError
from .joint import JointModel
from .nn import EntailmentHead, EvidenceHead, in_unit_interval, is_count
from .pipeline import PipelineModel

_DTYPE = np.dtype("<f4")

CONFIG_FILE = "config.json"
MANIFEST_FILE = "manifest.json"
PARAMS_FILE = "params.bin"


def _write_blob(path: Path, named: Mapping[str, np.ndarray], system: str, config: dict) -> None:
    """Write the checkpoint; nothing is written when a tensor is not finite
    once quantized (a float64 beyond the float32 range becomes infinite)."""
    with np.errstate(over="ignore"):
        arrays = {name: np.ascontiguousarray(named[name], dtype=_DTYPE) for name in sorted(named)}
    for name, arr in arrays.items():
        bad = arr.size - np.count_nonzero(np.isfinite(arr))
        if bad:
            raise CtrnliError(
                f"parameter {name} has {bad} non-finite value(s) of {arr.size}: "
                "training diverged, no checkpoint written"
            )
    tensors = []
    chunks = []
    offset = 0
    for name, arr in arrays.items():
        tensors.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": "float32",
                "byte_offset": offset,
            }
        )
        chunks.append(arr.tobytes())
        offset += len(chunks[-1])
    manifest = {"system": system, "tensors": tensors}
    try:
        path.mkdir(parents=True, exist_ok=True)
        (path / PARAMS_FILE).write_bytes(b"".join(chunks))
    except OSError as exc:
        raise IoError(f"cannot write checkpoint to {path}: {exc}") from exc
    write_text(path / MANIFEST_FILE, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    write_text(path / CONFIG_FILE, json.dumps(config, sort_keys=True, indent=2) + "\n")


def read_checkpoint(path: str | Path) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Load (system, config, tensors) from a checkpoint directory.

    Every manifest inconsistency (missing files, bytes that are not UTF-8
    JSON, tensors that do not tile the blob in manifest order) raises
    :class:`BadCheckpoint`; a file that exists but cannot be read raises
    :class:`IoError`. Tensors come back as float64.
    """
    path = Path(path)
    try:
        manifest = read_json(path / MANIFEST_FILE, BadCheckpoint)
        config = read_json(path / CONFIG_FILE, BadCheckpoint)
        blob = (path / PARAMS_FILE).read_bytes()
    except FileNotFoundError as exc:
        raise BadCheckpoint(f"missing checkpoint file {exc.filename}") from None
    except OSError as exc:
        raise IoError(f"cannot read {path / PARAMS_FILE}: {exc}") from exc
    system = manifest.get("system") if isinstance(manifest, dict) else None
    if system not in ("pipeline", "joint"):
        raise BadCheckpoint(f"manifest names unknown system {system!r}")
    entries = manifest.get("tensors")
    if not isinstance(entries, list):
        raise BadCheckpoint("manifest has no tensor list")
    tensors: dict[str, np.ndarray] = {}
    end = 0  # each tensor starts where the one before it ends
    for entry in entries:
        try:
            name, shape, offset = entry["name"], tuple(entry["shape"]), entry["byte_offset"]
            dtype = entry["dtype"]
        except (KeyError, TypeError) as exc:
            raise BadCheckpoint(f"malformed tensor entry {entry!r}") from exc
        if dtype != "float32":
            raise BadCheckpoint(f"tensor {name}: unsupported dtype {dtype!r}")
        if not all(is_count(d, 0) for d in shape):
            raise BadCheckpoint(f"tensor {name}: shape {list(shape)} is not a list of sizes")
        n_bytes = math.prod(shape) * _DTYPE.itemsize
        if offset != end:
            raise BadCheckpoint(f"tensor {name}: byte_offset {offset}, expected {end}")
        if end + n_bytes > len(blob):
            raise BadCheckpoint(f"tensor {name}: offset {offset} outside the parameter blob")
        flat = np.frombuffer(blob, dtype=_DTYPE, count=n_bytes // _DTYPE.itemsize, offset=offset)
        with np.errstate(invalid="ignore"):  # a NaN is refused once the tensor is placed
            tensors[name] = flat.reshape(shape).astype(np.float64)
        end += n_bytes
    if end != len(blob):
        raise BadCheckpoint(
            f"parameter blob has {len(blob)} bytes but the manifest accounts for {end}"
        )
    return system, config, tensors


def _load_params_into(target: dict[str, np.ndarray], tensors: Mapping[str, np.ndarray], ns: str):
    """Fill ``target`` from the tensors named ``{ns}.*``, which must match it."""
    prefix = f"{ns}."
    loaded = {name[len(prefix) :]: arr for name, arr in tensors.items() if name.startswith(prefix)}
    if set(target) != set(loaded):
        raise BadCheckpoint(
            f"{ns} tensors {sorted(loaded)} do not match the model's {sorted(target)}"
        )
    for name, arr in loaded.items():
        if target[name].shape != arr.shape:
            raise BadCheckpoint(
                f"{ns}.{name}: shape {arr.shape} does not match expected {target[name].shape}"
            )
        if not np.isfinite(arr).all():
            raise BadCheckpoint(f"{ns}.{name}: holds non-finite values")
        target[name] = arr


def _encoder_config(encoder) -> dict:
    cfg = {"backend": encoder.backend}
    if encoder.backend == "toy":
        cfg.update(
            vocab_size=encoder.vocab_size, dim=encoder.dim, n_layers=encoder.n_layers
        )
    else:
        cfg.update(model_name=encoder.model_name, dim=encoder.dim)
    return cfg


def _rebuild_encoder(cfg: dict):
    """Sizes are not checked here: the tensors loaded later must fit them."""
    if cfg["backend"] == "pretrained":
        return PretrainedEncoder(cfg["model_name"])
    if cfg["backend"] != "toy":
        raise ValueError(f"unknown encoder backend {cfg['backend']!r}")
    return ToyEncoder(vocab_size=cfg["vocab_size"], dim=cfg["dim"], n_layers=cfg["n_layers"])


# Each part of a model: (model field, tensor namespace, None for an encoder,
# whose config is stored under its field name, or for a head its class and
# the field of the encoder whose dim sizes it).
_LAYOUTS = {
    "pipeline": (PipelineModel, (
        ("evidence_encoder", "evidence.encoder", None),
        ("evidence_head", "evidence.head", (EvidenceHead, "evidence_encoder")),
        ("entailment_encoder", "entailment.encoder", None),
        ("entailment_head", "entailment.head", (EntailmentHead, "entailment_encoder")),
    )),
    "joint": (JointModel, (
        ("encoder", "encoder", None),
        ("evidence_head", "evidence_head", (EvidenceHead, "encoder")),
        ("verdict_head", "verdict_head", (EntailmentHead, "encoder")),
    )),
}
_SETTINGS = ("max_len", "threshold", "pooling", "inject_arm_prefix")


def _settings(config: dict, system: str) -> dict:
    """The shared settings, checked with the rules a run config obeys."""
    encoder = EncoderConfig(max_len=config["max_len"], pooling=config["pooling"])
    threshold, inject = config["threshold"], config["inject_arm_prefix"]
    if not in_unit_interval(threshold):
        raise BadCheckpoint(f"threshold must be a finite number in [0, 1], got {threshold!r}")
    if not isinstance(inject, bool):
        raise BadCheckpoint(f"inject_arm_prefix must be true or false, got {inject!r}")
    return {
        "max_len": encoder.resolved_max_len(system),
        "threshold": float(threshold),
        "pooling": encoder.pooling,
        "inject_arm_prefix": inject,
    }


def _save(model, path: str | Path, system: str) -> None:
    named: dict[str, np.ndarray] = {}
    config = {key: getattr(model, key) for key in _SETTINGS}
    for field, ns, head in _LAYOUTS[system][1]:
        part = getattr(model, field)
        if head is None:
            config[field] = _encoder_config(part)
        params = part.params if head else part.parameters()
        for name, arr in params.items():
            named[f"{ns}.{name}"] = arr
    _write_blob(Path(path), named, system, config)


def save_pipeline_model(model: PipelineModel, path: str | Path) -> None:
    _save(model, path, "pipeline")


def save_joint_model(model: JointModel, path: str | Path) -> None:
    _save(model, path, "joint")


def load_any_model(path: str | Path):
    """Load whichever system the checkpoint holds.

    Returns ("pipeline", PipelineModel) or ("joint", JointModel); the
    checkpoint is read once. A pipeline's two toy encoders share one new
    tokenizer when their vocabulary sizes match: ids depend on nothing else.
    """
    system, config, tensors = read_checkpoint(path)
    model_cls, layout = _LAYOUTS[system]
    try:
        parts: dict = {}
        tokenizers: dict = {}  # vocab size -> toy tokenizer
        for field, ns, head in layout:
            if head is None:
                part = _rebuild_encoder(config[field])
                if part.backend == "toy":
                    part.tokenizer = tokenizers.setdefault(part.vocab_size, part.tokenizer)
            else:
                head_cls, encoder_field = head
                part = head_cls.create(parts[encoder_field].dim)
            if head or part.trainable:  # a frozen encoder stores no tensors
                _load_params_into(part.params, tensors, ns)
            parts[field] = part
        return system, model_cls(**parts, **_settings(config, system))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise BadCheckpoint(
            f"{Path(path) / CONFIG_FILE} does not describe a {system} model: "
            f"{type(exc).__name__}: {exc}"
        ) from None
