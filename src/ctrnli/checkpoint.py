"""Checkpoint directories: config JSON plus a flat little-endian float32 blob.

A checkpoint is a directory holding ``config.json`` (how to rebuild the
model), ``manifest.json`` (which system it is, and each tensor's name,
shape, dtype, and byte offset into the blob), and ``params.bin`` (the
tensors concatenated as little-endian 32-bit floats). Parameters are
float64 in memory; saving quantizes them and loading casts back. Every head
is two-class, so the config records no class count, and a tensor of any
other shape is refused. A model whose parameters are not all finite (a
diverged training run) is neither saved nor loaded.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

import numpy as np

from .encode import ToyEncoder, create_encoder
from .errors import BadCheckpoint, IoError, NonFiniteParameters
from .joint import JointModel
from .nn import EntailmentHead, EvidenceHead, in_unit_interval
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
            raise NonFiniteParameters(
                f"parameter {name} has {bad} non-finite value(s) of {arr.size}: "
                "training diverged, no checkpoint written"
            )
    path.mkdir(parents=True, exist_ok=True)
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
        (path / PARAMS_FILE).write_bytes(b"".join(chunks))
        (path / MANIFEST_FILE).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        (path / CONFIG_FILE).write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write checkpoint to {path}: {exc}") from exc


def _read_json(path: Path) -> dict:
    if not path.is_file():
        raise BadCheckpoint(f"missing checkpoint file {path}")
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BadCheckpoint(f"unreadable checkpoint file {path}: {exc}") from exc


def read_checkpoint(path: str | Path) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Load (system, config, tensors) from a checkpoint directory.

    Every manifest inconsistency (missing files, bad offsets, blob size
    mismatch) raises :class:`BadCheckpoint`. Tensors come back as float64.
    """
    path = Path(path)
    if not path.is_dir():
        raise BadCheckpoint(f"{path} is not a checkpoint directory")
    manifest = _read_json(path / MANIFEST_FILE)
    config = _read_json(path / CONFIG_FILE)
    system = manifest.get("system")
    if system not in ("pipeline", "joint"):
        raise BadCheckpoint(f"manifest names unknown system {system!r}")
    entries = manifest.get("tensors")
    if not isinstance(entries, list):
        raise BadCheckpoint("manifest has no tensor list")
    try:
        blob = (path / PARAMS_FILE).read_bytes()
    except OSError as exc:
        raise BadCheckpoint(f"cannot read {PARAMS_FILE}: {exc}") from exc
    tensors: dict[str, np.ndarray] = {}
    expected_end = 0
    for entry in entries:
        try:
            name, shape, offset = entry["name"], tuple(entry["shape"]), entry["byte_offset"]
            dtype = entry["dtype"]
        except (KeyError, TypeError) as exc:
            raise BadCheckpoint(f"malformed tensor entry {entry!r}") from exc
        if dtype != "float32":
            raise BadCheckpoint(f"tensor {name}: unsupported dtype {dtype!r}")
        n_bytes = int(np.prod(shape, dtype=np.int64)) * _DTYPE.itemsize
        if offset < 0 or offset + n_bytes > len(blob):
            raise BadCheckpoint(f"tensor {name}: offset {offset} outside the parameter blob")
        flat = np.frombuffer(blob, dtype=_DTYPE, count=n_bytes // _DTYPE.itemsize, offset=offset)
        tensors[name] = flat.reshape(shape).astype(np.float64)
        expected_end = max(expected_end, offset + n_bytes)
    if expected_end != len(blob):
        raise BadCheckpoint(
            f"parameter blob has {len(blob)} bytes but the manifest accounts for {expected_end}"
        )
    return system, config, tensors


def _split_namespace(
    tensors: Mapping[str, np.ndarray], prefix: str
) -> dict[str, np.ndarray]:
    sub = {
        name[len(prefix) :]: arr for name, arr in tensors.items() if name.startswith(prefix)
    }
    if not sub:
        raise BadCheckpoint(f"checkpoint holds no tensors under {prefix!r}")
    return sub


def _load_params_into(target: dict[str, np.ndarray], loaded: Mapping[str, np.ndarray], ns: str):
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
    if cfg.get("backend") != "toy":
        return create_encoder(
            backend=cfg.get("backend", "pretrained"), model_name=cfg.get("model_name")
        )
    return ToyEncoder(
        vocab_size=int(cfg["vocab_size"]),
        dim=int(cfg["dim"]),
        n_layers=int(cfg["n_layers"]),
        seed=0,
    )


def _threshold(config: dict) -> float:
    value = config.get("threshold")
    if not in_unit_interval(value):
        raise BadCheckpoint(f"threshold must be a finite number in [0, 1], got {value!r}")
    return float(value)


def save_pipeline_model(model: PipelineModel, path: str | Path) -> None:
    named: dict[str, np.ndarray] = {}
    for ns, encoder, head in (
        ("evidence", model.evidence_encoder, model.evidence_head),
        ("entailment", model.entailment_encoder, model.entailment_head),
    ):
        for name, arr in encoder.parameters().items():
            named[f"{ns}.encoder.{name}"] = arr
        for name, arr in head.params.items():
            named[f"{ns}.head.{name}"] = arr
    config = {
        "max_len": model.max_len,
        "threshold": model.threshold,
        "pooling": model.pooling,
        "inject_arm_prefix": model.inject_arm_prefix,
        "evidence_encoder": _encoder_config(model.evidence_encoder),
        "entailment_encoder": _encoder_config(model.entailment_encoder),
    }
    _write_blob(Path(path), named, "pipeline", config)


def load_pipeline_model(path: str | Path) -> PipelineModel:
    system, config, tensors = read_checkpoint(path)
    if system != "pipeline":
        raise BadCheckpoint(f"expected a pipeline checkpoint, found {system!r}")
    return _pipeline_from(config, tensors)


def _pipeline_from(config: dict, tensors: Mapping[str, np.ndarray]) -> PipelineModel:
    ev_encoder = _rebuild_encoder(config["evidence_encoder"])
    ent_encoder = _rebuild_encoder(config["entailment_encoder"])
    ev_head = EvidenceHead.create(ev_encoder.dim)
    ent_head = EntailmentHead.create(ent_encoder.dim)
    if ev_encoder.trainable:
        _load_params_into(
            ev_encoder.params, _split_namespace(tensors, "evidence.encoder."), "evidence.encoder"
        )
    if ent_encoder.trainable:
        _load_params_into(
            ent_encoder.params,
            _split_namespace(tensors, "entailment.encoder."),
            "entailment.encoder",
        )
    _load_params_into(ev_head.params, _split_namespace(tensors, "evidence.head."), "evidence.head")
    _load_params_into(
        ent_head.params, _split_namespace(tensors, "entailment.head."), "entailment.head"
    )
    return PipelineModel(
        evidence_encoder=ev_encoder,
        evidence_head=ev_head,
        entailment_encoder=ent_encoder,
        entailment_head=ent_head,
        max_len=int(config["max_len"]),
        threshold=_threshold(config),
        pooling=str(config["pooling"]),
        inject_arm_prefix=bool(config["inject_arm_prefix"]),
    )


def save_joint_model(model: JointModel, path: str | Path) -> None:
    named: dict[str, np.ndarray] = {}
    for name, arr in model.encoder.parameters().items():
        named[f"encoder.{name}"] = arr
    for name, arr in model.evidence_head.params.items():
        named[f"evidence_head.{name}"] = arr
    for name, arr in model.verdict_head.params.items():
        named[f"verdict_head.{name}"] = arr
    config = {
        "max_len": model.max_len,
        "threshold": model.threshold,
        "pooling": model.pooling,
        "inject_arm_prefix": model.inject_arm_prefix,
        "encoder": _encoder_config(model.encoder),
    }
    _write_blob(Path(path), named, "joint", config)


def load_joint_model(path: str | Path) -> JointModel:
    system, config, tensors = read_checkpoint(path)
    if system != "joint":
        raise BadCheckpoint(f"expected a joint checkpoint, found {system!r}")
    return _joint_from(config, tensors)


def _joint_from(config: dict, tensors: Mapping[str, np.ndarray]) -> JointModel:
    encoder = _rebuild_encoder(config["encoder"])
    ev_head = EvidenceHead.create(encoder.dim)
    v_head = EntailmentHead.create(encoder.dim)
    if encoder.trainable:
        _load_params_into(encoder.params, _split_namespace(tensors, "encoder."), "encoder")
    _load_params_into(
        ev_head.params, _split_namespace(tensors, "evidence_head."), "evidence_head"
    )
    _load_params_into(v_head.params, _split_namespace(tensors, "verdict_head."), "verdict_head")
    return JointModel(
        encoder=encoder,
        evidence_head=ev_head,
        verdict_head=v_head,
        max_len=int(config["max_len"]),
        threshold=_threshold(config),
        pooling=str(config["pooling"]),
        inject_arm_prefix=bool(config["inject_arm_prefix"]),
    )


def load_any_model(path: str | Path):
    """Load whichever system the checkpoint holds.

    Returns ("pipeline", PipelineModel) or ("joint", JointModel); the
    checkpoint is read once.
    """
    system, config, tensors = read_checkpoint(path)
    build = _pipeline_from if system == "pipeline" else _joint_from
    return system, build(config, tensors)
