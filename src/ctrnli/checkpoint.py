"""Checkpoint directories: config JSON plus a flat little-endian float32 blob.

A checkpoint is a directory holding ``config.json`` (how to rebuild the
model), ``manifest.json`` (which system it is, and each tensor's name,
shape, dtype, and byte offset into the blob), and ``params.bin`` (the
tensors concatenated as little-endian 32-bit floats), the values a trained
or loaded model holds: float32 arrays in toy encoders, float64 in heads.
Every head is two-class, so the config records no class count, and a tensor
of any other shape is refused. A model whose parameters are not all finite
(a diverged training run) is neither saved nor loaded. Both systems share
one save and one load path, driven by the per-system layout table ``_LAYOUTS``.
"""

from __future__ import annotations

import json
import math
import reprlib
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .config import BACKEND_CHOICES, EncoderConfig, RunConfig
from .corpus import read_json, shown_path, write_text
from .encode import PretrainedEncoder, ToyEncoder
from .errors import BadCheckpoint, CtrnliError, IoError
from .joint import JointModel
from .nn import ClassifierHead, is_count
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
        raise IoError(f"cannot write checkpoint to {shown_path(path)}: {exc.strerror}") from exc
    write_text(path / MANIFEST_FILE, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    write_text(path / CONFIG_FILE, json.dumps(config, sort_keys=True, indent=2) + "\n")


def read_checkpoint(path: str | Path) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Load (system, config, tensors) from a checkpoint directory.

    Every manifest inconsistency (missing files, bytes that are not UTF-8
    JSON, a config that is not an object, a tensor named twice or off its
    place in the blob) raises :class:`BadCheckpoint`; a file that exists
    but cannot be read raises :class:`IoError`. Tensors are float32 views
    of the blob, read-only for good: the blob is immutable ``bytes``, so a
    write raises ``ValueError`` and no view can be made writable again.
    """
    path = Path(path)
    try:
        manifest = read_json(path / MANIFEST_FILE, BadCheckpoint)
        config = read_json(path / CONFIG_FILE, BadCheckpoint)
        blob = (path / PARAMS_FILE).read_bytes()  # immutable: no view of it can be written
    except FileNotFoundError as exc:
        raise BadCheckpoint(f"missing checkpoint file {shown_path(exc.filename)}") from None
    except OSError as exc:
        raise IoError(f"cannot read {shown_path(path / PARAMS_FILE)}: {exc.strerror}") from exc
    system = manifest.get("system") if isinstance(manifest, dict) else None
    if system not in ("pipeline", "joint"):
        raise BadCheckpoint(f"manifest names unknown system {reprlib.repr(system)}")
    if not isinstance(config, dict):
        raise BadCheckpoint(
            f"{shown_path(path / CONFIG_FILE)} holds {reprlib.repr(config)}, not an object"
        )
    entries = manifest.get("tensors")
    if not isinstance(entries, list):
        raise BadCheckpoint("manifest has no tensor list")
    layout: dict[str, tuple] = {}  # name -> (shape, first value, value count)
    end = 0  # each tensor starts where the one before it ends
    for entry in entries:
        try:
            name, shape, offset = entry["name"], tuple(entry["shape"]), entry["byte_offset"]
            dtype = entry["dtype"]
        except (KeyError, TypeError) as exc:
            raise BadCheckpoint(f"malformed tensor entry {reprlib.repr(entry)}") from exc
        if not isinstance(name, str):
            raise BadCheckpoint(f"malformed tensor entry {reprlib.repr(entry)}")
        if name in layout:
            raise BadCheckpoint(f"tensor {name}: named twice in the manifest")
        if dtype != "float32":
            raise BadCheckpoint(f"tensor {name}: unsupported dtype {reprlib.repr(dtype)}")
        if not all(is_count(d, 0) for d in shape):
            raise BadCheckpoint(
                f"tensor {name}: shape {reprlib.repr(list(shape))} is not a list of sizes"
            )
        n_bytes = math.prod(shape) * _DTYPE.itemsize
        if not is_count(offset, 0) or offset != end:
            raise BadCheckpoint(
                f"tensor {name}: byte_offset {reprlib.repr(offset)}, expected {end}"
            )
        if end + n_bytes > len(blob):
            raise BadCheckpoint(f"tensor {name}: offset {offset} outside the parameter blob")
        layout[name] = (shape, end // _DTYPE.itemsize, n_bytes // _DTYPE.itemsize)
        end += n_bytes
    if end != len(blob):
        raise BadCheckpoint(
            f"parameter blob has {len(blob)} bytes but the manifest accounts for {end}"
        )
    values = np.frombuffer(blob, dtype=_DTYPE)
    tensors = {name: values[a : a + n].reshape(shape) for name, (shape, a, n) in layout.items()}
    return system, config, tensors


def _load_params(shapes: dict, tensors: Mapping[str, np.ndarray], ns: str, dtype) -> dict:
    """The tensors named ``{ns}.*`` (just these names and ``shapes``, all finite) as
    ``dtype``, each read-only for good: a tensor converted to ``dtype`` is made
    a view of immutable bytes too."""
    prefix = f"{ns}."
    loaded = {name[len(prefix) :]: arr for name, arr in tensors.items() if name.startswith(prefix)}
    if set(shapes) != set(loaded):
        raise BadCheckpoint(
            f"{ns} tensors {sorted(loaded)} do not match the model's {sorted(shapes)}"
        )
    for name, arr in loaded.items():
        if shapes[name] != arr.shape:
            raise BadCheckpoint(
                f"{ns}.{name}: shape {arr.shape} does not match expected "
                f"{reprlib.repr(shapes[name])}"
            )
        if not np.isfinite(arr).all():
            raise BadCheckpoint(f"{ns}.{name}: holds non-finite values")
    return {
        name: arr if arr.dtype == dtype
        else np.frombuffer(arr.astype(dtype).tobytes(), dtype).reshape(arr.shape)
        for name, arr in loaded.items()
    }


# The keys of an encoder's config entry, by backend: each an encoder attribute.
_ENCODER_KEYS = {
    "toy": ("backend", "vocab_size", "dim", "n_layers"),
    "pretrained": ("backend", "model_name", "dim"),
}


def _known_keys(cfg: dict, allowed, where: str) -> None:
    """Refuse the first key of ``cfg``, in sorted order, that ``allowed`` does not hold."""
    unknown = sorted(cfg.keys() - set(allowed))
    if unknown:
        raise BadCheckpoint(f"{where} has unknown key {reprlib.repr(unknown[0])}")


def _rebuild_encoder(cfg: dict, field: str, tensors: Mapping[str, np.ndarray], ns: str,
                     shared: dict):
    """The encoder ``cfg`` (config entry ``field``) describes, at its stored tensors, which
    a toy encoder's sizes are checked against first; a toy encoder keeps the read-only views,
    so it builds its layer-0 table here. ``shared`` maps a vocabulary size to its encoders'
    tokenizer."""
    if not isinstance(cfg, dict):
        raise BadCheckpoint(f"{CONFIG_FILE} entry {field} is {reprlib.repr(cfg)}, not an object")
    if cfg["backend"] not in BACKEND_CHOICES:
        raise ValueError(f"unknown encoder backend {reprlib.repr(cfg['backend'])}")
    _known_keys(cfg, _ENCODER_KEYS[cfg["backend"]], f"{CONFIG_FILE} entry {field}")
    if cfg["backend"] == "pretrained":
        return PretrainedEncoder(cfg["model_name"])
    vocab_size, dim, n_layers = cfg["vocab_size"], cfg["dim"], cfg["n_layers"]
    EncoderConfig(vocab_size=vocab_size, dim=dim, n_layers=n_layers)  # sizes are counts
    stored = sum(name.startswith(f"{ns}.") for name in tensors)
    if 2 * n_layers + 1 != stored:  # one embedding, then a W and a b per layer
        raise BadCheckpoint(
            f"{ns}: n_layers {reprlib.repr(n_layers)} does not fit its {stored} tensors"
        )
    shapes = ToyEncoder.param_shapes(vocab_size, dim, n_layers)
    params = _load_params(shapes, tensors, ns, np.float32)
    encoder = ToyEncoder(vocab_size, dim, n_layers, params=params)
    encoder.tokenizer = shared.setdefault(vocab_size, encoder.tokenizer)
    return encoder


# Each part of a model: (model field, tensor namespace, None for an encoder,
# whose config is stored under its field name, or for a head the field of
# the encoder whose dim sizes it).
_LAYOUTS = {
    "pipeline": (PipelineModel, (
        ("evidence_encoder", "evidence.encoder", None),
        ("evidence_head", "evidence.head", "evidence_encoder"),
        ("entailment_encoder", "entailment.encoder", None),
        ("entailment_head", "entailment.head", "entailment_encoder"),
    )),
    "joint": (JointModel, (
        ("encoder", "encoder", None),
        ("evidence_head", "evidence_head", "encoder"),
        ("verdict_head", "verdict_head", "encoder"),
    )),
}
_SETTINGS = ("max_len", "threshold", "pooling", "inject_arm_prefix")
_LEGACY_KEYS = ("n_classes",)  # written by older versions, whose heads were two-class too


def _settings(config: dict, system: str) -> dict:
    """The shared settings, checked by the run config they would make."""
    threshold, inject = config["threshold"], config["inject_arm_prefix"]
    try:
        encoder = EncoderConfig(max_len=config["max_len"], pooling=config["pooling"])
        RunConfig(encoder=encoder, threshold=threshold, inject_arm_prefix=inject)
    except ValueError as exc:
        raise BadCheckpoint(str(exc)) from None
    return {
        "max_len": encoder.resolved_max_len(system),
        "threshold": float(threshold),
        "pooling": encoder.pooling,
        "inject_arm_prefix": inject,
    }


def _save(model, path: str | Path, system: str) -> None:
    named: dict[str, np.ndarray] = {}
    config = {key: getattr(model, key) for key in _SETTINGS}
    for field, ns, sized_by in _LAYOUTS[system][1]:
        part = getattr(model, field)
        if sized_by is None:
            config[field] = {key: getattr(part, key) for key in _ENCODER_KEYS[part.backend]}
        for name, arr in part.params.items():
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
    Every encoder and head holds its tensors read-only for good in a
    read-only mapping, so the model memoizes its predictions.
    """
    system, config, tensors = read_checkpoint(path)
    model_cls, layout = _LAYOUTS[system]
    try:
        encoders = [field for field, _, sized_by in layout if sized_by is None]
        _known_keys(config, (*_SETTINGS, *encoders, *_LEGACY_KEYS), CONFIG_FILE)
        parts: dict = {}
        tokenizers: dict = {}  # vocab size -> toy tokenizer
        for field, ns, sized_by in layout:
            if sized_by is None:
                part = _rebuild_encoder(config[field], field, tensors, ns, tokenizers)
            else:
                shapes = ClassifierHead.param_shapes(parts[sized_by].dim)
                params = _load_params(shapes, tensors, ns, np.float64)
                part = ClassifierHead(params=MappingProxyType(params))
            parts[field] = part
        return system, model_cls(**parts, **_settings(config, system))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise BadCheckpoint(
            f"{shown_path(Path(path) / CONFIG_FILE)} does not describe a {system} model: "
            f"{type(exc).__name__}: {exc}"
        ) from None
