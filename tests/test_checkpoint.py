"""Checkpoint directories: save/load round-trips and corruption handling."""

import dataclasses
import json
import reprlib
import warnings

import numpy as np
import pytest

from conftest import OVERFIT_POOLING, overfit_hyperparams

from ctrnli import checkpoint, encode
from ctrnli.checkpoint import load_any_model, read_checkpoint, save_joint_model, save_pipeline_model
from ctrnli.corpus import shown_path
from ctrnli.encode import ToyEncoder
from ctrnli.ensemble import save_predictions
from ctrnli.errors import BadCheckpoint, CtrnliError
from ctrnli.joint import JointModel, predict_joint, train_joint
from ctrnli.nn import ClassifierHead, to_stored_precision
from ctrnli.pipeline import (
    PipelineModel,
    TrainResult,
    entailment_training_items,
    predict_pipeline,
)


@pytest.fixture()
def pipeline_ckpt(tmp_path, pipeline_model):
    path = tmp_path / "pipeline-ckpt"
    save_pipeline_model(pipeline_model, path)
    return path


@pytest.fixture()
def joint_ckpt(tmp_path, joint_model):
    path = tmp_path / "joint-ckpt"
    save_joint_model(joint_model, path)
    return path


def _assert_predict_the_same_bytes(tmp_path, corpus, claims, predict, model, loaded):
    assert len(claims) == 20
    for name, which in (("memory", model), ("reloaded", loaded)):
        save_predictions([predict(claim, corpus, which) for claim in claims], tmp_path / name)
    assert (tmp_path / "memory").read_bytes() == (tmp_path / "reloaded").read_bytes()


@pytest.mark.parametrize("vocab_sizes", [(64, 64), (64, 96)], ids=["same-vocab", "other-vocab"])
def test_reloaded_pipeline_shares_a_tokenizer_per_model(tmp_path, corpus, claims, vocab_sizes):
    """A reloaded pipeline's toy encoders share one tokenizer exactly when
    their vocabulary sizes match; every load starts its own, empty; and the
    predictions are byte-identical to those of the in-memory model, cast as
    training casts it to the values the checkpoint stores."""
    model = PipelineModel(
        ToyEncoder(vocab_sizes[0], 8, seed=1), ClassifierHead.create(8, seed=2),
        ToyEncoder(vocab_sizes[1], 8, seed=3), ClassifierHead.create(8, seed=4),
    )
    to_stored_precision(model.evidence_encoder, model.evidence_head)
    to_stored_precision(model.entailment_encoder, model.entailment_head)
    save_pipeline_model(model, tmp_path / "ckpt")
    loaded, again = (load_any_model(tmp_path / "ckpt")[1] for _ in range(2))
    shared = loaded.evidence_encoder.tokenizer is loaded.entailment_encoder.tokenizer
    assert shared == (vocab_sizes[0] == vocab_sizes[1])
    assert loaded.evidence_encoder.tokenizer._texts == {}
    assert again.evidence_encoder.tokenizer is not loaded.evidence_encoder.tokenizer
    _assert_predict_the_same_bytes(tmp_path, corpus, claims, predict_pipeline, model, loaded)


class TestRoundTrip:
    """A model fresh from training (the fixture recipe, through the library)
    already holds the values its checkpoint stores: its prediction file and
    that of its reload are byte-identical, with no rounding step between."""

    def test_pipeline_predictions_survive(self, tmp_path, corpus, claims, pipeline_model,
                                          pipeline_ckpt):
        loaded = load_any_model(pipeline_ckpt)[1]
        assert loaded.pooling == pipeline_model.pooling
        assert loaded.threshold == pipeline_model.threshold
        _assert_predict_the_same_bytes(
            tmp_path, corpus, claims, predict_pipeline, pipeline_model, loaded
        )

    def test_joint_predictions_survive(self, tmp_path, corpus, claims, joint_model, joint_ckpt):
        loaded = load_any_model(joint_ckpt)[1]
        _assert_predict_the_same_bytes(tmp_path, corpus, claims, predict_joint, joint_model, loaded)

    def test_joint_predictions_survive_at_a_width_off_16(self, tmp_path, corpus, claims):
        """At ``dim`` 33 gemm rounds a row by the product's row count unless
        ``_affine`` pads its weight, and a reload gathers layer 0 from a
        table computed over the whole vocabulary."""
        result = train_joint(claims, corpus, overfit_hyperparams(20), pooling=OVERFIT_POOLING,
                             encoder_factory=lambda seed: ToyEncoder(dim=33, seed=seed))
        save_joint_model(result.model, tmp_path / "ckpt")
        loaded = load_any_model(tmp_path / "ckpt")[1]
        assert loaded.encoder.dim == 33
        _assert_predict_the_same_bytes(tmp_path, corpus, claims, predict_joint, result.model, loaded)

    def test_parameters_are_quantized_exactly(self, pipeline_model, pipeline_ckpt, joint_model,
                                              joint_ckpt):
        """A trained model holds the arrays of its reload, dtypes included:
        float32 in toy encoders, which encode to float32 rows, and float64 in
        heads. A seeded encoder stays float64."""
        seeded = ToyEncoder(64, 8, seed=1)
        assert {arr.dtype for arr in seeded.params.values()} == {np.dtype(np.float64)}
        assert seeded.encode([3, 4, 5]).dtype == np.float64
        for model, path, n_parts in ((pipeline_model, pipeline_ckpt, 4),
                                     (joint_model, joint_ckpt, 3)):
            loaded = load_any_model(path)[1]
            parts = {field: part for field, part in vars(model).items() if hasattr(part, "params")}
            assert len(parts) == n_parts
            for field, part in parts.items():
                toy = isinstance(part, ToyEncoder)
                if toy:
                    assert part.encode([3, 4, 5]).dtype == np.float32
                reloaded = getattr(loaded, field).params
                assert part.params.keys() == reloaded.keys()
                for name, arr in part.params.items():
                    assert arr.dtype == reloaded[name].dtype == (np.float32 if toy else np.float64)
                    np.testing.assert_array_equal(arr, reloaded[name])

    def test_save_is_byte_deterministic(self, tmp_path, joint_model):
        a, b = tmp_path / "a", tmp_path / "b"
        save_joint_model(joint_model, a)
        save_joint_model(joint_model, b)
        for fname in ("params.bin", "manifest.json", "config.json"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes()

    @pytest.mark.parametrize("system", ["pipeline", "joint"])
    def test_resave_after_load_is_byte_identical(self, request, tmp_path, system):
        """Every part and setting the layout table writes is read back, under
        the tensor namespaces and config keys of the on-disk format. The
        settings differ from the defaults so that a dropped one shows."""
        settings = {"max_len": 77, "threshold": 0.375, "pooling": "max", "inject_arm_prefix": True}
        model = dataclasses.replace(request.getfixturevalue(f"{system}_model"), **settings)
        save = save_pipeline_model if system == "pipeline" else save_joint_model
        save(model, tmp_path / "first")
        manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
        namespaces = {t["name"].rsplit(".", 1)[0] for t in manifest["tensors"]}
        config = json.loads((tmp_path / "first" / "config.json").read_text())
        if system == "pipeline":
            assert namespaces == {
                "evidence.encoder", "evidence.head", "entailment.encoder", "entailment.head"
            }
            assert set(config) == set(settings) | {"evidence_encoder", "entailment_encoder"}
        else:
            assert namespaces == {"encoder", "evidence_head", "verdict_head"}
            assert set(config) == set(settings) | {"encoder"}
        found, loaded = load_any_model(tmp_path / "first")
        assert found == system
        assert {key: getattr(loaded, key) for key in settings} == settings
        save(loaded, tmp_path / "again")
        for fname in ("config.json", "manifest.json", "params.bin"):
            first = (tmp_path / "first" / fname).read_bytes()
            assert first == (tmp_path / "again" / fname).read_bytes(), fname

    def test_load_any_model(self, pipeline_ckpt, joint_ckpt):
        system, model = load_any_model(pipeline_ckpt)
        assert system == "pipeline" and model.evidence_head is not None
        system, model = load_any_model(joint_ckpt)
        assert system == "joint" and model.verdict_head is not None


def test_predicted_evidence_items_survive_the_reload(corpus, claims, pipeline_model,
                                                     pipeline_ckpt):
    """Entailment training on predicted evidence sees the same sequences from
    a trained evidence model as from its reload."""
    loaded = load_any_model(pipeline_ckpt)[1]
    items = [
        entailment_training_items(
            claims, corpus, model.entailment_encoder.tokenizer, 512,
            TrainResult(model.evidence_encoder, model.evidence_head), threshold=0.5,
            pooling=model.pooling,
        )
        for model in (pipeline_model, loaded)
    ]
    assert items[0] == items[1]


def test_loaded_tensors_are_read_only(pipeline_ckpt, joint_ckpt):
    """A checkpoint's tensors are views of immutable bytes: no write reaches
    them, none can be made writable again, and a loaded toy encoder swaps
    none, so its layer-0 table never disagrees with its parameters. Every
    head of either loaded system holds float64 tensors that are read-only
    for good in a mapping that swaps none too, so no loaded model's memoized
    prediction can go stale under a write."""
    _, _, tensors = read_checkpoint(joint_ckpt)
    assert not any(arr.flags.writeable for arr in tensors.values())
    with pytest.raises(ValueError):
        tensors["encoder.emb"].flags.writeable = True
    encoder = load_any_model(joint_ckpt)[1].encoder
    assert not any(arr.flags.writeable for arr in encoder.params.values())
    with pytest.raises(ValueError):
        encoder.params["W0"][0, 0] = 1.0
    with pytest.raises(TypeError):
        encoder.params["W0"] = np.zeros_like(encoder.params["W0"])
    for ckpt in (pipeline_ckpt, joint_ckpt):
        model = load_any_model(ckpt)[1]
        heads = [value for value in vars(model).values() if isinstance(value, ClassifierHead)]
        assert len(heads) == 2
        for head in heads:
            assert set(head.params) == {"W1", "b1", "W2", "b2"}
            for name, arr in head.params.items():
                assert arr.dtype == np.float64 and not arr.flags.writeable, name
                with pytest.raises(ValueError):
                    arr.flat[0] = 1.0
                with pytest.raises(ValueError):
                    arr.flags.writeable = True
                with pytest.raises(TypeError):
                    head.params[name] = np.zeros_like(arr)


@pytest.mark.parametrize("system", ["pipeline", "joint"])
def test_loaded_encoder_builds_its_layer0_table_at_load(monkeypatch, tmp_path, corpus, claims,
                                                        system):
    """From the first prediction on, every forward of a loaded toy encoder
    runs the affines of layers 1 and up only: layer 0 was applied to the
    whole vocabulary when the checkpoint was loaded."""
    n_layers = 3
    encoders = [ToyEncoder(64, 8, n_layers, seed=seed) for seed in (1, 3)]
    if system == "pipeline":
        model = PipelineModel(encoders[0], ClassifierHead.create(8, seed=2),
                              encoders[1], ClassifierHead.create(8, seed=4))
        save_pipeline_model(model, tmp_path / "ckpt")
    else:
        model = JointModel(encoders[0], ClassifierHead.create(8, seed=2),
                           ClassifierHead.create(8, seed=4))
        save_joint_model(model, tmp_path / "ckpt")
    loaded = load_any_model(tmp_path / "ckpt")[1]
    counts = {"affine": 0, "forward": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(encode, "_affine", counting("affine", encode._affine))
    monkeypatch.setattr(ToyEncoder, "_forward", counting("forward", ToyEncoder._forward))
    (predict_pipeline if system == "pipeline" else predict_joint)(claims[0], corpus, loaded)
    assert counts["forward"] == (2 if system == "pipeline" else 1)
    assert counts["affine"] == counts["forward"] * (n_layers - 1)


def _edit_manifest(path, mutate):
    manifest = json.loads((path / "manifest.json").read_text())
    mutate(manifest)
    (path / "manifest.json").write_text(json.dumps(manifest))


class TestCorruption:
    def test_not_a_directory(self, tmp_path):
        with pytest.raises(BadCheckpoint):
            read_checkpoint(tmp_path / "missing")

    def test_missing_manifest(self, joint_ckpt):
        (joint_ckpt / "manifest.json").unlink()
        with pytest.raises(BadCheckpoint):
            read_checkpoint(joint_ckpt)

    def test_missing_config(self, joint_ckpt):
        (joint_ckpt / "config.json").unlink()
        with pytest.raises(BadCheckpoint):
            read_checkpoint(joint_ckpt)

    def test_manifest_not_json(self, joint_ckpt):
        (joint_ckpt / "manifest.json").write_text("{broken")
        with pytest.raises(BadCheckpoint):
            read_checkpoint(joint_ckpt)

    def test_manifest_not_an_object(self, joint_ckpt):
        (joint_ckpt / "manifest.json").write_text("[]")
        with pytest.raises(BadCheckpoint, match="unknown system None"):
            read_checkpoint(joint_ckpt)

    @pytest.mark.parametrize("tensors", [None, {}], ids=["missing", "object"])
    def test_manifest_without_tensor_list(self, joint_ckpt, tensors):
        def replace(m):
            m.pop("tensors")
            if tensors is not None:
                m["tensors"] = tensors

        _edit_manifest(joint_ckpt, replace)
        with pytest.raises(BadCheckpoint, match="manifest has no tensor list"):
            read_checkpoint(joint_ckpt)

    def test_unknown_system(self, joint_ckpt):
        _edit_manifest(joint_ckpt, lambda m: m.update(system="hybrid"))
        with pytest.raises(BadCheckpoint):
            read_checkpoint(joint_ckpt)

    def test_unsupported_dtype(self, joint_ckpt):
        _edit_manifest(joint_ckpt, lambda m: m["tensors"][0].update(dtype="float16"))
        with pytest.raises(BadCheckpoint):
            read_checkpoint(joint_ckpt)

    def test_truncated_blob(self, joint_ckpt):
        blob = (joint_ckpt / "params.bin").read_bytes()
        (joint_ckpt / "params.bin").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(BadCheckpoint):
            read_checkpoint(joint_ckpt)

    def test_oversized_blob(self, joint_ckpt):
        blob = (joint_ckpt / "params.bin").read_bytes()
        (joint_ckpt / "params.bin").write_bytes(blob + b"\x00\x00\x00\x00")
        with pytest.raises(BadCheckpoint):
            read_checkpoint(joint_ckpt)

    def test_negative_offset(self, joint_ckpt):
        _edit_manifest(joint_ckpt, lambda m: m["tensors"][0].update(byte_offset=-4))
        with pytest.raises(BadCheckpoint):
            read_checkpoint(joint_ckpt)

    @pytest.mark.parametrize("offset", [False, -0.0, 0.0], ids=repr)
    def test_offset_must_be_an_integer(self, joint_ckpt, offset):
        """A first offset that merely equals 0 (a bool or a float) is refused,
        as a shape entry that is not an integer is."""
        _edit_manifest(joint_ckpt, lambda m: m["tensors"][0].update(byte_offset=offset))
        name = json.loads((joint_ckpt / "manifest.json").read_text())["tensors"][0]["name"]
        with pytest.raises(BadCheckpoint, match=f"tensor {name}: byte_offset {offset!r}, expected 0"):
            read_checkpoint(joint_ckpt)

    @pytest.mark.parametrize(
        "name, shift", [("encoder.W0", 4), ("encoder.W1", -4), ("encoder.W1", 4)]
    )
    def test_tensors_must_tile_the_blob(self, joint_ckpt, name, shift):
        """An offset off the previous tensor's end is refused even when every
        tensor still lies inside the blob: an overlap would load shifted weights."""
        def move(m):
            next(t for t in m["tensors"] if t["name"] == name)["byte_offset"] += shift

        _edit_manifest(joint_ckpt, move)
        with pytest.raises(BadCheckpoint, match=f"tensor {name}: byte_offset"):
            read_checkpoint(joint_ckpt)

    def test_tensor_named_twice(self, joint_ckpt):
        """A second entry of a name, its values in bytes of their own at the
        end of the blob, would replace the first one's values."""
        manifest = json.loads((joint_ckpt / "manifest.json").read_text())
        blob = (joint_ckpt / "params.bin").read_bytes()
        first = next(t for t in manifest["tensors"] if t["name"] == "encoder.W0")
        count = int(np.prod(first["shape"]))
        values = np.frombuffer(blob, "<f4", count, first["byte_offset"]) * 2
        manifest["tensors"].append(dict(first, byte_offset=len(blob)))
        (joint_ckpt / "params.bin").write_bytes(blob + values.astype("<f4").tobytes())
        (joint_ckpt / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadCheckpoint, match="tensor encoder.W0: named twice"):
            read_checkpoint(joint_ckpt)

    def test_tensor_name_not_a_string(self, joint_ckpt):
        _edit_manifest(joint_ckpt, lambda m: m["tensors"][0].update(name=["encoder.W0"]))
        with pytest.raises(BadCheckpoint, match="malformed tensor entry"):
            read_checkpoint(joint_ckpt)

    @pytest.mark.parametrize(
        "shape", [[-1, 32], [32, 2.0], "ab"], ids=["negative", "float", "string"]
    )
    def test_shape_must_be_a_list_of_sizes(self, joint_ckpt, shape):
        def reshape(m):
            next(t for t in m["tensors"] if t["name"] == "verdict_head.W2")["shape"] = shape

        _edit_manifest(joint_ckpt, reshape)
        with pytest.raises(BadCheckpoint, match="verdict_head.W2: shape"):
            read_checkpoint(joint_ckpt)

    def test_malformed_tensor_entry(self, joint_ckpt):
        def drop_shape(m):
            del m["tensors"][0]["shape"]

        _edit_manifest(joint_ckpt, drop_shape)
        with pytest.raises(BadCheckpoint):
            read_checkpoint(joint_ckpt)

    def test_renamed_tensor_rejected_on_load(self, joint_ckpt):
        def rename(m):
            entry = next(t for t in m["tensors"] if t["name"] == "verdict_head.W1")
            entry["name"] = "verdict_head.W9"

        _edit_manifest(joint_ckpt, rename)
        with pytest.raises(BadCheckpoint):
            load_any_model(joint_ckpt)

    def test_wrong_shape_rejected_on_load(self, joint_ckpt):
        # shrink a middle tensor: the blob still parses, the shape cannot
        def reshape(m):
            entry = next(t for t in m["tensors"] if t["name"] == "verdict_head.W1")
            entry["shape"] = [entry["shape"][0], entry["shape"][1] - 1]

        _edit_manifest(joint_ckpt, reshape)
        with pytest.raises(BadCheckpoint):
            load_any_model(joint_ckpt)

    def test_missing_namespace_rejected_on_load(self, joint_ckpt):
        def strip_verdict(m):
            m["tensors"] = [t for t in m["tensors"] if not t["name"].startswith("verdict")]

        _edit_manifest(joint_ckpt, strip_verdict)
        with pytest.raises(BadCheckpoint):
            load_any_model(joint_ckpt)

    @pytest.mark.parametrize("value", [[], "x", None], ids=["list", "string", "null"])
    def test_config_not_an_object(self, joint_ckpt, value):
        """Refused beside the manifest checks, naming the file and the value."""
        (joint_ckpt / "config.json").write_text(json.dumps(value))
        shown = shown_path(joint_ckpt / "config.json")
        expected = f"{shown} holds {reprlib.repr(value)}, not an object"
        with pytest.raises(BadCheckpoint) as info:
            read_checkpoint(joint_ckpt)
        assert str(info.value) == expected

    @pytest.mark.parametrize(
        "system,field",
        [("pipeline", "evidence_encoder"), ("pipeline", "entailment_encoder"), ("joint", "encoder")],
    )
    @pytest.mark.parametrize("value", [None, [], "x", 3], ids=["null", "list", "string", "number"])
    def test_encoder_entry_not_an_object(self, request, system, field, value):
        ckpt = request.getfixturevalue(f"{system}_ckpt")
        config = json.loads((ckpt / "config.json").read_text())
        config[field] = value
        (ckpt / "config.json").write_text(json.dumps(config))
        with pytest.raises(BadCheckpoint) as info:
            load_any_model(ckpt)
        expected = f"config.json entry {field} is {reprlib.repr(value)}, not an object"
        assert str(info.value) == expected


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39], ids=["nan", "inf", "overflow"])
    def test_save_refuses_and_writes_nothing(self, tmp_path, joint_model, bad):
        """1e39 is finite in float64 but infinite once quantized to float32."""
        head = joint_model.verdict_head.params["b2"]
        original = head.copy()
        head[1] = bad
        try:
            with pytest.raises(CtrnliError, match="verdict_head.b2 has 1 non-finite"):
                save_joint_model(joint_model, tmp_path / "ckpt")
        finally:
            head[:] = original
        assert not (tmp_path / "ckpt").exists()

    def test_load_refuses(self, pipeline_ckpt):
        manifest = json.loads((pipeline_ckpt / "manifest.json").read_text())
        entry = next(t for t in manifest["tensors"] if t["name"] == "evidence.head.W1")
        blob = bytearray((pipeline_ckpt / "params.bin").read_bytes())
        offset = entry["byte_offset"]
        blob[offset : offset + 4] = np.float32(-np.inf).tobytes()
        (pipeline_ckpt / "params.bin").write_bytes(bytes(blob))
        with pytest.raises(BadCheckpoint, match="evidence.head.W1: holds non-finite"):
            load_any_model(pipeline_ckpt)

    def test_signalling_nan_is_refused_without_a_warning(self, pipeline_ckpt):
        """Casting a float32 signalling NaN to float64 would warn on stderr
        before the one refusal line."""
        manifest = json.loads((pipeline_ckpt / "manifest.json").read_text())
        entry = next(t for t in manifest["tensors"] if t["name"] == "evidence.head.W1")
        blob = bytearray((pipeline_ckpt / "params.bin").read_bytes())
        offset = entry["byte_offset"]
        blob[offset : offset + 4] = np.array([0x7F800001], dtype="<u4").tobytes()
        (pipeline_ckpt / "params.bin").write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadCheckpoint, match="evidence.head.W1: holds non-finite"):
                load_any_model(pipeline_ckpt)


@pytest.mark.parametrize("system", ["pipeline", "joint"])
def test_load_any_model_reads_once(request, monkeypatch, system):
    path = request.getfixturevalue(f"{system}_ckpt")
    calls = []

    def counting(p):
        calls.append(p)
        return read_checkpoint(p)

    monkeypatch.setattr(checkpoint, "read_checkpoint", counting)
    found, model = load_any_model(path)
    assert found == system and len(calls) == 1
    monkeypatch.undo()
    again = load_any_model(path)[1]
    for name, value in vars(again).items():
        loaded = getattr(model, name)
        if hasattr(value, "params"):  # an encoder or a head
            assert value.params.keys() == loaded.params.keys()
            assert all(np.array_equal(value.params[k], loaded.params[k]) for k in value.params)
        else:
            assert loaded == value, name


def test_load_draws_no_random_numbers(monkeypatch, tmp_path, corpus, claims, pipeline_ckpt,
                                      joint_ckpt):
    """Each part is built at its stored values: nothing is drawn and then
    overwritten, and the predictions equal those of a load that may draw."""
    def refuse(*args, **kwargs):
        raise AssertionError("a checkpoint load drew random numbers")

    for path, predict in ((pipeline_ckpt, predict_pipeline), (joint_ckpt, predict_joint)):
        expected = load_any_model(path)[1]
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", refuse)
            loaded = load_any_model(path)[1]
        for name, model in (("expected", expected), ("loaded", loaded)):
            save_predictions([predict(c, corpus, model) for c in claims], tmp_path / name)
        assert (tmp_path / "expected").read_bytes() == (tmp_path / "loaded").read_bytes()


@pytest.mark.parametrize("vocab_size, dim, n_layers", [(64, 8, 0), (1024, 32, 2), (100, 5, 3)])
def test_param_shapes_match_the_seeded_constructors(vocab_size, dim, n_layers):
    """A load builds each part at the shapes ``param_shapes`` states, and
    training at the shapes the seeded constructors draw: they must agree."""
    encoder = ToyEncoder(vocab_size, dim, n_layers, seed=1)
    drawn = {name: arr.shape for name, arr in encoder.params.items()}
    assert drawn == ToyEncoder.param_shapes(vocab_size, dim, n_layers)
    head = ClassifierHead.create(dim, seed=1)
    assert {name: arr.shape for name, arr in head.params.items()} == ClassifierHead.param_shapes(dim)
