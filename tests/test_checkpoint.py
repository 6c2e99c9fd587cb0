"""Checkpoint directories: save/load round-trips and corruption handling."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from ctrnli import checkpoint
from ctrnli.checkpoint import load_any_model, read_checkpoint, save_joint_model, save_pipeline_model
from ctrnli.encode import ToyEncoder
from ctrnli.ensemble import save_predictions
from ctrnli.errors import BadCheckpoint, CtrnliError
from ctrnli.joint import predict_joint
from ctrnli.nn import EntailmentHead, EvidenceHead
from ctrnli.pipeline import PipelineModel, predict_pipeline


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


@pytest.mark.parametrize("vocab_sizes", [(64, 64), (64, 96)], ids=["same-vocab", "other-vocab"])
def test_reloaded_pipeline_shares_a_tokenizer_per_model(tmp_path, corpus, claims, vocab_sizes):
    """A reloaded pipeline's toy encoders share one tokenizer exactly when
    their vocabulary sizes match; every load starts its own, empty; and the
    predictions are byte-identical to those of the in-memory model, whose
    parameters are rounded to float32 as the checkpoint stores them."""
    model = PipelineModel(
        ToyEncoder(vocab_sizes[0], 8, seed=1), EvidenceHead.create(8, seed=2),
        ToyEncoder(vocab_sizes[1], 8, seed=3), EntailmentHead.create(8, seed=4),
    )
    for part in (model.evidence_encoder, model.evidence_head,
                 model.entailment_encoder, model.entailment_head):
        for arr in part.params.values():
            arr[...] = arr.astype("<f4")
    save_pipeline_model(model, tmp_path / "ckpt")
    loaded, again = (load_any_model(tmp_path / "ckpt")[1] for _ in range(2))
    shared = loaded.evidence_encoder.tokenizer is loaded.entailment_encoder.tokenizer
    assert shared == (vocab_sizes[0] == vocab_sizes[1])
    assert loaded.evidence_encoder.tokenizer._texts == {}
    assert again.evidence_encoder.tokenizer is not loaded.evidence_encoder.tokenizer
    for name, which in (("memory", model), ("reloaded", loaded)):
        preds = [predict_pipeline(claim, corpus, which) for claim in claims]
        save_predictions(preds, tmp_path / f"{name}.json")
    assert (tmp_path / "memory.json").read_bytes() == (tmp_path / "reloaded.json").read_bytes()


class TestRoundTrip:
    def test_pipeline_predictions_survive(self, corpus, claims, pipeline_model, pipeline_ckpt):
        """Float32 quantization moves probabilities by at most ~1e-4 and the
        discrete outputs not at all on an overfit model."""
        loaded = load_any_model(pipeline_ckpt)[1]
        assert loaded.pooling == pipeline_model.pooling
        assert loaded.threshold == pipeline_model.threshold
        for claim in claims:
            a = predict_pipeline(claim, corpus, pipeline_model)
            b = predict_pipeline(claim, corpus, loaded)
            np.testing.assert_allclose(a.evidence_probs, b.evidence_probs, atol=1e-4)
            np.testing.assert_allclose(a.class_probs, b.class_probs, atol=1e-4)
            assert a.selected == b.selected
            assert a.verdict == b.verdict

    def test_joint_predictions_survive(self, corpus, claims, joint_model, joint_ckpt):
        loaded = load_any_model(joint_ckpt)[1]
        for claim in claims:
            a = predict_joint(claim, corpus, joint_model)
            b = predict_joint(claim, corpus, loaded)
            np.testing.assert_allclose(a.evidence_probs, b.evidence_probs, atol=1e-4)
            assert a.selected == b.selected
            assert a.verdict == b.verdict

    def test_parameters_are_quantized_exactly(self, pipeline_model, pipeline_ckpt):
        loaded = load_any_model(pipeline_ckpt)[1]
        for name, arr in pipeline_model.evidence_head.params.items():
            expected = arr.astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(loaded.evidence_head.params[name], expected)
            assert loaded.evidence_head.params[name].dtype == np.float64

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
