"""End-to-end command exercises through main(), checking exit codes."""

import argparse
import dataclasses
import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from ctrnli import cli, errors
from ctrnli.checkpoint import load_any_model, save_joint_model, save_pipeline_model
from ctrnli.cli import build_parser, main
from ctrnli.config import SECTIONS, RunConfig
from ctrnli.corpus import SECTION_NAMES
from ctrnli.ensemble import load_predictions
from ctrnli.errors import BadCheckpoint
from ctrnli.nn import EntailmentHead, init_mlp

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "fixture"
CORPUS = str(FIXTURE / "corpus.json")
CLAIMS = str(FIXTURE / "claims.json")


def _one_line_error(capsys, *fragments):
    """stderr holds exactly one line, with every fragment and no traceback."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    for fragment in fragments:
        assert fragment in err, (fragment, err)


@pytest.fixture()
def duplicate_claims(tmp_path):
    """The fixture claims with the first claim repeated at the end."""
    claims = json.loads(Path(CLAIMS).read_text())
    path = tmp_path / "claims.json"
    path.write_text(json.dumps(claims + claims[:1]))
    return str(path)


@pytest.fixture()
def out_of_range_claims(tmp_path):
    """The fixture claims with claim-01's gold evidence index past its section."""
    claims = json.loads(Path(CLAIMS).read_text())
    assert claims[0]["claim_id"] == "claim-01"
    claims[0]["evidence"] = {"trial-01": [999]}
    path = tmp_path / "claims.json"
    path.write_text(json.dumps(claims))
    return str(path)


@pytest.fixture()
def empty_premise(tmp_path):
    """(corpus, claims) paths: the fixture corpus plus a trial whose four
    sections are empty, and one claim on that trial."""
    records = json.loads(Path(CORPUS).read_text())
    records.append({"ctr_id": "trial-empty", "sections": {name: [] for name in SECTION_NAMES}})
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(records))
    claims = tmp_path / "claims.json"
    claims.write_text(json.dumps([{
        "claim_id": "claim-empty", "text": "The trial reports no adverse events.",
        "section_id": "adverse_events", "primary_ctr": "trial-empty",
    }]))
    return str(corpus), str(claims)


@pytest.fixture(scope="module")
def ckpts(tmp_path_factory, pipeline_model, joint_model):
    """The session-trained models, saved once for every CLI test."""
    root = tmp_path_factory.mktemp("ckpts")
    save_pipeline_model(pipeline_model, root / "pipeline")
    save_joint_model(joint_model, root / "joint")
    return {"pipeline": root / "pipeline", "joint": root / "joint"}


@pytest.fixture(scope="module")
def prediction_files(tmp_path_factory, ckpts):
    root = tmp_path_factory.mktemp("preds")
    paths = {}
    for system in ("pipeline", "joint"):
        out = root / f"{system}.json"
        code = main([
            "predict", "--corpus", CORPUS, "--claims", CLAIMS,
            "--checkpoint", str(ckpts[system]), "--out", str(out),
        ])
        assert code == 0
        paths[system] = out
    return paths


class TestValidate:
    def test_clean_fixture(self, capsys):
        assert main(["validate", "--corpus", CORPUS, "--claims", CLAIMS]) == 0
        assert "0 violation" in capsys.readouterr().out

    def test_dangling_reference_fails(self, tmp_path, capsys):
        claims = json.loads(Path(CLAIMS).read_text())
        claims[0]["primary_ctr"] = "trial-99"
        claims[0]["evidence"] = {"trial-99": [0]}
        bad = tmp_path / "claims.json"
        bad.write_text(json.dumps(claims))
        assert main(["validate", "--corpus", CORPUS, "--claims", str(bad)]) == 1
        assert "trial-99" in capsys.readouterr().out

    def test_evidence_out_of_range_fails(self, tmp_path):
        claims = json.loads(Path(CLAIMS).read_text())
        claims[0]["evidence"]["trial-01"] = [40]
        bad = tmp_path / "claims.json"
        bad.write_text(json.dumps(claims))
        assert main(["validate", "--corpus", CORPUS, "--claims", str(bad)]) == 1

    def test_duplicate_claim_id_fails(self, capsys, duplicate_claims):
        assert main(["validate", "--corpus", CORPUS, "--claims", duplicate_claims]) == 1
        _one_line_error(capsys, "duplicate claim_id", "claim-01")

    def test_missing_corpus_is_usage_error(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["validate", "--corpus", missing, "--claims", CLAIMS]) == 2

    def test_empty_premise_is_a_violation(self, capsys, empty_premise):
        corpus, claims = empty_premise
        assert main(["validate", "--corpus", corpus, "--claims", claims]) == 1
        assert "EmptyPremise [claim-empty]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("corpus", "ctr_id", [1]),
            ("claims", "claim_id", ["x"]),
            ("claims", "text", 12345),
            ("claims", "evidence", {"trial-01": [True]}),
        ],
    )
    def test_non_string_id_or_bool_index_is_data_error(self, tmp_path, capsys, name, key, value):
        """Ids must be JSON strings and indices non-bool integers; none is coerced."""
        paths = {"corpus": CORPUS, "claims": CLAIMS}
        objs = json.loads(Path(paths[name]).read_text())
        objs[0][key] = value
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(objs))
        code = main(["validate", "--corpus", str(paths["corpus"]), "--claims", str(paths["claims"])])
        assert code == 1
        _one_line_error(capsys, key)

    def test_arms_entry_is_ignored(self, tmp_path, capsys):
        """A trial's "arms" entry, even a malformed one, is an ignored extra key."""
        records = json.loads(Path(CORPUS).read_text())
        records[0]["arms"] = {"labels": ["a"], "tags": [1]}
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(records))
        assert main(["validate", "--corpus", str(corpus), "--claims", CLAIMS]) == 0
        assert "0 violation" in capsys.readouterr().out

    def test_malformed_corpus_is_data_error(self, tmp_path):
        bad = tmp_path / "corpus.json"
        bad.write_text("{oops")
        assert main(["validate", "--corpus", str(bad), "--claims", CLAIMS]) == 1

    def test_claims_directory_without_split_is_usage_error(self, capsys):
        assert main(["validate", "--corpus", CORPUS, "--claims", str(FIXTURE)]) == 2
        _one_line_error(capsys, "usage error: split is required")

    def test_claim_file_that_is_an_object_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "claims.json"
        bad.write_text(json.dumps(json.loads(Path(CLAIMS).read_text())[0]))
        assert main(["validate", "--corpus", CORPUS, "--claims", str(bad)]) == 1
        _one_line_error(capsys, "claim file must be a JSON list")


class TestTrain:
    def _train_args(self, out, *extra):
        return [
            "train", "--corpus", CORPUS, "--claims", CLAIMS,
            "--out", str(out), "--max-steps", "2", "--seed", "0", *extra,
        ]

    def test_seed_required(self, tmp_path):
        code = main([
            "train", "--corpus", CORPUS, "--claims", CLAIMS,
            "--out", str(tmp_path / "ckpt"), "--max-steps", "1",
        ])
        assert code == 2

    def test_joint_max_len_that_packs_no_sentence_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "ckpt"
        assert main(self._train_args(out, "--system", "joint", "--max-len", "12")) == 2
        _one_line_error(capsys, "claim-", "max_len 12 packs no premise sentence")
        assert not out.exists()

    @pytest.mark.parametrize("system", ["pipeline", "joint"])
    def test_max_len_below_the_claim_is_usage_error(self, tmp_path, capsys, system):
        out = tmp_path / "ckpt"
        assert main(self._train_args(out, "--system", system, "--max-len", "5")) == 2
        _one_line_error(capsys, "usage error: claim claim-01: 7 claim tokens", "max_len 5")
        assert not out.exists()

    def test_seed_via_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "corpus": CORPUS, "claims": CLAIMS,
            "hyperparams": {"seed": 3, "max_steps": 1},
        }))
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "ckpt")])
        assert code == 0

    def test_writes_pipeline_checkpoint(self, tmp_path):
        out = tmp_path / "ckpt"
        assert main(self._train_args(out)) == 0
        for fname in ("config.json", "manifest.json", "params.bin", "loss_curve.json"):
            assert (out / fname).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["system"] == "pipeline"
        curves = json.loads((out / "loss_curve.json").read_text())
        assert set(curves) == {"evidence", "entailment"}

    def test_writes_joint_checkpoint(self, tmp_path):
        out = tmp_path / "ckpt"
        assert main(self._train_args(out, "--system", "joint")) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["system"] == "joint"
        curves = json.loads((out / "loss_curve.json").read_text())
        assert set(curves) == {"total", "evidence", "entailment"}

    def test_same_seed_identical_checkpoints(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(self._train_args(a, "--system", "joint")) == 0
        assert main(self._train_args(b, "--system", "joint")) == 0
        assert (a / "params.bin").read_bytes() == (b / "params.bin").read_bytes()

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "corpus": CORPUS, "claims": CLAIMS, "system": "pipeline",
            "hyperparams": {"seed": 3, "max_steps": 1},
        }))
        out = tmp_path / "ckpt"
        code = main([
            "train", "--config", str(cfg), "--system", "joint", "--out", str(out),
        ])
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["system"] == "joint"

    def test_unavailable_pretrained_backend(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HF_HUB_OFFLINE", "1")
        monkeypatch.setenv("TRANSFORMERS_OFFLINE", "1")
        code = main(self._train_args(
            tmp_path / "ckpt",
            "--encoder-backend", "pretrained",
            "--model-name", "no-such-org/no-such-model-xyz",
        ))
        assert code == 3

    @pytest.mark.parametrize("system", ["pipeline", "joint"])
    def test_out_of_range_gold_evidence_is_data_error(
        self, tmp_path, capsys, out_of_range_claims, system
    ):
        code = main([
            "train", "--corpus", CORPUS, "--claims", out_of_range_claims, "--system", system,
            "--out", str(tmp_path / "ckpt"), "--max-steps", "1", "--seed", "0",
        ])
        assert code == 1
        _one_line_error(capsys, "claim-01", "trial-01", "999")

    def test_config_with_output_dir_key_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"output_dir": "runs"}))
        assert main(self._train_args(tmp_path / "ckpt", "--config", str(cfg))) == 2
        _one_line_error(capsys, "output_dir")
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize(
        "section, flags",
        [
            ("hyperparams", ["--learning-rate", "0.1"]),
            ("encoder", ["--dim", "8"]),
            ("ensemble", []),
        ],
    )
    def test_config_section_that_is_not_an_object_is_a_usage_error(
        self, tmp_path, capsys, section, flags
    ):
        """Flags for the same section do not hide the file's bad value."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({section: 3}))
        assert main(self._train_args(tmp_path / "ckpt", "--config", str(cfg), *flags)) == 2
        _one_line_error(capsys, f"config key '{section}' must be an object")
        assert not (tmp_path / "ckpt").exists()

    def test_config_with_verdict_classes_key_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"corpus": CORPUS, "claims": CLAIMS, "verdict_classes": 3}))
        code = main(self._train_args(tmp_path / "ckpt", "--config", str(cfg)))
        assert code == 2
        _one_line_error(capsys, "verdict_classes")
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--batch-size", "0", "batch_size"),
            ("--batch-size", "-3", "batch_size"),
            ("--max-steps", "-1", "max_steps"),
            ("--epochs", "-1", "epochs"),
            ("--learning-rate", "nan", "learning_rate"),
            ("--learning-rate", "0", "learning_rate"),
            ("--warmup-rate", "1.5", "warmup_rate"),
            ("--weight-decay", "-0.1", "weight_decay"),
            ("--w-evidence", "inf", "w_evidence"),
            ("--w-entailment", "-1", "w_entailment"),
            ("--dim", "0", "dim"),
            ("--n-layers", "-1", "n_layers"),
            ("--max-len", "-5", "max_len"),
            ("--max-len", "2", "max_len"),
            ("--threshold", "nan", "threshold"),
            ("--threshold", "1.5", "threshold"),
            ("--seed", "-1", "seed"),
        ],
    )
    def test_bad_hyperparameter_is_a_usage_error(self, tmp_path, capsys, flag, value, name):
        assert main(self._train_args(tmp_path / "ckpt", flag, value)) == 2
        _one_line_error(capsys, "usage error", name, value)
        assert not (tmp_path / "ckpt").exists()

    def test_hyperparameter_of_wrong_type_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"hyperparams": {"batch_size": 2.5}}))
        assert main(self._train_args(tmp_path / "ckpt", "--config", str(cfg))) == 2
        _one_line_error(capsys, "batch_size", "2.5")

    @pytest.mark.parametrize("value", [None, "yes", 1])
    def test_mixed_precision_must_be_a_bool(self, tmp_path, capsys, value):
        """Only JSON true or false: a null would otherwise read as off."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"encoder": {"mixed_precision": value}}))
        assert main(self._train_args(tmp_path / "ckpt", "--config", str(cfg))) == 2
        _one_line_error(capsys, "mixed_precision must be true or false")
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"lenient": "no"}, "lenient must be true or false"),
            ({"inject_arm_prefix": "yes"}, "inject_arm_prefix must be true or false"),
            ({"split": []}, "split must be a string or null"),
            ({"encoder": {"vocab_size": "abc"}}, "vocab_size must be an integer >= 3"),
        ],
    )
    def test_config_value_of_the_wrong_type_is_a_usage_error(
        self, tmp_path, capsys, config, message
    ):
        """A truthy string would otherwise read as true, and a list as a
        split name."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        assert main(self._train_args(tmp_path / "ckpt", "--config", str(cfg))) == 2
        _one_line_error(capsys, message)
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("system", ["pipeline", "joint"])
    def test_diverged_training_writes_no_checkpoint(self, tmp_path, capsys, system):
        out = tmp_path / "ckpt"
        args = self._train_args(out, "--system", system, "--learning-rate", "1e6")
        assert main([*args, "--max-steps", "20"]) == 1
        _one_line_error(capsys, "error: parameter", "encoder.W0", "non-finite")
        assert not out.exists()

    @pytest.mark.parametrize("system", ["pipeline", "joint"])
    def test_labelled_claim_without_evidence_is_data_error(self, tmp_path, capsys, system):
        claims = json.loads(Path(CLAIMS).read_text())
        assert claims[0]["claim_id"] == "claim-01" and claims[0]["label"]
        del claims[0]["evidence"]
        path = tmp_path / "claims.json"
        path.write_text(json.dumps(claims))
        out = tmp_path / "ckpt"
        args = self._train_args(out, "--system", system)
        args[args.index("--claims") + 1] = str(path)
        assert main(args) == 1
        _one_line_error(capsys, "claim claim-01 has no gold evidence")
        assert not out.exists()

    @pytest.mark.parametrize(
        "system, flag",
        [
            ("pipeline", "--learning-rate"), ("joint", "--learning-rate"),
            ("pipeline", "--weight-decay"), ("joint", "--w-evidence"),
        ],
    )
    def test_overflowing_training_warns_nothing(self, tmp_path, capsys, system, flag):
        """A run that overflows to inf and nan prints its one error line and no
        numpy warning; pytest would otherwise capture the warnings unseen."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(self._train_args(tmp_path / "ckpt", "--system", system, flag, "1e308"))
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code == 1
        _one_line_error(capsys, "non-finite")

    def test_unknown_split_directory(self, tmp_path):
        code = main([
            "train", "--corpus", CORPUS, "--claims", str(tmp_path),
            "--split", "dev", "--out", str(tmp_path / "ckpt"), "--seed", "0",
        ])
        assert code == 2


class TestPredict:
    def test_writes_valid_predictions(self, prediction_files, corpus, claims):
        preds = load_predictions(prediction_files["pipeline"])
        assert [p.claim_id for p in preds] == [c.claim_id for c in claims]

    @pytest.mark.parametrize("system", ["pipeline", "joint"])
    def test_empty_premise_is_data_error(self, tmp_path, ckpts, capsys, empty_premise, system):
        corpus, claims = empty_premise
        out = tmp_path / "p.json"
        code = main([
            "predict", "--corpus", corpus, "--claims", claims,
            "--checkpoint", str(ckpts[system]), "--out", str(out),
        ])
        assert code == 1
        _one_line_error(capsys, "claim-empty", "empty premise")
        assert not out.exists()

    def test_joint_max_len_that_packs_no_sentence_is_usage_error(
        self, tmp_path, joint_model, capsys
    ):
        ckpt = tmp_path / "joint"
        save_joint_model(dataclasses.replace(joint_model, max_len=12), ckpt)
        out = tmp_path / "p.json"
        code = main([
            "predict", "--corpus", CORPUS, "--claims", CLAIMS,
            "--checkpoint", str(ckpt), "--out", str(out),
        ])
        assert code == 2
        _one_line_error(capsys, "claim-01", "max_len 12 packs no premise sentence")
        assert not out.exists()

    @pytest.mark.parametrize("system", ["pipeline", "joint"])
    def test_max_len_below_the_claim_is_usage_error(
        self, tmp_path, pipeline_model, joint_model, capsys, system
    ):
        ckpt = tmp_path / system
        if system == "pipeline":
            save_pipeline_model(dataclasses.replace(pipeline_model, max_len=5), ckpt)
        else:
            save_joint_model(dataclasses.replace(joint_model, max_len=5), ckpt)
        out = tmp_path / "p.json"
        code = main([
            "predict", "--corpus", CORPUS, "--claims", CLAIMS,
            "--checkpoint", str(ckpt), "--out", str(out),
        ])
        assert code == 2
        _one_line_error(capsys, "usage error: claim claim-01: 7 claim tokens", "max_len 5")
        assert not out.exists()

    def test_missing_checkpoint(self, tmp_path):
        code = main([
            "predict", "--corpus", CORPUS, "--claims", CLAIMS,
            "--checkpoint", str(tmp_path / "nope"), "--out", str(tmp_path / "p.json"),
        ])
        assert code == 2

    def test_config_with_jobs_key_is_a_usage_error(self, tmp_path, ckpts, capsys):
        """An unknown config key such as ``jobs`` gives one usage line, no traceback."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"corpus": CORPUS, "claims": CLAIMS, "jobs": 2}))
        code = main([
            "predict", "--config", str(cfg), "--checkpoint", str(ckpts["joint"]),
            "--out", str(tmp_path / "p.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "jobs" in err and "Traceback" not in err
        assert not (tmp_path / "p.json").exists()

    def test_three_class_verdict_head_is_refused(self, tmp_path, joint_model, capsys):
        dim = joint_model.encoder.dim
        wide = dataclasses.replace(
            joint_model, verdict_head=EntailmentHead(params=init_mlp(np.random.default_rng(0), dim, dim, 3))
        )
        save_joint_model(wide, tmp_path / "ckpt")
        with pytest.raises(BadCheckpoint, match="verdict_head"):
            load_any_model(tmp_path / "ckpt")
        code = main([
            "predict", "--corpus", CORPUS, "--claims", CLAIMS,
            "--checkpoint", str(tmp_path / "ckpt"), "--out", str(tmp_path / "p.json"),
        ])
        assert code == 1
        _one_line_error(capsys, "verdict_head")

    @pytest.mark.parametrize("system", ["pipeline", "joint"])
    def test_non_finite_checkpoint_is_refused(self, tmp_path, ckpts, capsys, system):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(ckpts[system], ckpt)
        blob = bytearray((ckpt / "params.bin").read_bytes())
        blob[-4:] = np.float32(np.nan).tobytes()  # the last value of the last tensor
        (ckpt / "params.bin").write_bytes(bytes(blob))
        code = main([
            "predict", "--corpus", CORPUS, "--claims", CLAIMS,
            "--checkpoint", str(ckpt), "--out", str(tmp_path / "p.json"),
        ])
        assert code == 1
        _one_line_error(capsys, "non-finite")
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("system", ["pipeline", "joint"])
    def test_config_with_old_n_classes_key_predicts_identically(
        self, tmp_path, ckpts, prediction_files, system
    ):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(ckpts[system], ckpt)
        config = json.loads((ckpt / "config.json").read_text())
        assert "n_classes" not in config
        config["n_classes"] = 2
        (ckpt / "config.json").write_text(json.dumps(config))
        out = tmp_path / "p.json"
        code = main([
            "predict", "--corpus", CORPUS, "--claims", CLAIMS,
            "--checkpoint", str(ckpt), "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == prediction_files[system].read_bytes()

    def test_threshold_override(self, tmp_path, ckpts):
        out = tmp_path / "p.json"
        code = main([
            "predict", "--corpus", CORPUS, "--claims", CLAIMS,
            "--checkpoint", str(ckpts["pipeline"]), "--out", str(out),
            "--threshold", "0.999999",
        ])
        assert code == 0
        preds = load_predictions(out)
        # almost nothing clears an extreme threshold, so fallbacks appear
        assert any(p.fallback_used for p in preds)
        assert all(len(p.selected) >= 1 for p in preds)

    def _predict(self, tmp_path, ckpt, name, *extra, config=None):
        out = tmp_path / f"{name}.json"
        args = ["predict", "--checkpoint", str(ckpt), "--out", str(out), *extra]
        if config is not None:
            cfg = tmp_path / f"{name}.cfg.json"
            cfg.write_text(json.dumps({"corpus": CORPUS, "claims": CLAIMS, **config}))
            args += ["--config", str(cfg)]
        else:
            args += ["--corpus", CORPUS, "--claims", CLAIMS]
        assert main(args) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("system", ["pipeline", "joint"])
    def test_threshold_from_config_file(self, tmp_path, ckpts, prediction_files, system):
        """Flag over config file over the checkpoint's own threshold."""
        ckpt = ckpts[system]
        flag = self._predict(tmp_path, ckpt, "flag", "--threshold", "0.999999")
        from_file = self._predict(tmp_path, ckpt, "file", config={"threshold": 0.999999})
        assert from_file == flag
        assert from_file != prediction_files[system].read_bytes()
        both = self._predict(
            tmp_path, ckpt, "both", "--threshold", "0.2", config={"threshold": 0.999999}
        )
        assert both == self._predict(tmp_path, ckpt, "low", "--threshold", "0.2")
        assert both != flag
        # a config without a threshold leaves the checkpoint's value in place
        plain = self._predict(tmp_path, ckpt, "plain", config={})
        assert plain == prediction_files[system].read_bytes()

    def test_config_threshold_of_wrong_type_is_a_usage_error(self, tmp_path, ckpts, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"corpus": CORPUS, "claims": CLAIMS, "threshold": "high"}))
        code = main([
            "predict", "--config", str(cfg), "--checkpoint", str(ckpts["joint"]),
            "--out", str(tmp_path / "p.json"),
        ])
        assert code == 2
        _one_line_error(capsys, "threshold", "high")

    @pytest.mark.parametrize("value", ["nan", "1.5", "-0.1", "inf"])
    def test_out_of_range_threshold_flag_is_a_usage_error(self, tmp_path, ckpts, capsys, value):
        out = tmp_path / "p.json"
        code = main([
            "predict", "--corpus", CORPUS, "--claims", CLAIMS,
            "--checkpoint", str(ckpts["joint"]), "--out", str(out), "--threshold", value,
        ])
        assert code == 2
        _one_line_error(capsys, "usage error", "threshold", value)
        assert not out.exists()

    def test_out_of_range_config_threshold_is_a_usage_error(self, tmp_path, ckpts, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"corpus": CORPUS, "claims": CLAIMS, "threshold": 1.5}))
        code = main([
            "predict", "--config", str(cfg), "--checkpoint", str(ckpts["pipeline"]),
            "--out", str(tmp_path / "p.json"),
        ])
        assert code == 2
        _one_line_error(capsys, "threshold", "1.5")

    @pytest.mark.parametrize("system", ["pipeline", "joint"])
    @pytest.mark.parametrize("value", [float("nan"), 1.5, -0.5, "0.5", None])
    def test_checkpoint_with_bad_threshold_is_a_data_error(
        self, tmp_path, ckpts, capsys, system, value
    ):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(ckpts[system], ckpt)
        config = json.loads((ckpt / "config.json").read_text())
        config["threshold"] = value
        (ckpt / "config.json").write_text(json.dumps(config))
        out = tmp_path / "p.json"
        code = main([
            "predict", "--corpus", CORPUS, "--claims", CLAIMS,
            "--checkpoint", str(ckpt), "--out", str(out),
        ])
        assert code == 1
        _one_line_error(capsys, "error: threshold", repr(value))
        assert not out.exists()

    @pytest.mark.parametrize(
        "system,encoder",
        [("pipeline", "evidence_encoder"), ("pipeline", "entailment_encoder"), ("joint", "encoder")],
    )
    @pytest.mark.parametrize(
        "edit",
        [
            lambda cfg, enc: cfg.pop("max_len"),
            lambda cfg, enc: cfg.pop(enc),
            lambda cfg, enc: cfg[enc].pop("dim"),
            lambda cfg, enc: cfg.update({enc: "toy"}),
            lambda cfg, enc: cfg.update(pooling="bogus"),
            lambda cfg, enc: cfg.update(max_len="abc"),
            lambda cfg, enc: cfg[enc].update(vocab_size=1),
            lambda cfg, enc: cfg[enc].update(dim=-1),
            lambda cfg, enc: cfg.update(inject_arm_prefix="no"),
            lambda cfg, enc: cfg[enc].update(backend="bogus", model_name="x"),
        ],
        ids=[
            "no-max_len", "no-encoder", "no-dim", "encoder-is-string", "bad-pooling",
            "max_len-is-string", "vocab_size-1", "negative-dim", "inject-is-string",
            "unknown-backend",
        ],
    )
    def test_malformed_checkpoint_config_is_a_data_error(
        self, tmp_path, ckpts, capsys, system, encoder, edit
    ):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(ckpts[system], ckpt)
        config = json.loads((ckpt / "config.json").read_text())
        edit(config, encoder)
        (ckpt / "config.json").write_text(json.dumps(config))
        out = tmp_path / "p.json"
        code = main([
            "predict", "--corpus", CORPUS, "--claims", CLAIMS,
            "--checkpoint", str(ckpt), "--out", str(out),
        ])
        assert code == 1
        _one_line_error(capsys, "error: ")
        assert not out.exists()

    def test_duplicate_claim_id_is_data_error(self, tmp_path, ckpts, capsys, duplicate_claims):
        out = tmp_path / "p.json"
        code = main([
            "predict", "--corpus", CORPUS, "--claims", duplicate_claims,
            "--checkpoint", str(ckpts["joint"]), "--out", str(out),
        ])
        assert code == 1
        _one_line_error(capsys, "duplicate claim_id", "claim-01")
        assert not out.exists()

    def test_unlabeled_claims_predictable(self, tmp_path, ckpts):
        claims = json.loads(Path(CLAIMS).read_text())
        for obj in claims:
            obj.pop("label", None)
            obj.pop("evidence", None)
        unlabeled = tmp_path / "claims.json"
        unlabeled.write_text(json.dumps(claims))
        out = tmp_path / "p.json"
        code = main([
            "predict", "--corpus", CORPUS, "--claims", str(unlabeled),
            "--checkpoint", str(ckpts["joint"]), "--out", str(out),
        ])
        assert code == 0
        assert len(load_predictions(out)) == len(claims)


class TestEnsemble:
    def test_combines_and_scores_perfectly(self, tmp_path, prediction_files, capsys):
        out = tmp_path / "ens.json"
        code = main([
            "ensemble", str(prediction_files["pipeline"]), str(prediction_files["joint"]),
            "--out", str(out),
        ])
        assert code == 0
        assert main([
            "evaluate", "--corpus", CORPUS, "--claims", CLAIMS,
            "--predictions", str(out),
        ]) == 0
        table = capsys.readouterr().out
        assert "1.0000" in table

    def test_degenerate_weights_reproduce_first_file(self, tmp_path, prediction_files):
        out = tmp_path / "ens.json"
        code = main([
            "ensemble", str(prediction_files["pipeline"]), str(prediction_files["joint"]),
            "--out", str(out), "--w-pipeline", "1.0", "--w-joint", "0.0",
        ])
        assert code == 0
        assert out.read_bytes() == prediction_files["pipeline"].read_bytes()

    def test_bad_weights_are_usage_error(self, tmp_path, prediction_files):
        code = main([
            "ensemble", str(prediction_files["pipeline"]), str(prediction_files["joint"]),
            "--out", str(tmp_path / "e.json"), "--w-pipeline", "0.9", "--w-joint", "0.9",
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "config, flags, field",
        [
            ({"ensemble": {"max_evidence": 2.5}}, [], "max_evidence"),
            ({"ensemble": {"w_pipeline": True, "w_joint": False}}, [], "w_pipeline"),
            ({}, ["--w-pipeline", "nan", "--w-joint", "nan"], "w_pipeline"),
            ({"threshold": 2}, [], "threshold"),
        ],
    )
    @pytest.mark.parametrize("inputs", ["fixture", "empty"])
    def test_bad_ensemble_config_is_usage_error(
        self, tmp_path, prediction_files, capsys, config, flags, field, inputs
    ):
        if inputs == "empty":
            files = [tmp_path / "a.json", tmp_path / "b.json"]
            for path in files:
                path.write_text("[]")
        else:
            files = [prediction_files["pipeline"], prediction_files["joint"]]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "e.json"
        code = main(["ensemble", *map(str, files), "--config", str(cfg), "--out", str(out), *flags])
        assert code == 2
        _one_line_error(capsys, f"{field} must be")
        assert not out.exists()

    def test_ensemble_threshold_key_is_refused(self, tmp_path, prediction_files, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ensemble": {"threshold": 0.3}}))
        files = [str(prediction_files[s]) for s in ("pipeline", "joint")]
        out = tmp_path / "e.json"
        assert main(["ensemble", *files, "--config", str(cfg), "--out", str(out)]) == 2
        _one_line_error(capsys, "unknown EnsembleConfig keys", "threshold")
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, flags, selected",
        [
            ({}, [], [0]),
            ({"threshold": 0.3}, [], [0, 1]),
            ({}, ["--threshold", "0.3"], [0, 1]),
            ({"threshold": 0.9}, ["--threshold", "0.3"], [0, 1]),
        ],
    )
    def test_threshold_from_flag_then_file_then_default(self, tmp_path, config, flags, selected):
        """Averaged probabilities (0.4, 0.35, 0.1): fallback to [0] at the
        default 0.5, both of the first two sentences at 0.3."""
        pred = {
            "claim_id": "c-1", "evidence_probs": [0.4, 0.35, 0.1], "selected": [0],
            "class_probs": [0.8, 0.2], "verdict": "Entailment", "fallback_used": True,
        }
        inputs = tmp_path / "preds.json"
        inputs.write_text(json.dumps([pred]))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "e.json"
        code = main([
            "ensemble", str(inputs), str(inputs), "--config", str(cfg), "--out", str(out), *flags,
        ])
        assert code == 0
        assert json.loads(out.read_text())[0]["selected"] == selected

    def test_missing_input_file(self, tmp_path, prediction_files):
        code = main([
            "ensemble", str(tmp_path / "nope.json"), str(prediction_files["joint"]),
            "--out", str(tmp_path / "e.json"),
        ])
        assert code == 2

    def test_repeated_prediction_is_data_error(self, tmp_path, prediction_files, capsys):
        preds = json.loads(prediction_files["joint"].read_text())
        dup = tmp_path / "dup.json"
        dup.write_text(json.dumps(preds + preds[:1]))
        out = tmp_path / "e.json"
        code = main([
            "ensemble", str(dup), str(prediction_files["pipeline"]), "--out", str(out),
        ])
        assert code == 1
        _one_line_error(capsys, "duplicate claim_id", preds[0]["claim_id"])
        assert not out.exists()

    def test_numeric_claim_id_does_not_pair_with_a_string_one(
        self, tmp_path, capsys, prediction_files
    ):
        preds = json.loads(prediction_files["joint"].read_text())
        paths = []
        for claim_id in ("7", 7):
            preds[0]["claim_id"] = claim_id
            paths.append(tmp_path / f"{type(claim_id).__name__}.json")
            paths[-1].write_text(json.dumps(preds))
        out = tmp_path / "e.json"
        assert main(["ensemble", *map(str, paths), "--out", str(out)]) == 1
        _one_line_error(capsys, "claim_id must be a string, got 7")
        assert not out.exists()

    def test_mismatched_claims_are_data_error(self, tmp_path, prediction_files):
        truncated = json.loads(prediction_files["joint"].read_text())[:5]
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps(truncated))
        code = main([
            "ensemble", str(prediction_files["pipeline"]), str(partial),
            "--out", str(tmp_path / "e.json"),
        ])
        assert code == 1


class TestEvaluateAndReport:
    def test_report_file_round_trip(self, tmp_path, prediction_files, capsys):
        report_path = tmp_path / "metrics.json"
        code = main([
            "evaluate", "--corpus", CORPUS, "--claims", CLAIMS,
            "--predictions", str(prediction_files["joint"]), "--out", str(report_path),
        ])
        assert code == 0
        evaluate_out = capsys.readouterr().out
        obj = json.loads(report_path.read_text())
        assert obj["schema"] == "metrics/1"
        assert obj["evidence"]["micro"]["f1"] == 1.0
        assert obj["entailment"]["f1"] == 1.0

        assert main(["report", "--report", str(report_path)]) == 0
        report_out = capsys.readouterr().out
        # the rendered table is identical in both commands
        assert report_out.strip() in evaluate_out

    def test_missing_predictions(self, tmp_path):
        code = main([
            "evaluate", "--corpus", CORPUS, "--claims", CLAIMS,
            "--predictions", str(tmp_path / "nope.json"),
        ])
        assert code == 2

    def test_length_mismatch_is_data_error(self, tmp_path, prediction_files):
        preds = json.loads(prediction_files["joint"].read_text())
        preds[0]["evidence_probs"] = preds[0]["evidence_probs"] + [0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(preds))
        code = main([
            "evaluate", "--corpus", CORPUS, "--claims", CLAIMS,
            "--predictions", str(bad),
        ])
        assert code == 1

    def test_partial_predictions_are_refused(self, tmp_path, capsys, prediction_files):
        preds = json.loads(prediction_files["joint"].read_text())
        assert len(preds) == 20
        assert self._evaluate_payload(tmp_path, preds[:3]) == 1
        _one_line_error(capsys, "17 labelled claim(s)", preds[3]["claim_id"])

    def test_repeated_prediction_is_data_error(self, tmp_path, capsys, prediction_files):
        preds = json.loads(prediction_files["joint"].read_text())
        assert self._evaluate_payload(tmp_path, preds + preds[:1]) == 1
        _one_line_error(capsys, "duplicate claim_id", preds[0]["claim_id"])

    def test_missing_report_file(self, tmp_path):
        assert main(["report", "--report", str(tmp_path / "nope.json")]) == 2

    def test_out_of_range_gold_evidence_is_data_error(
        self, capsys, prediction_files, out_of_range_claims
    ):
        code = main([
            "evaluate", "--corpus", CORPUS, "--claims", out_of_range_claims,
            "--predictions", str(prediction_files["joint"]),
        ])
        assert code == 1
        _one_line_error(capsys, "claim-01", "trial-01", "999")

    def _evaluate_payload(self, tmp_path, payload):
        path = tmp_path / "preds.json"
        path.write_text(json.dumps(payload))
        return main([
            "evaluate", "--corpus", CORPUS, "--claims", CLAIMS, "--predictions", str(path),
        ])

    def test_prediction_missing_verdict_is_data_error(self, tmp_path, capsys, prediction_files):
        preds = json.loads(prediction_files["joint"].read_text())
        del preds[3]["verdict"]
        assert self._evaluate_payload(tmp_path, preds) == 1
        _one_line_error(capsys, "verdict")

    def test_prediction_list_of_numbers_is_data_error(self, tmp_path, capsys):
        assert self._evaluate_payload(tmp_path, [1, 2]) == 1
        _one_line_error(capsys, "JSON object")

    def test_prediction_probability_out_of_range_is_data_error(
        self, tmp_path, capsys, prediction_files
    ):
        preds = json.loads(prediction_files["joint"].read_text())
        preds[0]["class_probs"] = [1.5, -0.5]
        preds[0]["verdict"] = "Entailment"
        assert self._evaluate_payload(tmp_path, preds) == 1
        _one_line_error(capsys, preds[0]["claim_id"], "1.5")

    def test_prediction_with_three_class_probs_is_data_error(
        self, tmp_path, capsys, prediction_files
    ):
        preds = json.loads(prediction_files["joint"].read_text())
        preds[0]["class_probs"] = [0.2, 0.3, 0.5]
        assert self._evaluate_payload(tmp_path, preds) == 1
        _one_line_error(capsys, preds[0]["claim_id"], "2 class probabilities")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("fallback_used", "no"), ("selected", [0.7]), ("selected", [True]), ("selected", "0"),
            ("class_probs", [True, False]), ("evidence_probs", ["0.9"]), ("claim_id", 7),
        ],
    )
    @pytest.mark.parametrize("command", ["evaluate", "ensemble"])
    def test_prediction_with_coerced_field_is_data_error(
        self, tmp_path, capsys, prediction_files, command, field, value
    ):
        preds = json.loads(prediction_files["joint"].read_text())
        preds[0][field] = value
        path = tmp_path / "preds.json"
        path.write_text(json.dumps(preds))
        out = tmp_path / "out.json"
        if command == "evaluate":
            args = ["evaluate", "--corpus", CORPUS, "--claims", CLAIMS, "--predictions", str(path)]
        else:
            args = ["ensemble", str(prediction_files["pipeline"]), str(path)]
        assert main([*args, "--out", str(out)]) == 1
        _one_line_error(capsys, str(preds[0]["claim_id"]), field)
        assert not out.exists()

    def test_report_not_json_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("{oops")
        assert main(["report", "--report", str(path)]) == 1
        _one_line_error(capsys, str(path))

    def test_report_missing_fields_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"schema": "metrics/1"}))
        assert main(["report", "--report", str(path)]) == 1
        _one_line_error(capsys, "per_claim")

    def test_report_value_of_wrong_type_is_data_error(self, tmp_path, capsys, prediction_files):
        path = tmp_path / "report.json"
        assert main([
            "evaluate", "--corpus", CORPUS, "--claims", CLAIMS,
            "--predictions", str(prediction_files["joint"]), "--out", str(path),
        ]) == 0
        obj = json.loads(path.read_text())
        obj["evidence"]["micro"]["precision"] = "high"
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["report", "--report", str(path)]) == 1
        _one_line_error(capsys, "high")


def test_every_flag_names_a_config_field_or_a_command_argument():
    """Flags reach the config by dest name, so a mistyped dest would be
    dropped silently; no field name is shared, so no flag feeds two fields."""
    fields = [f.name for cls in (RunConfig, *SECTIONS.values()) for f in dataclasses.fields(cls)]
    assert len(fields) == len(set(fields))
    command_args = {
        "out", "checkpoint", "predictions", "predictions_a", "predictions_b", "report", "config",
    }
    allowed = (set(fields) - SECTIONS.keys()) | command_args
    top = build_parser()
    (commands,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    for name, parser in commands.choices.items():
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction):
                assert action.dest in allowed, (name, action.dest)


# the exit code and stderr prefix cli.main gives each exception class
_EXIT_CODES = {
    "CtrnliError": (1, "error"),
    "UsageError": (2, "usage error"),
    "BackendUnavailable": (3, "backend unavailable"),
    "MalformedJson": (1, "error"),
    "BadCheckpoint": (1, "error"),
    "IoError": (1, "error"),
    "EvidenceIndexOutOfRange": (1, "error"),
}


@pytest.mark.parametrize(
    "cls",
    [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)],
    ids=lambda c: c.__name__,
)
def test_each_error_class_ends_in_its_exit_code(monkeypatch, capsys, cls):
    """Every class in ctrnli.errors has a row above: a new class fails here
    until its exit code is written down."""
    code, prefix = _EXIT_CODES[cls.__name__]

    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_report", fail)
    assert main(["report", "--report", "r.json"]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"
