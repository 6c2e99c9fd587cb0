"""What a prediction must not depend on: the order of the claims or of the
trials in their files, the ids that name them, and the other claims of the
file. For a pipeline and a joint checkpoint trained on the fixture, every
variant's prediction file, with renamed ids mapped back and its records put
back in the original order, equals the original file byte for byte.

A loaded model answers a claim it has seen from its memo: a repeated claim
gets its original's record, and no change to the model or to the sections
a claim reads between two predictions leaves a stale answer."""

import dataclasses
import json
from pathlib import Path

import pytest

from ctrnli.checkpoint import load_any_model, save_joint_model, save_pipeline_model
from ctrnli.cli import main
from ctrnli.corpus import ClinicalTrialRecord, parse_record, resolve_premise
from ctrnli.ensemble import save_predictions
from ctrnli.joint import JointModel, predict_joint
from ctrnli.nn import ClassifierHead
from ctrnli.pipeline import PipelineModel, predict_pipeline

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "fixture"
CORPUS = json.loads((FIXTURE / "corpus.json").read_text())
CLAIMS = json.loads((FIXTURE / "claims.json").read_text())


@pytest.fixture(scope="module")
def ckpts(tmp_path_factory, pipeline_model, joint_model):
    root = tmp_path_factory.mktemp("ckpts")
    save_pipeline_model(pipeline_model, root / "pipeline")
    save_joint_model(joint_model, root / "joint")
    return root


def _predict(tmp_path, ckpt, corpus, claims) -> bytes:
    (tmp_path / "corpus.json").write_text(json.dumps(corpus))
    (tmp_path / "claims.json").write_text(json.dumps(claims))
    out = tmp_path / "out.json"
    assert main([
        "predict", "--corpus", str(tmp_path / "corpus.json"),
        "--claims", str(tmp_path / "claims.json"), "--checkpoint", str(ckpt), "--out", str(out),
    ]) == 0
    return out.read_bytes()


def _as_original(variant: list[dict], claim_ids: dict[str, str]) -> bytes:
    """The variant's records with each claim id mapped back through
    ``claim_ids`` (new -> original), in the original claim order, written as
    a prediction file is."""
    by_id = {claim_ids.get(p["claim_id"], p["claim_id"]): p for p in variant}
    records = [{**by_id[c["claim_id"]], "claim_id": c["claim_id"]} for c in CLAIMS]
    return (json.dumps(records, sort_keys=True, indent=2) + "\n").encode()


def _renamed():
    """The fixture with every trial and claim id renamed, in reverse sort
    order, so that no order the ids imply survives the renaming."""
    trials = sorted(r["ctr_id"] for r in CORPUS)
    ctr = {old: f"NCT{len(trials) - i:08d}" for i, old in enumerate(trials)}
    claim = {c["claim_id"]: f"q{len(CLAIMS) - i:03d}" for i, c in enumerate(CLAIMS)}
    corpus = [{**r, "ctr_id": ctr[r["ctr_id"]]} for r in CORPUS]
    claims = []
    for c in CLAIMS:
        renamed = {**c, "claim_id": claim[c["claim_id"]], "primary_ctr": ctr[c["primary_ctr"]]}
        if "secondary_ctr" in c:
            renamed["secondary_ctr"] = ctr[c["secondary_ctr"]]
        renamed["evidence"] = {ctr[k]: v for k, v in c["evidence"].items()}
        claims.append(renamed)
    return corpus, claims, {new: old for old, new in claim.items()}


@pytest.fixture(scope="module", params=["pipeline", "joint"])
def system(request, ckpts, tmp_path_factory):
    """(checkpoint, the original prediction file's bytes) of one system."""
    ckpt = ckpts / request.param
    return ckpt, _predict(tmp_path_factory.mktemp("original"), ckpt, CORPUS, CLAIMS)


def test_reversed_claim_order(tmp_path, system):
    ckpt, original = system
    variant = _predict(tmp_path, ckpt, CORPUS, CLAIMS[::-1])
    assert variant != original
    assert _as_original(json.loads(variant), {}) == original


def test_reversed_corpus_order(tmp_path, system):
    ckpt, original = system
    assert _predict(tmp_path, ckpt, CORPUS[::-1], CLAIMS) == original


def test_renamed_ids(tmp_path, system):
    ckpt, original = system
    corpus, claims, back = _renamed()
    variant = json.loads(_predict(tmp_path, ckpt, corpus, claims))
    assert [p["claim_id"] for p in variant] == [c["claim_id"] for c in claims]
    assert _as_original(variant, back) == original


def test_each_claim_alone(tmp_path, system):
    ckpt, original = system
    alone = [json.loads(_predict(tmp_path, ckpt, CORPUS, [c]))[0] for c in CLAIMS]
    assert _as_original(alone, {}) == original


# --- repeated claims and the memo of a loaded model ------------------------------

PREDICT = {"pipeline": predict_pipeline, "joint": predict_joint}


def _encoders(model) -> list:
    if isinstance(model, JointModel):
        return [model.encoder]
    return [model.evidence_encoder, model.entailment_encoder]


def _encodes(model) -> int:
    return sum(encoder.encode_calls for encoder in _encoders(model))


def _again(claims):
    """Each claim renamed ``<id>-again``, in reverse order."""
    return [dataclasses.replace(c, claim_id=f"{c.claim_id}-again") for c in reversed(claims)]


def _written(tmp_path, preds) -> bytes:
    save_predictions(preds, tmp_path / "preds.json")
    return (tmp_path / "preds.json").read_bytes()


@pytest.mark.parametrize("system", ["pipeline", "joint"])
def test_loaded_model_answers_a_repeated_claim_from_its_memo(tmp_path, ckpts, corpus, claims,
                                                             system):
    """Every claim, then its renamed copy: each copy gets its original's
    record apart from ``claim_id`` without an encoder call, and the file is
    byte for byte what predicting each claim alone from a fresh load writes."""
    predict = PREDICT[system]
    _, model = load_any_model(ckpts / system)
    first = [predict(claim, corpus, model) for claim in claims]
    encodes = _encodes(model)
    again = [predict(claim, corpus, model) for claim in _again(claims)]
    assert _encodes(model) == encodes
    records = {r["claim_id"]: r for r in json.loads(_written(tmp_path, first + again))}
    for claim in claims:
        copy = records[f"{claim.claim_id}-again"]
        assert {**copy, "claim_id": claim.claim_id} == records[claim.claim_id]
    alone = [predict(c, corpus, load_any_model(ckpts / system)[1]) for c in claims + _again(claims)]
    assert _written(tmp_path, alone) == _written(tmp_path, first + again)


def test_trained_model_encodes_every_repeat(corpus, claims, pipeline_model, joint_model):
    """A model fresh from training keeps no memo: n + 1 pipeline encodes and
    one joint encode for every claim, repeated or not."""
    for claim in claims + _again(claims):
        n = resolve_premise(claim, corpus).n
        for predict, model, expected in ((predict_pipeline, pipeline_model, n + 1),
                                         (predict_joint, joint_model, 1)):
            encodes = _encodes(model)
            predict(claim, corpus, model)
            assert _encodes(model) - encodes == expected, claim.claim_id


@pytest.fixture(scope="module")
def other_ckpts(tmp_path_factory, pipeline_model, joint_model):
    """Checkpoints of the fixture models with freshly drawn heads."""
    root = tmp_path_factory.mktemp("other")
    dim = pipeline_model.evidence_encoder.dim
    save_pipeline_model(PipelineModel(
        pipeline_model.evidence_encoder, ClassifierHead.create(dim, seed=5),
        pipeline_model.entailment_encoder, ClassifierHead.create(dim, seed=6),
    ), root / "pipeline")
    dim = joint_model.encoder.dim
    save_joint_model(JointModel(
        joint_model.encoder, ClassifierHead.create(dim, seed=5), ClassifierHead.create(dim, seed=6),
    ), root / "joint")
    return root


# each change to a loaded model, given the same system loaded from ``other_ckpts``
_CHANGES = {
    "threshold": lambda model, other: setattr(model, "threshold", 0.0),  # as cmd_predict sets it
    "pooling": lambda model, other: setattr(model, "pooling", "mean"),
    "max_len": lambda model, other: setattr(
        model, "max_len", 16 if isinstance(model, PipelineModel) else 40
    ),
    "head": lambda model, other: setattr(model, "evidence_head", other.evidence_head),
    # the fixture's comparison claims gain role markers in their premises
    "inject_arm_prefix": lambda model, other: setattr(model, "inject_arm_prefix", True),
}


@pytest.mark.parametrize("change", _CHANGES)
@pytest.mark.parametrize("system", ["pipeline", "joint"])
def test_change_between_two_predictions_leaves_no_stale_answer(ckpts, other_ckpts, corpus, claims,
                                                               system, change):
    """A loaded model changed after predicting the claims predicts exactly
    what a fresh load carrying the change does, not what it said before."""
    predict, apply = PREDICT[system], _CHANGES[change]
    other = load_any_model(other_ckpts / system)[1]
    model = load_any_model(ckpts / system)[1]
    before = [predict(claim, corpus, model) for claim in claims]
    apply(model, other)
    after = [predict(claim, corpus, model) for claim in claims]
    fresh = load_any_model(ckpts / system)[1]
    apply(fresh, other)
    assert after == [predict(claim, corpus, fresh) for claim in claims]
    assert after != before


@pytest.mark.parametrize("system", ["pipeline", "joint"])
def test_memo_compares_sections_by_content(ckpts, corpus, claims, system):
    """A corpus reloaded into new objects answers from the memo; one changed
    sentence of a claim's section misses and predicts what a fresh load does."""
    predict = PREDICT[system]
    model = load_any_model(ckpts / system)[1]
    first = [predict(claim, corpus, model) for claim in claims]
    encodes = _encodes(model)
    reloaded = {ctr: parse_record(json.loads(json.dumps(r.to_json_obj())))
                for ctr, r in corpus.items()}
    assert [predict(claim, reloaded, model) for claim in claims] == first
    assert _encodes(model) == encodes
    claim = claims[0]
    section = corpus[claim.primary_ctr].sections[claim.section_id]
    changed = dict(corpus)
    changed[claim.primary_ctr] = ClinicalTrialRecord(claim.primary_ctr, {
        **corpus[claim.primary_ctr].sections,
        claim.section_id: (section[0] + " and more", *section[1:]),
    })
    pred = predict(claim, changed, model)
    assert _encodes(model) > encodes
    assert pred == predict(claim, changed, load_any_model(ckpts / system)[1])
    assert pred != first[0]


@pytest.mark.parametrize("system", ["pipeline", "joint"])
def test_record_with_list_sections_still_predicts(ckpts, corpus, claims, system):
    """A hand-built record whose sections are lists, which no memo key can
    hash, predicts what the parsed corpus predicts."""
    predict = PREDICT[system]
    lists = {ctr: ClinicalTrialRecord(ctr, {k: list(v) for k, v in r.sections.items()})
             for ctr, r in corpus.items()}
    model, fresh = (load_any_model(ckpts / system)[1] for _ in range(2))
    twice = claims + _again(claims)
    assert [predict(c, lists, model) for c in twice] == [predict(c, corpus, fresh) for c in twice]
