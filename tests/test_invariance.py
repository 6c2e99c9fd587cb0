"""What a prediction must not depend on: the order of the claims or of the
trials in their files, the ids that name them, and the other claims of the
file. For a pipeline and a joint checkpoint trained on the fixture, every
variant's prediction file, with renamed ids mapped back and its records put
back in the original order, equals the original file byte for byte."""

import json
from pathlib import Path

import pytest

from ctrnli.checkpoint import save_joint_model, save_pipeline_model
from ctrnli.cli import main

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
