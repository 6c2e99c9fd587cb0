"""Corpus loading, claim parsing, premise resolution, and dataset validation."""

import json
from pathlib import Path

import pytest

from ctrnli.corpus import (
    LABELS,
    SECTION_NAMES,
    ClaimInstance,
    dump_claims,
    dump_corpus,
    gold_evidence_globals,
    load_claims,
    load_corpus,
    normalize_text,
    parse_claim,
    parse_record,
    resolve_premise,
    validate_dataset,
)
from ctrnli.errors import CtrnliError, EvidenceIndexOutOfRange, MalformedJson
from ctrnli.fixture import write_fixture
from ctrnli.pipeline import SystemPrediction

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "fixture"


def _record_obj(ctr_id="ct-1", **overrides):
    obj = {
        "ctr_id": ctr_id,
        "sections": {
            "eligibility": ["adults were screened"],
            "intervention": ["drug given daily"],
            "results": ["response improved", "survival unchanged"],
            "adverse_events": ["mild headache"],
        },
    }
    obj.update(overrides)
    return obj


def _claim_obj(**overrides):
    obj = {
        "claim_id": "c-1",
        "text": "response improved",
        "section_id": "results",
        "primary_ctr": "ct-1",
        "label": "Entailment",
        "evidence": {"ct-1": [0]},
    }
    obj.update(overrides)
    return obj


class TestParseRecord:
    def test_roundtrip_fields(self):
        rec = parse_record(_record_obj())
        assert rec.ctr_id == "ct-1"
        assert tuple(rec.sections) == SECTION_NAMES
        assert rec.sections["results"] == ("response improved", "survival unchanged")

    def test_unknown_section_name(self):
        obj = _record_obj()
        obj["sections"]["Outcomes"] = ["x"]
        with pytest.raises(MalformedJson, match="unknown section name 'Outcomes'"):
            parse_record(obj)

    def test_missing_section(self):
        obj = _record_obj()
        del obj["sections"]["results"]
        with pytest.raises(MalformedJson, match="missing section 'results'"):
            parse_record(obj)

    def test_empty_sentence(self):
        obj = _record_obj()
        obj["sections"]["results"] = ["  "]
        with pytest.raises(MalformedJson, match=r"empty sentence at results\[0\]"):
            parse_record(obj)

    def test_arms_key_is_ignored(self):
        """Like any other extra key, even when it is not a valid arm model."""
        rec = parse_record(_record_obj(arms={"labels": ["a"], "tags": [1]}))
        assert rec == parse_record(_record_obj())

    def test_whitespace_normalized(self):
        obj = _record_obj()
        obj["sections"]["results"] = ["response \t improved\n markedly"]
        rec = parse_record(obj)
        assert rec.sections["results"][0] == "response improved markedly"


class TestLoadCorpus:
    def test_single_file_list(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([_record_obj("a"), _record_obj("b")]))
        corpus = load_corpus(path)
        assert sorted(corpus) == ["a", "b"]

    def test_directory_of_files(self, tmp_path):
        (tmp_path / "one.json").write_text(json.dumps(_record_obj("a")))
        (tmp_path / "two.json").write_text(json.dumps(_record_obj("b")))
        assert sorted(load_corpus(tmp_path)) == ["a", "b"]

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([_record_obj("a"), _record_obj("a")]))
        with pytest.raises(MalformedJson, match="duplicate ctr_id 'a'"):
            load_corpus(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text("{not json")
        with pytest.raises(MalformedJson):
            load_corpus(path)


class TestParseClaim:
    def test_single_claim(self):
        claim = parse_claim(_claim_obj())
        assert claim.secondary_ctr is None
        assert claim.ctr_ids == ("ct-1",)
        assert claim.gold_evidence == {"ct-1": frozenset({0})}

    def test_comparison_claim(self):
        claim = parse_claim(_claim_obj(secondary_ctr="ct-2", evidence={"ct-1": [0], "ct-2": [1]}))
        assert claim.secondary_ctr == "ct-2"
        assert claim.ctr_ids == ("ct-1", "ct-2")

    def test_unlabeled_claim(self):
        obj = _claim_obj()
        del obj["label"]
        del obj["evidence"]
        claim = parse_claim(obj)
        assert claim.gold_label is None
        assert claim.gold_evidence is None

    def test_evidence_for_foreign_trial(self):
        with pytest.raises(MalformedJson):
            parse_claim(_claim_obj(evidence={"ct-9": [0]}))

    def test_bad_label(self):
        with pytest.raises(MalformedJson):
            parse_claim(_claim_obj(label="Neutral"))

    def test_bad_section(self):
        with pytest.raises(MalformedJson):
            parse_claim(_claim_obj(section_id="outcomes"))


@pytest.mark.parametrize(
    "parse, obj",
    [
        (parse_record, _record_obj(ctr_id=[1])),
        (parse_record, _record_obj(ctr_id=7)),
        (parse_claim, _claim_obj(claim_id=["x"])),
        (parse_claim, _claim_obj(text=12345)),
        (parse_claim, _claim_obj(section_id=None)),
        (parse_claim, _claim_obj(primary_ctr=True)),
        (parse_claim, _claim_obj(secondary_ctr=["ct-2"])),
        (parse_claim, _claim_obj(challenge=3)),
        (parse_claim, _claim_obj(evidence={"ct-1": [True]})),
        (parse_claim, _claim_obj(evidence={"ct-1": [0, False]})),
    ],
    ids=[
        "ctr_id-list", "ctr_id-int", "claim_id-list", "text-int", "section_id-null",
        "primary_ctr-bool", "secondary_ctr-list", "challenge-int", "evidence-true",
        "evidence-false",
    ],
)
def test_non_string_field_or_bool_index_is_malformed(parse, obj):
    """Ids and texts are never coerced with str(), and a bool is not an index."""
    with pytest.raises(MalformedJson):
        parse(obj)


# Every JSON type, plus a few values that trip numeric or truthiness checks.
_FUZZ_VALUES = [
    None, True, 0, -1, 1.5, float("nan"), 10**30, "", "x", [], [1], ["a"], {}, {"a": 1},
]
_DELETED = object()


def _substituted(obj, path, value):
    """A deep copy of ``obj`` with the entry at ``path`` set to ``value``,
    or removed when ``value`` is ``_DELETED``; an empty path replaces it all."""
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETED:
        parent.pop(path[-1], None)
    else:
        parent[path[-1]] = value
    return obj


_COMPARISON = _claim_obj(
    secondary_ctr="ct-2", challenge="numeric", evidence={"ct-1": [0], "ct-2": [1]}
)
_FUZZ_TARGETS = {
    f"record-{'.'.join(path) or 'whole'}": (parse_record, _record_obj(), path)
    for path in [(), ("ctr_id",), ("sections",), *(("sections", name) for name in SECTION_NAMES)]
} | {
    f"{kind}-claim-{'.'.join(path) or 'whole'}": (parse_claim, base, path)
    for kind, base in (("single", _claim_obj()), ("comparison", _COMPARISON))
    for path in [
        (), *((key,) for key in _COMPARISON),
        *(("evidence", ctr) for ctr in base["evidence"]),
    ]
}


@pytest.mark.parametrize(
    "parse, base, path", list(_FUZZ_TARGETS.values()), ids=list(_FUZZ_TARGETS)
)
def test_any_json_value_parses_or_raises_a_ctrnli_error(parse, base, path):
    """Each field, each section list, each evidence list and the whole object,
    replaced by any JSON type or removed, either parses or is refused with a
    :class:`CtrnliError`; no other exception escapes."""
    values = _FUZZ_VALUES + ([_DELETED] if path else [])
    stray = []
    for value in values:
        try:
            parse(_substituted(base, path, value))
        except CtrnliError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other exception is the finding
            stray.append((value, repr(exc)))
    assert stray == []


_PREDICTION = {
    "claim_id": "c-1", "evidence_probs": [0.2, 0.9], "selected": [1],
    "class_probs": [0.3, 0.7], "verdict": "Contradiction", "fallback_used": False,
}
_PREDICTION_PATHS = [
    (), *((key,) for key in _PREDICTION),
    ("evidence_probs", 0), ("selected", 0), ("class_probs", 0),
]


@pytest.mark.parametrize(
    "path", _PREDICTION_PATHS, ids=[".".join(map(str, p)) or "whole" for p in _PREDICTION_PATHS]
)
def test_any_json_value_in_a_prediction_parses_or_raises_malformed_json(path):
    """Each prediction field, one item of each list and the whole object,
    replaced by any JSON type (an int past the float range included) or
    removed, either parses or is refused with :class:`MalformedJson`."""
    SystemPrediction.from_json_obj(_PREDICTION)  # the unmodified object parses
    values = _FUZZ_VALUES + [10**400] + ([_DELETED] if path and isinstance(path[-1], str) else [])
    stray = []
    for value in values:
        try:
            SystemPrediction.from_json_obj(_substituted(_PREDICTION, path, value))
        except MalformedJson:
            pass
        except Exception as exc:  # noqa: BLE001 - any other exception is the finding
            stray.append((value, repr(exc)))
    assert stray == []


@pytest.mark.parametrize(
    "parse, obj, error, fragment",
    [
        (parse_record, ["ct-1"], MalformedJson, "trial record must be a JSON object"),
        (parse_record, _substituted(_record_obj(), ("sections",), _DELETED), MalformedJson,
         "missing key 'sections'"),
        (parse_record, _record_obj(sections=[]), MalformedJson, "'sections' must be an object"),
        (parse_record, _substituted(_record_obj(), ("sections", "results"), ["a", 1]),
         MalformedJson, "section 'results' must be a list of strings"),
        (parse_claim, "c-1", MalformedJson, "claim must be a JSON object"),
        (parse_claim, _substituted(_claim_obj(), ("primary_ctr",), _DELETED), MalformedJson,
         "claim missing key 'primary_ctr'"),
        (parse_claim, _claim_obj(text=" \t\n "), MalformedJson, "c-1: empty claim text"),
        (parse_claim, _claim_obj(evidence=[0]), MalformedJson, "'evidence' must be an object"),
    ],
    ids=[
        "record-not-object", "record-missing-key", "sections-not-object",
        "section-not-strings", "claim-not-object", "claim-missing-key",
        "whitespace-only-text", "evidence-not-object",
    ],
)
def test_structural_refusals(parse, obj, error, fragment):
    with pytest.raises(error) as info:
        parse(obj)
    assert fragment in str(info.value)


class TestLoadClaims:
    def test_dangling_reference_raises_after_full_scan(self, tmp_path, corpus):
        objs = [
            _claim_obj(claim_id="ok", primary_ctr="trial-01", evidence={"trial-01": [0]}),
            _claim_obj(claim_id="bad-1", primary_ctr="nope-1", evidence={"nope-1": [0]}),
            _claim_obj(claim_id="bad-2", primary_ctr="nope-2", evidence={"nope-2": [0]}),
        ]
        path = tmp_path / "claims.json"
        path.write_text(json.dumps(objs))
        with pytest.raises(CtrnliError, match=r"2 claim\(s\) reference missing trials") as err:
            load_claims(path, corpus=corpus)
        # both offenders are reported, not just the first
        assert "bad-1" in str(err.value) and "bad-2" in str(err.value)

    def test_lenient_skips_dangling(self, tmp_path, corpus):
        objs = [
            _claim_obj(claim_id="ok", primary_ctr="trial-01", evidence={"trial-01": [0]}),
            _claim_obj(claim_id="bad", primary_ctr="nope", evidence={"nope": [0]}),
        ]
        path = tmp_path / "claims.json"
        path.write_text(json.dumps(objs))
        claims = load_claims(path, corpus=corpus, lenient=True)
        assert [c.claim_id for c in claims] == ["ok"]

    def test_split_directory(self, tmp_path):
        (tmp_path / "train.json").write_text(json.dumps([_claim_obj()]))
        claims = load_claims(tmp_path, split="train")
        assert len(claims) == 1

    def test_duplicate_claim_id(self, tmp_path):
        objs = [_claim_obj(claim_id="c-1"), _claim_obj(claim_id="c-2"), _claim_obj(claim_id="c-1")]
        path = tmp_path / "claims.json"
        path.write_text(json.dumps(objs))
        with pytest.raises(CtrnliError, match="duplicate claim_id 'c-1'"):
            load_claims(path)


class TestResolvePremise:
    def test_single_claim_scopes_to_section(self, corpus, claims):
        claim = claims[0]
        premise = resolve_premise(claim, corpus)
        section = corpus[claim.primary_ctr].sections[claim.section_id]
        assert premise.texts == section

    def test_comparison_orders_primary_first(self, corpus, claims):
        claim = next(c for c in claims if c.secondary_ctr is not None)
        premise = resolve_premise(claim, corpus)
        n_primary = len(corpus[claim.primary_ctr].sections[claim.section_id])
        assert premise.spans == {
            claim.primary_ctr: (0, n_primary), claim.secondary_ctr: (n_primary, premise.n)
        }
        for g in range(premise.n):
            if g < n_primary:
                assert premise.to_global(claim.primary_ctr, g) == g
            else:
                assert premise.to_global(claim.secondary_ctr, g - n_primary) == g

    def test_global_indices_contiguous(self, corpus, claims):
        for claim in claims:
            premise = resolve_premise(claim, corpus)
            spans = list(premise.spans.values())
            assert spans[0][0] == 0 and spans[-1][1] == premise.n
            assert all(end == start for (_, end), (start, _) in zip(spans, spans[1:]))

    def test_gold_globals_worked_example(self):
        """Primary has 5 sentences and gold {2}; secondary gold {0} lands at 5."""
        recs = {}
        for cid, n in (("p", 5), ("s", 4)):
            obj = _record_obj(cid)
            obj["sections"]["results"] = [f"{cid} sentence {i}" for i in range(n)]
            recs[cid] = parse_record(obj)
        claim = parse_claim(
            _claim_obj(
                primary_ctr="p",
                secondary_ctr="s",
                evidence={"p": [2], "s": [0]},
            )
        )
        premise = resolve_premise(claim, recs)
        assert premise.n == 9
        assert sorted(gold_evidence_globals(claim, premise)) == [2, 5]

    def test_comparison_of_a_trial_with_itself_rejected(self):
        """Both halves of such a premise carry one trial id, so its evidence
        indices could not be range-checked per half."""
        with pytest.raises(MalformedJson, match="two different trials"):
            parse_claim(_claim_obj(secondary_ctr="ct-1"))

    @pytest.mark.parametrize("n_primary", [5, 0])
    def test_primary_index_past_its_section_raises(self, n_primary):
        """Primary index == its section length is out of range; it must not
        land on the secondary trial's first sentence."""
        recs = {}
        for cid, n in (("p", n_primary), ("s", 4)):
            obj = _record_obj(cid)
            obj["sections"]["results"] = [f"{cid} sentence {i}" for i in range(n)]
            recs[cid] = parse_record(obj)
        claim = parse_claim(
            _claim_obj(primary_ctr="p", secondary_ctr="s", evidence={"p": [n_primary]})
        )
        premise = resolve_premise(claim, recs)
        assert premise.spans["s"][0] == n_primary
        with pytest.raises(EvidenceIndexOutOfRange):
            premise.to_global("p", n_primary)
        with pytest.raises(EvidenceIndexOutOfRange, match=rf"c-1: .*{n_primary} .*'p'"):
            gold_evidence_globals(claim, premise)
        assert premise.to_global("s", 3) == n_primary + 3
        with pytest.raises(EvidenceIndexOutOfRange):
            premise.to_global("s", 4)

    def test_arm_prefix_only_for_comparison(self, corpus, claims):
        single = next(c for c in claims if c.secondary_ctr is None)
        comparison = next(c for c in claims if c.secondary_ctr is not None)
        assert resolve_premise(single, corpus, True).texts == resolve_premise(
            single, corpus, False
        ).texts
        marked = resolve_premise(comparison, corpus, True).texts
        assert all(
            t.startswith("primary trial:") or t.startswith("secondary trial:") for t in marked
        )

    def test_missing_trial(self, corpus):
        claim = parse_claim(_claim_obj(primary_ctr="absent", evidence={"absent": [0]}))
        with pytest.raises(CtrnliError, match="missing trial 'absent'"):
            resolve_premise(claim, corpus)


class TestValidateDataset:
    def test_fixture_is_clean(self, corpus, claims):
        assert validate_dataset(corpus, claims).ok

    def test_reports_instead_of_raising(self, corpus, claims):
        broken = ClaimInstance(
            claim_id="x",
            text="t",
            section_id="results",
            primary_ctr="missing-trial",
            secondary_ctr=None,
            gold_label="Entailment",
            gold_evidence={"missing-trial": frozenset({99})},
        )
        report = validate_dataset(corpus, list(claims) + [broken])
        codes = {v.code for v in report.violations}
        assert "DanglingCtrReference" in codes
        assert not report.ok
        assert "dataset invalid" in report.render()

    def test_duplicate_claim_id(self, corpus, claims):
        report = validate_dataset(corpus, list(claims) + [claims[3]])
        dups = [v for v in report.violations if v.code == "DuplicateClaimId"]
        assert [v.claim_id for v in dups] == [claims[3].claim_id]
        assert len(report.violations) == 1

    def test_out_of_range_evidence(self, corpus, claims):
        template = claims[0]
        broken = ClaimInstance(
            claim_id="oob",
            text=template.text,
            section_id=template.section_id,
            primary_ctr=template.primary_ctr,
            secondary_ctr=None,
            gold_label="Entailment",
            gold_evidence={template.primary_ctr: frozenset({99})},
        )
        report = validate_dataset(corpus, [broken])
        assert {v.code for v in report.violations} == {"EvidenceIndexOutOfRange"}


class TestSerialization:
    def test_corpus_roundtrip(self, tmp_path, corpus):
        path = tmp_path / "corpus.json"
        dump_corpus(corpus, path)
        again = load_corpus(path)
        assert set(again) == set(corpus)
        for cid in corpus:
            assert again[cid] == corpus[cid]

    def test_claims_roundtrip(self, tmp_path, claims):
        path = tmp_path / "claims.json"
        dump_claims(claims, path)
        again = load_claims(path)
        assert again == list(claims)

    def test_write_fixture_reproduces_bundled_data(self, tmp_path):
        """data/fixture holds exactly what write_fixture writes, byte for byte."""
        for path in write_fixture(tmp_path):
            assert path.read_bytes() == (FIXTURE / path.name).read_bytes(), path.name

    def test_dump_is_deterministic(self, tmp_path, corpus, claims):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump_claims(claims, a)
        dump_claims(claims, b)
        assert a.read_bytes() == b.read_bytes()


def test_normalize_text_idempotent():
    raw = "  Fifty eight  percent \t improved\n\n"
    once = normalize_text(raw)
    assert normalize_text(once) == once
    assert "  " not in once


def test_labels_order_fixed():
    """Entailment must stay at index 0: verdict ties resolve toward it."""
    assert LABELS == ("Entailment", "Contradiction")
