"""Probability averaging, the selection cap, and prediction file I/O."""

import dataclasses
import json
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ctrnli.config import RunConfig
from ctrnli.ensemble import (
    EnsembleConfig,
    cap_prediction,
    combine,
    ensemble_predictions,
    load_predictions,
    save_predictions,
)
from ctrnli.errors import CtrnliError, MalformedJson
from ctrnli.pipeline import SystemPrediction, select_evidence, verdict_from_probs


def _pred(claim_id="c-1", ev=(0.9, 0.1), cp=(0.8, 0.2), threshold=0.5):
    selected, fallback_used = select_evidence(ev, threshold)
    return SystemPrediction(
        claim_id=claim_id,
        evidence_probs=tuple(ev),
        selected=selected,
        class_probs=tuple(cp),
        verdict=verdict_from_probs(cp),
        fallback_used=fallback_used,
    )


DEFAULT = EnsembleConfig()


def _capped(probs, selected, cfg):
    """The indices ``cap_prediction`` keeps of ``selected``."""
    pred = dataclasses.replace(_pred(ev=probs), selected=tuple(selected))
    return cap_prediction(pred, cfg).selected


class TestConfig:
    def test_defaults(self):
        assert (DEFAULT.w_pipeline, DEFAULT.w_joint) == (0.4, 0.6)
        assert DEFAULT.max_evidence == 20

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            EnsembleConfig(w_pipeline=0.5, w_joint=0.6)

    def test_weights_must_be_non_negative(self):
        with pytest.raises(ValueError):
            EnsembleConfig(w_pipeline=-0.2, w_joint=1.2)

    def test_degenerate_weights_allowed(self):
        EnsembleConfig(w_pipeline=1.0, w_joint=0.0)
        EnsembleConfig(w_pipeline=0.0, w_joint=1.0)

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            EnsembleConfig(max_evidence=0)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("max_evidence", {"max_evidence": 2.5}),
            ("max_evidence", {"max_evidence": True}),
            ("max_evidence", {"max_evidence": "3"}),
            ("w_pipeline", {"w_pipeline": True, "w_joint": False}),
            ("w_pipeline", {"w_pipeline": float("nan"), "w_joint": float("nan")}),
            ("w_pipeline", {"w_pipeline": "0.4"}),
            ("w_joint", {"w_pipeline": 0.5, "w_joint": float("inf")}),
            ("w_joint", {"w_pipeline": 1.0, "w_joint": None}),
        ],
    )
    def test_bad_value_is_refused_by_name(self, field, kwargs):
        """Types and non-finite numbers that used to slip through or end
        in a TypeError are refused with a ValueError naming the field."""
        with pytest.raises(ValueError, match=f"^{field} must be"):
            EnsembleConfig(**kwargs)

    @pytest.mark.parametrize("value", [1.5, float("nan"), False])
    def test_threshold_is_the_run_configs(self, value):
        """The ensemble gates at the run's one threshold, checked by RunConfig."""
        assert "threshold" not in {f.name for f in dataclasses.fields(EnsembleConfig)}
        with pytest.raises(ValueError, match="^threshold must be"):
            RunConfig(threshold=value)

    def test_integral_numpy_values_pass(self):
        cfg = EnsembleConfig(w_pipeline=np.float64(0.25), w_joint=0.75, max_evidence=np.int64(3))
        assert cfg.max_evidence == 3

    def test_unknown_task_restriction(self):
        with pytest.raises(ValueError):
            EnsembleConfig(tasks="verdicts")


class TestCombine:
    def test_worked_value(self):
        """0.4 * 0.8 + 0.6 * 0.5 = 0.62 on the first class."""
        a = _pred(cp=(0.8, 0.2))
        b = _pred(cp=(0.5, 0.5))
        out = combine(a, b, DEFAULT, 0.5)
        assert abs(out.class_probs[0] - 0.62) < 1e-12
        assert abs(out.class_probs[1] - 0.38) < 1e-12
        assert out.verdict == "Entailment"

    def test_identity(self):
        a = _pred(ev=(0.9, 0.3, 0.7), cp=(0.25, 0.75))
        out = combine(a, a, DEFAULT, 0.5)
        np.testing.assert_allclose(out.evidence_probs, a.evidence_probs, atol=1e-12)
        np.testing.assert_allclose(out.class_probs, a.class_probs, atol=1e-12)
        assert out.selected == a.selected
        assert out.verdict == a.verdict
        assert out.fallback_used == a.fallback_used

    def test_degenerate_weights_reproduce_members(self):
        a = _pred(ev=(0.9, 0.1), cp=(0.8, 0.2))
        b = _pred(ev=(0.2, 0.6), cp=(0.3, 0.7))
        only_a = combine(a, b, EnsembleConfig(w_pipeline=1.0, w_joint=0.0), 0.5)
        only_b = combine(a, b, EnsembleConfig(w_pipeline=0.0, w_joint=1.0), 0.5)
        assert only_a == a
        assert only_b == b

    def test_convexity(self):
        a = _pred(ev=(0.9, 0.1, 0.4), cp=(0.8, 0.2))
        b = _pred(ev=(0.2, 0.6, 0.5), cp=(0.3, 0.7))
        out = combine(a, b, DEFAULT, 0.5)
        for p, pa, pb in zip(out.evidence_probs, a.evidence_probs, b.evidence_probs):
            assert min(pa, pb) - 1e-12 <= p <= max(pa, pb) + 1e-12
        for p, pa, pb in zip(out.class_probs, a.class_probs, b.class_probs):
            assert min(pa, pb) - 1e-12 <= p <= max(pa, pb) + 1e-12

    def test_selection_recomputed_from_averaged_probs(self):
        # a selects {0}, b selects {1}; the average selects only index 1
        a = _pred(ev=(0.6, 0.45))
        b = _pred(ev=(0.3, 0.9))
        out = combine(a, b, DEFAULT, 0.5)
        expected, _ = select_evidence(out.evidence_probs, 0.5)
        assert set(out.selected) == set(expected)
        assert out.selected == (1,)

    def test_threshold_argument_gates_the_averaged_probs(self):
        """Averages (0.4, 0.35, 0.1): fallback to [0] at 0.5, both above 0.3."""
        a = b = _pred(ev=(0.4, 0.35, 0.1))
        assert combine(a, b, DEFAULT, 0.5).selected == (0,)
        assert combine(a, b, DEFAULT, 0.3).selected == (0, 1)
        assert ensemble_predictions([a], [b], DEFAULT, 0.3)[0].selected == (0, 1)

    def test_fallback_recomputed(self):
        a = _pred(ev=(0.55, 0.1))
        b = _pred(ev=(0.4, 0.3))
        out = combine(a, b, DEFAULT, 0.5)
        # averaged probs are (0.46, 0.22): nothing clears 0.5
        assert out.fallback_used
        assert out.selected == (0,)

    def test_mismatched_claim(self):
        with pytest.raises(CtrnliError, match="cannot combine predictions for 'x' and 'y'"):
            combine(_pred(claim_id="x"), _pred(claim_id="y"), DEFAULT, 0.5)

    def test_mismatched_premise_length(self):
        with pytest.raises(CtrnliError, match="premise lengths 2 != 3"):
            combine(_pred(ev=(0.9, 0.1)), _pred(ev=(0.9, 0.1, 0.5)), DEFAULT, 0.5)

    def test_never_caps(self):
        """Averaging leaves large selections alone; the cap is separate."""
        n = 30
        a = _pred(ev=tuple([0.9] * n))
        b = _pred(ev=tuple([0.8] * n))
        out = combine(a, b, DEFAULT, 0.5)
        assert len(out.selected) == 30

    def test_evidence_only_restriction(self):
        a = _pred(ev=(0.9, 0.1), cp=(0.8, 0.2))
        b = _pred(ev=(0.2, 0.9), cp=(0.1, 0.9))
        out = combine(a, b, EnsembleConfig(tasks="evidence"), 0.5)
        assert out.class_probs == a.class_probs
        assert out.verdict == a.verdict
        assert out.evidence_probs != a.evidence_probs

    def test_entailment_only_restriction(self):
        a = _pred(ev=(0.9, 0.1), cp=(0.8, 0.2))
        b = _pred(ev=(0.2, 0.9), cp=(0.1, 0.9))
        out = combine(a, b, EnsembleConfig(tasks="entailment"), 0.5)
        assert out.evidence_probs == a.evidence_probs
        assert out.selected == a.selected
        assert out.class_probs != a.class_probs


class TestCap:
    def test_under_budget_unchanged(self):
        kept = _capped((0.9, 0.8, 0.7), (0, 1, 2), DEFAULT)
        assert kept == (0, 1, 2)

    def test_over_budget_keeps_top_probabilities(self):
        probs = tuple(np.linspace(0.99, 0.55, 25))
        kept = _capped(probs, range(25), DEFAULT)
        assert kept == tuple(range(20))

    def test_tie_breaks_toward_lower_index(self):
        probs = tuple([0.9] * 22)
        kept = _capped(probs, range(22), EnsembleConfig(max_evidence=20))
        assert kept == tuple(range(20))

    def test_boundary_tie_among_distinct_probs(self):
        # 22 selected, and the budget boundary lands inside a tied trio at
        # indices 19, 20, 21: the two lowest-indexed of the trio survive
        probs = [0.99 - 0.01 * i for i in range(19)] + [0.6, 0.6, 0.6]
        kept = _capped(tuple(probs), range(22), EnsembleConfig(max_evidence=21))
        assert kept == tuple(range(21))

    def test_cap_one(self):
        kept = _capped((0.6, 0.9, 0.7), (0, 1, 2), EnsembleConfig(max_evidence=1))
        assert kept == (1,)

    def test_cap_prediction_replaces_selected(self):
        n = 25
        pred = _pred(ev=tuple([0.9 - 0.001 * i for i in range(n)]))
        capped = cap_prediction(pred, DEFAULT)
        assert len(capped.selected) == 20
        assert capped.selected == tuple(range(20))
        assert capped.evidence_probs == pred.evidence_probs

    def test_cap_prediction_noop_returns_same_object(self):
        pred = _pred(ev=(0.9, 0.8))
        assert cap_prediction(pred, DEFAULT) is pred


class TestEnsemblePredictions:
    def test_pairs_by_claim_id_keeps_first_order(self):
        a = [_pred(claim_id="c2", cp=(0.9, 0.1)), _pred(claim_id="c1", cp=(0.2, 0.8))]
        b = [_pred(claim_id="c1", cp=(0.4, 0.6)), _pred(claim_id="c2", cp=(0.7, 0.3))]
        out = ensemble_predictions(a, b, DEFAULT)
        assert [p.claim_id for p in out] == ["c2", "c1"]
        assert out[0].class_probs[0] == pytest.approx(0.4 * 0.9 + 0.6 * 0.7)

    def test_missing_claim_rejected(self):
        with pytest.raises(CtrnliError, match=r"different claims \(missing from second: \['c1'\]"):
            ensemble_predictions([_pred(claim_id="c1")], [_pred(claim_id="c2")], DEFAULT)

    def test_extra_claim_rejected(self):
        a = [_pred(claim_id="c1")]
        b = [_pred(claim_id="c1"), _pred(claim_id="c2")]
        with pytest.raises(CtrnliError, match=r"only in second: \['c2'\]"):
            ensemble_predictions(a, b, DEFAULT)

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_repeated_claim_rejected(self, which):
        full = [_pred(claim_id="c1"), _pred(claim_id="c2")]
        dup = full + [_pred(claim_id="c1")]
        a, b = (dup, full) if which == "first" else (full, dup)
        with pytest.raises(CtrnliError, match=f"duplicate claim_id 'c1' in the {which}"):
            ensemble_predictions(a, b, DEFAULT)

    def test_repeated_pairs_share_one_result(self):
        """Claims whose members re-issue the same two predictions get one
        combined and capped result, re-issued under each claim's id."""
        ev = tuple([0.9] * 25)
        a, b = _pred(claim_id="c0", ev=ev), _pred(claim_id="c0", ev=ev, cp=(0.3, 0.7))
        preds_a = [a, a._renamed("c1"), a._renamed("c2")]
        preds_b = [b._renamed("c2"), b, b._renamed("c1")]
        out = ensemble_predictions(preds_a, preds_b, DEFAULT)
        assert [p.claim_id for p in out] == ["c0", "c1", "c2"]
        assert out[1].selected is out[0].selected and out[2].class_probs is out[0].class_probs
        assert out == [
            cap_prediction(combine(p, {q.claim_id: q for q in preds_b}[p.claim_id], DEFAULT, 0.5),
                           DEFAULT)
            for p in preds_a
        ]

    def test_caps_after_combining(self):
        n = 25
        ev = tuple([0.9] * n)
        out = ensemble_predictions([_pred(ev=ev)], [_pred(ev=ev)], DEFAULT)
        assert len(out[0].selected) == 20


class TestPredictionFiles:
    def test_round_trip(self, tmp_path):
        preds = [
            _pred(claim_id="c1", ev=(0.9, 0.2), cp=(0.7, 0.3)),
            _pred(claim_id="c2", ev=(0.1, 0.1), cp=(0.4, 0.6)),
        ]
        path = tmp_path / "preds.json"
        save_predictions(preds, path)
        assert load_predictions(path) == preds

    def test_byte_deterministic(self, tmp_path):
        preds = [_pred(claim_id="c1")]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_predictions(preds, p1)
        save_predictions(preds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_predictions(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MalformedJson):
            load_predictions(path)

    def test_repeated_claim_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        save_predictions([_pred(claim_id="c1"), _pred(claim_id="c2"), _pred(claim_id="c1")], path)
        with pytest.raises(CtrnliError, match="duplicate claim_id 'c1'"):
            load_predictions(path)

    def test_non_list_payload(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text('{"claim_id": "c1"}')
        with pytest.raises(MalformedJson):
            load_predictions(path)

    def test_reissued_predictions_are_written_as_json_dumps_writes_them(self, tmp_path):
        """Re-issued predictions, given as a list and as a generator of new
        predictions that it drops, are written in the json module's bytes.
        While the generator runs, every prediction whose text was stored is
        still alive, so no field object of it can pass its id on to a later
        record."""
        stored = []

        def stream():
            for i in range(200):
                cp = (0.5 + i / 1000, 0.5 - i / 1000)
                pred = _pred(claim_id=f"c{i}", ev=(i / 200, 0.75), cp=cp)
                stored.append(weakref.ref(pred))
                yield pred
                yield pred._renamed(f"c{i}-again")
                del pred
                assert all(ref() is not None for ref in stored)

        preds = list(stream())
        expected = json.dumps([dataclasses.asdict(p) for p in preds], sort_keys=True, indent=2)
        for preds in (preds, stream()):
            stored.clear()
            save_predictions(preds, tmp_path / "preds.json")
            assert (tmp_path / "preds.json").read_text() == f"{expected}\n"

    def test_identical_records_share_fields_but_a_signed_zero_is_kept(self, tmp_path):
        """A record equal to an earlier one apart from ``claim_id`` is that
        prediction re-issued; records holding a zero are parsed on their own,
        so ``-0.0`` and ``0.0`` stay as written, and the file saves back to
        its own bytes."""
        preds = [
            _pred(claim_id="a", ev=(0.9, 0.25)),
            _pred(claim_id="b", ev=(0.9, 0.25)),
            _pred(claim_id="c", ev=(0.9, -0.0)),
            _pred(claim_id="d", ev=(0.9, 0.0)),
            _pred(claim_id="e", ev=(0.9, -0.0)),
        ]
        path = tmp_path / "preds.json"
        save_predictions(preds, path)
        a, b, c, d, e = load_predictions(path)
        assert [p.claim_id for p in (a, b, c, d, e)] == list("abcde")
        for field in ("evidence_probs", "selected", "class_probs", "verdict", "fallback_used"):
            assert getattr(b, field) is getattr(a, field), field
        assert [repr(p.evidence_probs[1]) for p in (c, d, e)] == ["-0.0", "0.0", "-0.0"]
        assert c.evidence_probs is not e.evidence_probs
        save_predictions([a, b, c, d, e], tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_reads_external_minimal_shape(self, tmp_path):
        """Files without the optional fallback flag still load."""
        path = tmp_path / "ext.json"
        path.write_text(
            '[{"claim_id": "c9", "evidence_probs": [0.9], "selected": [0],'
            ' "class_probs": [0.6, 0.4], "verdict": "Entailment"}]'
        )
        preds = load_predictions(path)
        assert preds[0].claim_id == "c9"
        assert preds[0].fallback_used is False


class TestEndToEnd:
    def test_ensemble_of_trained_systems(self, corpus, claims, pipeline_model, joint_model):
        """Averaging two systems that agree perfectly preserves their output."""
        from ctrnli.joint import predict_joint
        from ctrnli.pipeline import predict_pipeline

        a = [predict_pipeline(c, corpus, pipeline_model) for c in claims]
        b = [predict_joint(c, corpus, joint_model) for c in claims]
        out = ensemble_predictions(a, b, DEFAULT)
        for pred, claim in zip(out, claims):
            assert pred.verdict == claim.gold_label


# every number type a prediction may hold, and floats whose repr is unusual
_PROBS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0).map(np.float64),
    st.sampled_from([-0.0, np.float64(-0.0), 5e-324, 1e-310, 1e-300, 1e-5, 0, 1, True, False]),
)
_CLAIM_IDS = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=6),  # surrogates included
    st.sampled_from(["c-1", "é日本", "\x00\x1f\x7f\"\\/", "\ud800", "a\udfffb", "\U0001f600"]),
)


@st.composite
def _any_prediction(draw):
    ev = draw(st.lists(_PROBS, max_size=5))
    selected = sorted(draw(st.sets(st.integers(0, len(ev) - 1)))) if ev else []
    p0 = draw(_PROBS)
    cp = draw(st.sampled_from([(p0, 1 - p0), (1 - p0, p0)]))
    return SystemPrediction(
        claim_id=draw(_CLAIM_IDS),
        evidence_probs=tuple(ev),
        selected=tuple(selected),
        class_probs=cp,
        verdict=verdict_from_probs(cp),
        fallback_used=draw(st.booleans()),
    )


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(preds=st.lists(_any_prediction(), max_size=3))
@example(preds=[])
@example(preds=[SystemPrediction("c-1", (), (), (1, 0), "Entailment")])
def test_save_predictions_matches_json_dumps(tmp_path, preds):
    """The direct writer's bytes are the json module's indented encoding."""
    path = tmp_path / "preds.json"
    save_predictions(preds, path)
    expected = json.dumps([dataclasses.asdict(p) for p in preds], sort_keys=True, indent=2)
    assert path.read_bytes() == (expected + "\n").encode("utf-8")
