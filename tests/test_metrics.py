"""Scoring through ``build_report``, the one scorer: confusion counts,
micro/macro aggregation, refusals, report round-trips."""

import json

import pytest

from ctrnli.corpus import read_json
from ctrnli.errors import CtrnliError, MalformedJson
from ctrnli.metrics import (
    PRF,
    GoldClaim,
    build_gold_view,
    build_report,
    render_table,
    write_report,
)
from ctrnli.pipeline import SystemPrediction


def _pred(claim_id, selected, n, verdict="Entailment"):
    probs = tuple(0.9 if i in selected else 0.1 for i in range(n))
    cp = (0.8, 0.2) if verdict == "Entailment" else (0.2, 0.8)
    return SystemPrediction(
        claim_id=claim_id,
        evidence_probs=probs,
        selected=tuple(sorted(selected)),
        class_probs=cp,
        verdict=verdict,
    )


def _gold(claim_id, evidence, n, label="Entailment"):
    return GoldClaim(
        claim_id=claim_id, n_sentences=n, evidence=frozenset(evidence), label=label
    )


class TestPRF:
    def test_from_counts(self):
        prf = PRF.from_counts(tp=3, fp=1, fn=2, tn=4)
        assert prf.precision == pytest.approx(0.75)
        assert prf.recall == pytest.approx(0.6)
        assert prf.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)

    def test_zero_over_zero_is_zero(self):
        prf = PRF.from_counts(tp=0, fp=0, fn=0, tn=5)
        assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)

    def test_zero_precision_nonzero_recall(self):
        prf = PRF.from_counts(tp=0, fp=3, fn=0, tn=0)
        assert prf.precision == 0.0
        assert prf.f1 == 0.0


class TestEvidenceMetrics:
    def test_worked_example(self):
        """Selected {0, 2}, gold {0, 1} of 3: one of each count."""
        preds = [_pred("c", {0, 2}, 3)]
        golds = {"c": _gold("c", {0, 1}, 3)}
        prf = build_report(preds, golds).evidence_micro
        assert (prf.tp, prf.fp, prf.fn, prf.tn) == (1, 1, 1, 0)
        assert prf.precision == pytest.approx(0.5)
        assert prf.recall == pytest.approx(0.5)
        assert prf.f1 == pytest.approx(0.5)

    def test_perfect_selection(self):
        preds = [_pred("c", {1, 3}, 5)]
        golds = {"c": _gold("c", {1, 3}, 5)}
        prf = build_report(preds, golds).evidence_micro
        assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)

    def test_select_everything(self):
        """Selecting all 10 sentences against one gold: recall 1, precision 0.1."""
        preds = [_pred("c", set(range(10)), 10)]
        golds = {"c": _gold("c", {4}, 10)}
        prf = build_report(preds, golds).evidence_micro
        assert prf.recall == 1.0
        assert prf.precision == pytest.approx(0.1)

    def test_micro_pools_counts(self):
        preds = [_pred("a", {0}, 2), _pred("b", {0, 1}, 3)]
        golds = {"a": _gold("a", {0, 1}, 2), "b": _gold("b", {0}, 3)}
        prf = build_report(preds, golds).evidence_micro
        # a: tp=1 fn=1; b: tp=1 fp=1
        assert (prf.tp, prf.fp, prf.fn) == (2, 1, 1)
        assert prf.precision == pytest.approx(2 / 3)
        assert prf.recall == pytest.approx(2 / 3)

    def test_macro_averages_rates(self):
        preds = [_pred("a", {0}, 2), _pred("b", {0, 1}, 3)]
        golds = {"a": _gold("a", {0, 1}, 2), "b": _gold("b", {0}, 3)}
        report = build_report(preds, golds)
        micro, macro = report.evidence_micro, report.evidence_macro
        # a: P=1 R=0.5 F1=2/3; b: P=0.5 R=1 F1=2/3
        assert macro.precision == pytest.approx(0.75)
        assert macro.recall == pytest.approx(0.75)
        assert macro.f1 == pytest.approx(2 / 3)
        # counts stay the pooled totals in both modes
        assert (macro.tp, macro.fp, macro.fn, macro.tn) == (micro.tp, micro.fp, micro.fn, micro.tn)

    def test_permutation_invariant(self):
        preds = [_pred("a", {0}, 2), _pred("b", {0, 1}, 3), _pred("c", {1}, 2)]
        golds = {
            "a": _gold("a", {0, 1}, 2),
            "b": _gold("b", {0}, 3),
            "c": _gold("c", {0}, 2),
        }
        forward = build_report(preds, golds)
        backward = build_report(list(reversed(preds)), golds)
        assert forward.evidence_micro == backward.evidence_micro
        assert forward.evidence_macro == backward.evidence_macro

    def test_empty_predictions_rejected(self):
        with pytest.raises(CtrnliError, match="no predictions to score"):
            build_report([], {})

    def test_unlabeled_gold_rejected(self):
        """A labelled claim without gold evidence has no evidence to score."""
        preds = [_pred("c", {0}, 2)]
        golds = {"c": GoldClaim("c", 2, evidence=None, label="Entailment")}
        with pytest.raises(CtrnliError, match="claim c has no gold evidence"):
            build_report(preds, golds)

    def test_unknown_claim_rejected(self):
        with pytest.raises(CtrnliError, match="no gold annotations for claim ghost"):
            build_report([_pred("ghost", {0}, 2)], {})

    def test_length_mismatch(self):
        preds = [_pred("c", {0}, 2)]
        golds = {"c": _gold("c", {0}, 5)}
        with pytest.raises(CtrnliError, match="covers 2 sentences but the premise has 5"):
            build_report(preds, golds)


class TestEntailmentMetrics:
    def test_all_entailment_on_balanced_golds(self):
        """Predicting the positive class everywhere: P=0.5, R=1."""
        preds = [_pred(f"c{i}", {0}, 1, "Entailment") for i in range(4)]
        golds = {
            "c0": _gold("c0", {0}, 1, "Entailment"),
            "c1": _gold("c1", {0}, 1, "Entailment"),
            "c2": _gold("c2", {0}, 1, "Contradiction"),
            "c3": _gold("c3", {0}, 1, "Contradiction"),
        }
        prf = build_report(preds, golds).entailment
        assert prf.precision == pytest.approx(0.5)
        assert prf.recall == 1.0
        assert (prf.tp, prf.fp, prf.fn, prf.tn) == (2, 2, 0, 0)

    def test_perfect_verdicts(self):
        preds = [
            _pred("c0", {0}, 1, "Entailment"),
            _pred("c1", {0}, 1, "Contradiction"),
        ]
        golds = {
            "c0": _gold("c0", {0}, 1, "Entailment"),
            "c1": _gold("c1", {0}, 1, "Contradiction"),
        }
        report = build_report(preds, golds)
        assert report.entailment.f1 == 1.0
        assert report.entailment_macro_f1 == 1.0

    def test_inverted_verdicts(self):
        """Always predicting the wrong class zeroes every F1, while the
        evidence numbers are untouched by the verdict."""
        preds = [
            _pred("c0", {0}, 1, "Contradiction"),
            _pred("c1", {0}, 1, "Entailment"),
        ]
        golds = {
            "c0": _gold("c0", {0}, 1, "Entailment"),
            "c1": _gold("c1", {0}, 1, "Contradiction"),
        }
        report = build_report(preds, golds)
        assert report.entailment.f1 == 0.0
        assert report.entailment_macro_f1 == 0.0
        assert report.evidence_micro.f1 == 1.0

    def test_missing_label(self):
        preds = [_pred("c", {0}, 1)]
        golds = {"c": GoldClaim("c", 1, evidence=frozenset({0}), label=None)}
        with pytest.raises(CtrnliError, match="claim c has no gold label"):
            build_report(preds, golds)

    def test_macro_f1_averages_both_classes(self):
        # three golds E, one C; predictions all E except one miss
        preds = [
            _pred("c0", {0}, 1, "Entailment"),
            _pred("c1", {0}, 1, "Entailment"),
            _pred("c2", {0}, 1, "Contradiction"),
            _pred("c3", {0}, 1, "Entailment"),
        ]
        golds = {
            "c0": _gold("c0", {0}, 1, "Entailment"),
            "c1": _gold("c1", {0}, 1, "Entailment"),
            "c2": _gold("c2", {0}, 1, "Entailment"),
            "c3": _gold("c3", {0}, 1, "Contradiction"),
        }
        # Entailment: tp=2 fp=1 fn=1 -> F1 = 2/3; Contradiction: tp=0 fp=1 fn=1 -> 0
        assert build_report(preds, golds).entailment_macro_f1 == pytest.approx(1 / 3)


class TestGoldView:
    def test_covers_all_claims(self, corpus, claims, golds):
        assert set(golds) == {c.claim_id for c in claims}
        for claim in claims:
            gold = golds[claim.claim_id]
            assert gold.label == claim.gold_label
            assert gold.evidence is not None
            assert all(0 <= i < gold.n_sentences for i in gold.evidence)

    def test_unlabeled_claims_carry_none(self, corpus, claims):
        from dataclasses import replace

        unlabeled = [replace(claims[0], gold_evidence=None, gold_label=None)]
        view = build_gold_view(unlabeled, corpus)
        gold = view[claims[0].claim_id]
        assert gold.evidence is None and gold.label is None


class TestReport:
    def _report(self):
        preds = [
            _pred("c0", {0, 2}, 3, "Entailment"),
            _pred("c1", {1}, 2, "Contradiction"),
        ]
        golds = {
            "c0": _gold("c0", {0, 1}, 3, "Entailment"),
            "c1": _gold("c1", {1}, 2, "Entailment"),
        }
        return build_report(preds, golds, metadata={"split": "dev"})

    def test_missing_labelled_claim_refused(self):
        golds = {
            "c0": _gold("c0", {0}, 2, "Entailment"),
            "c1": _gold("c1", {1}, 2, None),
            "c2": _gold("c2", {1}, 2, "Contradiction"),
            "c3": _gold("c3", {1}, 2, "Contradiction"),
        }
        preds = [_pred("c0", {0}, 2)]
        message = r"2 labelled claim\(s\) have no prediction, the first is 'c2'"
        with pytest.raises(CtrnliError, match=message):
            build_report(preds, golds)
        # an unlabelled gold claim needs no prediction
        preds += [_pred("c2", {1}, 2, "Contradiction"), _pred("c3", {1}, 2, "Contradiction")]
        assert len(build_report(preds, golds).per_claim) == 3

    def test_prediction_for_unlabelled_claim_refused(self):
        """Coverage skips an unlabelled gold claim, but a prediction for one
        has no verdict to score against."""
        golds = {
            "c0": _gold("c0", {0}, 2, "Entailment"),
            "c1": _gold("c1", {1}, 2, None),
        }
        with pytest.raises(CtrnliError, match="claim c1 has no gold label"):
            build_report([_pred("c0", {0}, 2), _pred("c1", {1}, 2)], golds)

    def test_gold_label_outside_labels_refused(self):
        """A library-built gold claim labelled neither Entailment nor
        Contradiction would count as a negative for both classes."""
        golds = {"c0": _gold("c0", {0}, 2, "Entailment"), "c1": _gold("c1", {1}, 2, "Neutral")}
        with pytest.raises(CtrnliError, match="claim c1 has gold label 'Neutral' outside"):
            build_report([_pred("c0", {0}, 2), _pred("c1", {1}, 2)], golds)

    def test_repeated_prediction_refused(self):
        golds = {"c0": _gold("c0", {0}, 2, "Entailment")}
        with pytest.raises(CtrnliError, match="duplicate claim_id 'c0'"):
            build_report([_pred("c0", {0}, 2), _pred("c0", {0}, 2)], golds)

    def test_micro_counts_equal_per_claim_sums(self):
        report = self._report()
        assert report.evidence_micro.tp == sum(d["tp"] for d in report.per_claim)
        assert report.evidence_micro.fp == sum(d["fp"] for d in report.per_claim)
        assert report.evidence_micro.fn == sum(d["fn"] for d in report.per_claim)
        assert report.evidence_micro.tn == sum(d["tn"] for d in report.per_claim)

    def test_per_claim_diagnostics(self):
        report = self._report()
        by_id = {d["claim_id"]: d for d in report.per_claim}
        assert by_id["c0"]["verdict_correct"] is True
        assert by_id["c1"]["verdict_correct"] is False
        assert by_id["c0"]["n_selected"] == 2

    def test_json_schema_and_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "metrics.json"
        write_report(report, path)
        obj = read_json(path)
        assert obj["schema"] == "metrics/1"
        assert obj["metadata"] == {"split": "dev"}
        assert obj == report.to_json_obj()
        assert render_table(obj) == render_table(report.to_json_obj())

    def test_wrong_schema_rejected(self):
        with pytest.raises(MalformedJson):
            render_table({"schema": "metrics/99"})

    def test_write_is_byte_deterministic(self, tmp_path):
        report = self._report()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(report, a)
        write_report(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_render_table(self):
        text = render_table(self._report().to_json_obj())
        assert "Evidence (micro)" in text
        assert "Evidence (macro)" in text
        assert "Entailment" in text
        assert "Macro-F1" in text
        assert "claims: 2" in text
        # every value row carries three aligned numbers
        for row in ("Precision", "Recall", "F1"):
            line = next(l for l in text.splitlines() if l.startswith(row))
            assert len([tok for tok in line.split() if "." in tok]) == 3

    def test_fallback_count_in_table(self):
        pred = SystemPrediction(
            claim_id="c0",
            evidence_probs=(0.4, 0.1),
            selected=(0,),
            class_probs=(0.8, 0.2),
            verdict="Entailment",
            fallback_used=True,
        )
        golds = {"c0": _gold("c0", {0}, 2, "Entailment")}
        text = render_table(build_report([pred], golds).to_json_obj())
        assert "fallback used: 1" in text
