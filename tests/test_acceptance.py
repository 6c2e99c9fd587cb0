"""End-to-end acceptance checks.

One test per criterion. Each prints a single PASS/FAIL line on the real
stdout (bypassing capture) so the verdicts are readable in the run log;
the assertion underneath is the actual gate. Criteria:

A1  both systems memorize the bundled fixture quickly on CPU
A2  metric aggregation agrees exactly with a brute-force oracle
A3  ensemble averaging obeys identity/degenerate/convexity laws
A4  the selection rule matches its set-builder definition on a full grid
A5  analytic head gradients agree with central finite differences
A6  training and prediction are byte-deterministic under a fixed seed
A7  the evidence cap keeps the top-probability sentences
A8  joint sequence packing matches an independent greedy oracle
A9  pretrained-encoder quality (skipped: needs weights and a benchmark split)
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import OVERFIT_POOLING, overfit_hyperparams

from ctrnli import (
    LABELS,
    ClassifierHead,
    EnsembleConfig,
    JointModel,
    PipelineModel,
    PremiseDoc,
    SystemPrediction,
    ToyEncoder,
    build_gold_view,
    build_report,
    cap_prediction,
    combine,
    gold_evidence_globals,
    load_claims,
    load_corpus,
    predict_joint,
    predict_pipeline,
    resolve_premise,
    select_evidence,
    train_entailment_model,
    train_evidence_model,
    train_joint,
    verdict_from_probs,
)
from ctrnli.cli import main
from ctrnli.encode import SEP_ID, HashingTokenizer, build_joint_sequence
from ctrnli.joint import joint_grads
from ctrnli.metrics import GoldClaim
from ctrnli.pipeline import sequence_classification_grads

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "data" / "fixture"
FD_STEP = 1e-4


@pytest.fixture
def verdict(capsys):
    """Emit one criterion verdict line on the real stdout, capture or not."""

    def emit(criterion: str, ok: bool | str, detail: str) -> None:
        status = ok if isinstance(ok, str) else ("PASS" if ok else "FAIL")
        with capsys.disabled():
            # leading newline: the progress dots leave the cursor mid-line
            print(f"\n{criterion}: {status} ({detail})", flush=True)

    return emit


@pytest.fixture(scope="module")
def bundled():
    corpus = load_corpus(FIXTURE_DIR / "corpus.json")
    claims = load_claims(FIXTURE_DIR / "claims.json")
    return corpus, claims


def _consistent_prediction(
    claim_id: str, probs, p_entail: float, threshold: float = 0.5
) -> SystemPrediction:
    selected, fallback_used = select_evidence(probs, threshold)
    class_probs = (p_entail, 1.0 - p_entail)
    return SystemPrediction(
        claim_id=claim_id,
        evidence_probs=tuple(probs),
        selected=selected,
        class_probs=class_probs,
        verdict=verdict_from_probs(class_probs),
        fallback_used=fallback_used,
    )


def test_a1_overfit_fidelity(bundled, verdict):
    corpus, claims = bundled
    golds = build_gold_view(claims, corpus)
    sizes = [resolve_premise(c, corpus).n for c in claims]
    shape_ok = len(claims) == 20 and all(4 <= n <= 10 for n in sizes)

    start = time.monotonic()
    hp = overfit_hyperparams(300)
    evidence = train_evidence_model(claims, corpus, hp, pooling=OVERFIT_POOLING)
    entailment = train_entailment_model(claims, corpus, hp, pooling=OVERFIT_POOLING)
    pipeline = PipelineModel(
        evidence_encoder=evidence.encoder,
        evidence_head=evidence.head,
        entailment_encoder=entailment.encoder,
        entailment_head=entailment.head,
        pooling=OVERFIT_POOLING,
    )
    pipe_preds = [predict_pipeline(c, corpus, pipeline) for c in claims]
    pipe_secs = time.monotonic() - start
    pipe_report = build_report(pipe_preds, golds)
    pipe_ev, pipe_ent = pipe_report.evidence_micro.f1, pipe_report.entailment_macro_f1

    start = time.monotonic()
    joint = train_joint(claims, corpus, overfit_hyperparams(400), pooling=OVERFIT_POOLING).model
    joint_preds = [predict_joint(c, corpus, joint) for c in claims]
    joint_secs = time.monotonic() - start
    joint_report = build_report(joint_preds, golds)
    joint_ev, joint_ent = joint_report.evidence_micro.f1, joint_report.entailment_macro_f1

    ok = (
        shape_ok
        and pipe_ev >= 0.95
        and pipe_ent >= 0.95
        and joint_ev >= 0.95
        and joint_ent >= 0.95
        and pipe_secs < 120.0
        and joint_secs < 120.0
    )
    verdict(
        "A1 overfit fidelity",
        ok,
        f"20 claims, premises 4-10 sentences; pipeline 300 steps "
        f"ev_f1={pipe_ev:.3f} ent_f1={pipe_ent:.3f} in {pipe_secs:.1f}s; "
        f"joint 400 steps ev_f1={joint_ev:.3f} ent_f1={joint_ent:.3f} in {joint_secs:.1f}s",
    )
    assert ok


def test_a2_metrics_against_brute_force(verdict):
    rng = np.random.default_rng(20260822)
    max_dev = 0.0

    def close(a: float, b: float) -> bool:
        nonlocal max_dev
        max_dev = max(max_dev, abs(a - b))
        return abs(a - b) <= 1e-12

    def rate(num: int, den: int) -> float:
        return num / den if den else 0.0

    def f1_of(p: float, r: float) -> float:
        return 2.0 * p * r / (p + r) if p + r else 0.0

    for case in range(1000):
        preds, golds = [], {}
        per_claim = []
        for j in range(int(rng.integers(1, 9))):
            n = int(rng.integers(1, 26))
            gold_set = frozenset(int(i) for i in np.flatnonzero(rng.random(n) < 0.4))
            selected = tuple(int(i) for i in np.flatnonzero(rng.random(n) < 0.4))
            p_entail = float(rng.random())
            label = LABELS[int(rng.integers(0, 2))]
            cid = f"case-{case}-{j}"
            pred = _consistent_prediction(cid, tuple(rng.random(n)), p_entail)
            pred = SystemPrediction(
                claim_id=cid,
                evidence_probs=pred.evidence_probs,
                selected=selected,
                class_probs=pred.class_probs,
                verdict=pred.verdict,
            )
            preds.append(pred)
            golds[cid] = GoldClaim(claim_id=cid, n_sentences=n, evidence=gold_set, label=label)
            chosen = set(selected)
            tp = len(chosen & gold_set)
            fp = len(chosen - gold_set)
            fn = len(gold_set - chosen)
            per_claim.append((tp, fp, fn, n - tp - fp - fn))

        totals = tuple(sum(c[k] for c in per_claim) for k in range(4))
        report = build_report(preds, golds)
        micro = report.evidence_micro
        assert (micro.tp, micro.fp, micro.fn, micro.tn) == totals
        p = rate(totals[0], totals[0] + totals[1])
        r = rate(totals[0], totals[0] + totals[2])
        assert close(micro.precision, p) and close(micro.recall, r)
        assert close(micro.f1, f1_of(p, r))

        macro = report.evidence_macro
        assert (macro.tp, macro.fp, macro.fn, macro.tn) == totals
        rows = [
            (rate(tp, tp + fp), rate(tp, tp + fn)) for tp, fp, fn, _ in per_claim
        ]
        assert close(macro.precision, sum(p for p, _ in rows) / len(rows))
        assert close(macro.recall, sum(r for _, r in rows) / len(rows))
        assert close(macro.f1, sum(f1_of(p, r) for p, r in rows) / len(rows))

        ent = report.entailment
        by_label = {}
        for positive in LABELS:
            tp = fp = fn = tn = 0
            for pred in preds:
                hit = pred.verdict == positive
                is_pos = golds[pred.claim_id].label == positive
                tp += hit and is_pos
                fp += hit and not is_pos
                fn += is_pos and not hit
                tn += not hit and not is_pos
            p = rate(tp, tp + fp)
            r = rate(tp, tp + fn)
            by_label[positive] = (tp, fp, fn, tn, f1_of(p, r))
        tp, fp, fn, tn, pos_f1 = by_label[LABELS[0]]
        assert (ent.tp, ent.fp, ent.fn, ent.tn) == (tp, fp, fn, tn)
        assert close(ent.f1, pos_f1)
        macro_f1 = sum(row[4] for row in by_label.values()) / len(LABELS)
        assert close(report.entailment_macro_f1, macro_f1)

    verdict(
        "A2 metrics against brute-force oracle",
        True,
        f"1000 randomized batches; counts exact, rates within 1e-12 (max dev {max_dev:.1e})",
    )


def test_a3_ensemble_averaging_algebra(verdict):
    worked = combine(
        _consistent_prediction("w", (0.9,), 0.8),
        _consistent_prediction("w", (0.7,), 0.5),
        EnsembleConfig(),
        0.5,
    )
    assert abs(worked.class_probs[0] - 0.62) <= 1e-12
    assert abs(worked.class_probs[1] - 0.38) <= 1e-12
    assert abs(worked.evidence_probs[0] - 0.78) <= 1e-12

    rng = np.random.default_rng(31)
    for pair in range(1000):
        n = int(rng.integers(1, 31))
        a = _consistent_prediction(f"p{pair}", tuple(rng.random(n)), float(rng.random()))
        b = _consistent_prediction(f"p{pair}", tuple(rng.random(n)), float(rng.random()))

        same = combine(a, a, EnsembleConfig(), 0.5)
        assert np.allclose(same.evidence_probs, a.evidence_probs, atol=1e-9, rtol=0.0)
        assert np.allclose(same.class_probs, a.class_probs, atol=1e-9, rtol=0.0)
        assert same.selected == a.selected
        assert same.verdict == a.verdict
        assert same.fallback_used == a.fallback_used

        assert combine(a, b, EnsembleConfig(w_pipeline=1.0, w_joint=0.0), 0.5) == a
        assert combine(a, b, EnsembleConfig(w_pipeline=0.0, w_joint=1.0), 0.5) == b

        w = float(rng.random())
        mixed = combine(a, b, EnsembleConfig(w_pipeline=w, w_joint=1.0 - w), 0.5)
        for lo_hi, got in (
            (zip(a.evidence_probs, b.evidence_probs), mixed.evidence_probs),
            (zip(a.class_probs, b.class_probs), mixed.class_probs),
        ):
            for (x, y), z in zip(lo_hi, got):
                assert min(x, y) - 1e-9 <= z <= max(x, y) + 1e-9

    verdict(
        "A3 ensemble averaging algebra",
        True,
        "worked value (0.8,0.2)+(0.5,0.5) at (0.4,0.6) -> (0.62,0.38) within 1e-12; "
        "identity/degenerate/convexity over 1000 pairs within 1e-9",
    )


def test_a4_selection_rule_grid(verdict):
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    checked = 0
    for threshold in grid:
        for probs in itertools.product(grid, repeat=5):
            selected, fallback_used = select_evidence(probs, threshold)
            expected = {i for i, p in enumerate(probs) if p > threshold}
            if expected:
                assert selected == tuple(sorted(expected))
                assert not fallback_used
            else:
                top = max(probs)
                best = min(i for i, p in enumerate(probs) if p == top)
                assert selected == (best,)
                assert fallback_used
            checked += 1
    verdict(
        "A4 selection rule exhaustive grid",
        True,
        f"{checked} cases over thresholds and 5-sentence profiles from {{0,.25,.5,.75,1}}; "
        "strict > with flagged top-1 fallback",
    )


def _fd_check(params: dict, loss_fn, analytic: dict) -> float:
    """Max relative error between analytic grads and central differences."""
    worst = 0.0
    for name, tensor in params.items():
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = tensor[idx]
            tensor[idx] = original + FD_STEP
            up = loss_fn()
            tensor[idx] = original - FD_STEP
            down = loss_fn()
            tensor[idx] = original
            fd = (up - down) / (2.0 * FD_STEP)
            a = analytic[name][idx]
            worst = max(worst, abs(a - fd) / max(1e-8, abs(a), abs(fd)))
    return worst


def test_a5_gradients_vs_finite_differences(bundled, verdict):
    corpus, claims = bundled
    worst = 0.0

    for seed in range(10):
        rng = np.random.default_rng(seed)
        encoder = ToyEncoder(vocab_size=64, dim=8, n_layers=2, seed=1000 + seed)
        pooling = "mean" if seed % 2 == 0 else "max"
        items = [
            (
                tuple(int(t) for t in rng.integers(2, 64, size=int(rng.integers(3, 9)))),
                int(rng.integers(0, 2)),
            )
            for _ in range(3)
        ]
        for head in (
            ClassifierHead.create(8, seed=seed),
            ClassifierHead.create(8, seed=seed + 50),
        ):
            _, _, analytic = sequence_classification_grads(encoder, head, items, pooling)
            worst = max(
                worst,
                _fd_check(
                    head.params,
                    lambda: sequence_classification_grads(encoder, head, items, pooling)[0],
                    analytic,
                ),
            )

    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        claim = claims[seed % len(claims)]
        premise = resolve_premise(claim, corpus)
        gold = gold_evidence_globals(claim, premise)
        model = JointModel(
            encoder=ToyEncoder(vocab_size=128, dim=8, n_layers=2, seed=2000 + seed),
            evidence_head=ClassifierHead.create(8, seed=seed),
            verdict_head=ClassifierHead.create(8, seed=seed + 50),
            max_len=128,
            pooling="mean",
        )
        weights = (0.5 + float(rng.random()), 0.5 + float(rng.random()))

        ji = build_joint_sequence(model.encoder.tokenizer, claim.text, premise, model.max_len)

        batch = [(ji, gold, claim.gold_label)]

        def joint_total():
            return joint_grads(model, batch, weights)[0]

        _, _, _, _, ev_grads, v_grads = joint_grads(model, batch, weights)
        worst = max(worst, _fd_check(model.evidence_head.params, joint_total, ev_grads))
        worst = max(worst, _fd_check(model.verdict_head.params, joint_total, v_grads))

    ok = worst < 1e-4
    verdict(
        "A5 analytic gradients vs finite differences",
        ok,
        f"all head parameters, central differences at step 1e-4, 10 seeds per system; "
        f"max relative error {worst:.2e} < 1e-4",
    )
    assert ok


def test_a6_train_predict_determinism(tmp_path, verdict):
    corpus = str(FIXTURE_DIR / "corpus.json")
    claims = str(FIXTURE_DIR / "claims.json")
    for system in ("pipeline", "joint"):
        outputs = []
        for run in (1, 2):
            ckpt = tmp_path / f"{system}-ckpt-{run}"
            pred = tmp_path / f"{system}-preds-{run}.json"
            assert (
                main(
                    [
                        "train",
                        "--system", system,
                        "--corpus", corpus,
                        "--claims", claims,
                        "--out", str(ckpt),
                        "--seed", "7",
                        "--max-steps", "25",
                    ]
                )
                == 0
            )
            assert (
                main(
                    [
                        "predict",
                        "--checkpoint", str(ckpt),
                        "--corpus", corpus,
                        "--claims", claims,
                        "--out", str(pred),
                    ]
                )
                == 0
            )
            outputs.append(pred.read_bytes())
        assert outputs[0] == outputs[1], f"{system} prediction files differ between runs"
    verdict(
        "A6 train/predict determinism",
        True,
        "two seed-7 train+predict runs per system produce byte-identical prediction files",
    )


def test_a7_evidence_cap(verdict):
    rng = np.random.default_rng(77)
    cfg = EnsembleConfig()
    over_budget = 0
    for case in range(10000):
        n = int(rng.integers(1, 41))
        probs = tuple(float(p) for p in rng.random(n))
        k = int(rng.integers(1, n + 1))
        selected = tuple(sorted(int(i) for i in rng.choice(n, size=k, replace=False)))
        pred = SystemPrediction(
            claim_id=f"cap-{case}",
            evidence_probs=probs,
            selected=selected,
            class_probs=(0.75, 0.25),
            verdict=LABELS[0],
        )
        capped = cap_prediction(pred, cfg)
        kept = set(capped.selected)
        assert len(kept) <= cfg.max_evidence
        if len(selected) <= cfg.max_evidence:
            assert kept == set(selected)
        else:
            over_budget += 1
            ranked = sorted(selected, key=lambda i: (-probs[i], i))
            assert kept == set(ranked[: cfg.max_evidence])
    verdict(
        "A7 evidence cap",
        True,
        f"10000 randomized predictions capped at 20; {over_budget} over budget, "
        "each kept exactly the top-probability sentences",
    )


def _packing_oracle(claim_len: int, lengths: list[int], max_len: int):
    pos = claim_len + 1
    spans = []
    for i, length in enumerate(lengths):
        sep = 1 if i > 0 else 0
        if pos + sep + length > max_len:
            break
        spans.append((pos + sep, pos + sep + length))
        pos += sep + length
    dropped = tuple(range(len(spans), len(lengths)))
    return pos, tuple(spans), dropped


def test_a8_packing_vs_greedy_oracle(verdict):
    tokenizer = HashingTokenizer()
    rng = np.random.default_rng(88)
    checked = 0
    for profile in range(1000):
        claim_len = int(rng.integers(1, 21))
        claim = " ".join(f"c{k}" for k in range(claim_len))
        lengths = [int(rng.integers(1, 41)) for _ in range(int(rng.integers(0, 16)))]
        texts = tuple(
            " ".join(f"s{i}w{j}" for j in range(length)) for i, length in enumerate(lengths)
        )
        premise = PremiseDoc(texts=texts, spans={"trial": (0, len(texts))})
        for max_len in (30, 512, 1024):
            ji = build_joint_sequence(tokenizer, claim, premise, max_len)
            total, spans, dropped = _packing_oracle(claim_len, lengths, max_len)
            assert ji.length == total
            assert ji.claim_span == (0, claim_len)
            assert ji.token_ids[claim_len] == SEP_ID
            assert ji.span_map == spans
            assert ji.dropped_sentences == dropped
            checked += 1
    verdict(
        "A8 sequence packing vs greedy oracle",
        True,
        f"{checked} profile/limit combinations (1000 profiles at max_len 30/512/1024) "
        "match an independent greedy repack",
    )


def test_a9_pretrained_reference_quality(verdict):
    verdict(
        "A9 pretrained reference quality",
        "SKIP",
        "needs pretrained encoder weights and the benchmark dev split, neither "
        "available in this offline environment; A1-A8 are the gate",
    )
    pytest.skip("pretrained weights and the benchmark dev split are unavailable offline")
