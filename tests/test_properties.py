"""Property-based checks over the pure rules: selection, combination,
capping, packing, tokenization, counting, and the check of a prediction."""

import dataclasses
import json
import math
import tempfile
import unicodedata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctrnli.corpus import (
    LABELS,
    PRIMARY_PREFIX,
    SECONDARY_PREFIX,
    SECTION_NAMES,
    ClaimInstance,
    ClinicalTrialRecord,
    PremiseDoc,
    normalize_text,
    resolve_premise,
)
from ctrnli.encode import (
    NUM_RESERVED,
    SEP_ID,
    HashingTokenizer,
    TokenSeq,
    ToyEncoder,
    _segment_sums,
    build_joint_sequence,
    encode_batch,
    pool_span,
    pool_spans,
    pool_spans_backward,
)
from ctrnli.config import TASK_CHOICES
from ctrnli.ensemble import (
    EnsembleConfig,
    cap_prediction,
    combine,
    ensemble_predictions,
    load_predictions,
    save_predictions,
)
from ctrnli.errors import CtrnliError, EvidenceIndexOutOfRange
from ctrnli.metrics import GoldClaim, build_report
from ctrnli.nn import to_stored_precision
from ctrnli.pipeline import PROB_TOL, SystemPrediction, select_evidence, verdict_from_probs
from test_encode import (
    _densify,
    _oracle_encode_with_cache,
    _oracle_pool_span,
    _oracle_pool_span_backward,
    _oracle_toy_backward,
    assert_grads_equal,
)
from test_nn import _oracle_accumulate, _oracle_zero_grads

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)  # few values, so ties and p == threshold are common
probs_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=40
)


def _prediction(claim_id, ev_probs, class_p0, threshold=0.5):
    selected, fallback_used = select_evidence(ev_probs, threshold)
    cp = (class_p0, 1.0 - class_p0)
    return SystemPrediction(
        claim_id=claim_id,
        evidence_probs=tuple(ev_probs),
        selected=selected,
        class_probs=cp,
        verdict=verdict_from_probs(cp),
        fallback_used=fallback_used,
    )


predictions = st.builds(
    _prediction,
    st.just("c"),
    probs_lists,
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class TestSelectionLaw:
    @given(probs_lists, st.floats(min_value=0.0, max_value=1.0))
    def test_threshold_law(self, probs, threshold):
        selected, fallback_used = select_evidence(probs, threshold)
        above = {i for i, p in enumerate(probs) if p > threshold}
        if above:
            assert set(selected) == above
            assert not fallback_used
        else:
            assert fallback_used
            assert len(selected) == 1
            (only,) = selected
            assert probs[only] == max(probs)
            assert all(probs[i] < probs[only] for i in range(only))

    @given(probs_lists)
    def test_selection_never_empty(self, probs):
        assert select_evidence(probs, 0.5)[0]

    @given(
        probs_lists | st.lists(st.sampled_from(GRID), min_size=1, max_size=12),
        st.floats(min_value=0.0, max_value=1.0) | st.sampled_from(GRID),
    )
    def test_matches_brute_force(self, probs, threshold):
        """{i : p_i > t} in index order, else the lowest-index argmax with the flag."""
        above = []
        best = 0
        for i, p in enumerate(probs):
            if p > threshold:
                above.append(i)
            if p > probs[best]:
                best = i
        expected = (tuple(above), False) if above else ((best,), True)
        assert select_evidence(probs, threshold) == expected


def _premise_oracle(claim, corpus, inject_arm_prefix):
    """One (trial id, local index, text) row per premise sentence, in global order."""
    roles = [(claim.primary_ctr, PRIMARY_PREFIX), (claim.secondary_ctr, SECONDARY_PREFIX)]
    rows = []
    for ctr_id, prefix in roles[: len(claim.ctr_ids)]:
        for i, text in enumerate(corpus[ctr_id].sections[claim.section_id]):
            if inject_arm_prefix and claim.secondary_ctr is not None:
                text = f"{prefix} {text}"
            rows.append((ctr_id, i, text))
    return rows


class TestPremiseResolution:
    @given(
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=2),
        st.sampled_from(SECTION_NAMES),
        st.booleans(),
        st.lists(st.integers(min_value=-2, max_value=8), max_size=8),
    )
    def test_matches_per_sentence_oracle(self, lengths, section_id, prefix, probes):
        ids = [f"ct-{k}" for k in range(len(lengths))]
        corpus = {}
        for ctr_id, n in zip(ids, lengths):
            # the other sections are one sentence longer, so a leak from them shows
            sections = {
                name: tuple(f"{ctr_id} {name} {i}" for i in range(n + (name != section_id)))
                for name in SECTION_NAMES
            }
            corpus[ctr_id] = ClinicalTrialRecord(ctr_id, sections)
        claim = ClaimInstance("c", "a claim", section_id, *ids)
        premise = resolve_premise(claim, corpus, prefix)
        rows = _premise_oracle(claim, corpus, prefix)

        assert premise.texts == tuple(text for _, _, text in rows)
        for g, (ctr_id, i, _) in enumerate(rows):
            assert premise.to_global(ctr_id, i) == g
        for k, (ctr_id, n) in enumerate(zip(ids, lengths)):
            start = sum(lengths[:k])
            for i in probes:
                if 0 <= i < n:
                    assert premise.to_global(ctr_id, i) == start + i
                else:
                    with pytest.raises(EvidenceIndexOutOfRange):
                        premise.to_global(ctr_id, i)


class TestEnsembleAlgebra:
    @given(predictions, st.floats(min_value=0.0, max_value=1.0))
    def test_convexity_and_bounds(self, pred_a, w):
        rng = np.random.default_rng(0)
        n = len(pred_a.evidence_probs)
        pred_b = _prediction(
            "c", list(rng.uniform(size=n)), float(rng.uniform())
        )
        cfg = EnsembleConfig(w_pipeline=w, w_joint=1.0 - w)
        out = combine(pred_a, pred_b, cfg, 0.5)
        for p, pa, pb in zip(out.evidence_probs, pred_a.evidence_probs, pred_b.evidence_probs):
            assert min(pa, pb) - 1e-9 <= p <= max(pa, pb) + 1e-9
        for p, pa, pb in zip(out.class_probs, pred_a.class_probs, pred_b.class_probs):
            assert min(pa, pb) - 1e-9 <= p <= max(pa, pb) + 1e-9
        assert out.verdict == verdict_from_probs(out.class_probs)

    @given(predictions)
    def test_identity(self, pred):
        out = combine(pred, pred, EnsembleConfig(), 0.5)
        np.testing.assert_allclose(out.evidence_probs, pred.evidence_probs, atol=1e-9)
        np.testing.assert_allclose(out.class_probs, pred.class_probs, atol=1e-9)

    @given(predictions)
    def test_degenerate_weights(self, pred):
        rng = np.random.default_rng(1)
        other = _prediction(
            "c", list(rng.uniform(size=len(pred.evidence_probs))), float(rng.uniform())
        )
        assert combine(pred, other, EnsembleConfig(w_pipeline=1.0, w_joint=0.0), 0.5) == pred
        assert combine(other, pred, EnsembleConfig(w_pipeline=0.0, w_joint=1.0), 0.5) == pred


class TestCapProperty:
    @given(predictions, st.integers(min_value=1, max_value=25))
    def test_cap_invariants(self, pred, max_evidence):
        cfg = EnsembleConfig(max_evidence=max_evidence)
        kept = cap_prediction(pred, cfg).selected
        assert len(kept) <= max_evidence
        assert set(kept) <= set(pred.selected)
        if len(pred.selected) <= max_evidence:
            assert kept == pred.selected
        else:
            # nothing dropped may strictly beat anything kept
            dropped = set(pred.selected) - set(kept)
            if dropped:
                worst_kept = min(pred.evidence_probs[i] for i in kept)
                best_dropped = max(pred.evidence_probs[i] for i in dropped)
                assert best_dropped <= worst_kept


# few values, so bodies repeat; both zeros, and integer probabilities
_FEW_PROBS = st.sampled_from([0.0, -0.0, 0, 1, 0.25, 0.5, 0.75, 1.0, 5e-324])


@st.composite
def _repeating_predictions(draw, n_sentences: int):
    """Predictions ``c0``, ``c1``, ... over ``n_sentences`` sentences, each a
    new body, an earlier one re-issued through ``_renamed``, or an equal-valued
    copy of an earlier one built from new tuples."""
    preds = []
    for i in range(draw(st.integers(1, 8))):
        how = draw(st.sampled_from(["new", "renamed", "copy"])) if preds else "new"
        if how == "new":
            ev = tuple(draw(st.lists(_FEW_PROBS, min_size=n_sentences, max_size=n_sentences)))
            selected = tuple(sorted(draw(st.sets(st.integers(0, n_sentences - 1)))))
            p0 = draw(_FEW_PROBS)
            cp = draw(st.sampled_from([(p0, 1 - p0), (1 - p0, p0)]))
            pred = SystemPrediction(f"c{i}", ev, selected, cp, verdict_from_probs(cp),
                                    draw(st.booleans()))
        else:
            earlier = draw(st.sampled_from(preds))
            pred = earlier._renamed(f"c{i}") if how == "renamed" else SystemPrediction(
                f"c{i}", tuple(list(earlier.evidence_probs)), tuple(list(earlier.selected)),
                tuple(list(earlier.class_probs)), earlier.verdict, earlier.fallback_used,
            )
        preds.append(pred)
    return preds


def _exact(value):
    """A field, or each item of a tuple, as its type and repr: equal exactly
    when the values are equal, of one type and of one sign of zero."""
    if isinstance(value, tuple):
        return tuple(map(_exact, value))
    return type(value), repr(value)


def _exact_fields(pred: SystemPrediction) -> tuple:
    return tuple(_exact(getattr(pred, f.name)) for f in dataclasses.fields(pred))


def _json_bytes(preds) -> bytes:
    text = json.dumps([dataclasses.asdict(p) for p in preds], sort_keys=True, indent=2)
    return f"{text}\n".encode()


def _saved(preds, directory: Path, name: str) -> bytes:
    save_predictions(preds, directory / name)
    return (directory / name).read_bytes()


class TestPredictionRoundTrip:
    @given(predictions)
    def test_json_round_trip(self, pred):
        again = SystemPrediction.from_json_obj(json.loads(json.dumps(dataclasses.asdict(pred))))
        assert again == pred

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(_repeating_predictions))
    def test_repeated_bodies_load_as_each_record_alone(self, preds):
        """A file of repeated bodies is the json module's bytes of its
        records; it loads, field by field, as each record parsed alone does
        (value, type and sign of zero); and saving what was loaded is
        byte-stable: those records' json bytes, which a further load and save
        leaves as they are."""
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            first = _saved(preds, tmp, "first.json")
            assert first == _json_bytes(preds)
            oracle = [SystemPrediction.from_json_obj(obj) for obj in json.loads(first)]
            loaded = load_predictions(tmp / "first.json")
            assert list(map(_exact_fields, loaded)) == list(map(_exact_fields, oracle))
            second = _saved(loaded, tmp, "second.json")
            assert second == _json_bytes(oracle)
            assert _saved(load_predictions(tmp / "second.json"), tmp, "third.json") == second

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(lambda n: st.tuples(
            _repeating_predictions(n), _repeating_predictions(n), st.randoms(use_true_random=False)
        )),
        st.sampled_from(TASK_CHOICES),
        st.sampled_from([1, 2, 20]),
    )
    def test_ensemble_of_loaded_files_equals_each_claim_alone(self, members, tasks, cap):
        """``ensemble_predictions`` over two loaded files of repeated bodies,
        the second shuffled, equals combining and capping each claim alone,
        for each task restriction and for caps below the selection size."""
        preds_a, preds_b, rng = members
        n = min(len(preds_a), len(preds_b))
        preds_a, preds_b = preds_a[:n], preds_b[:n]
        rng.shuffle(preds_b)
        cfg = EnsembleConfig(max_evidence=cap, tasks=tasks)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_predictions(preds_a, tmp / "a.json")
            save_predictions(preds_b, tmp / "b.json")
            loaded_a, loaded_b = load_predictions(tmp / "a.json"), load_predictions(tmp / "b.json")
        out = ensemble_predictions(loaded_a, loaded_b, cfg, 0.5)
        by_id = {p.claim_id: p for p in loaded_b}
        oracle = [cap_prediction(combine(a, by_id[a.claim_id], cfg, 0.5), cfg) for a in loaded_a]
        assert list(map(_exact_fields, out)) == list(map(_exact_fields, oracle))


words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=12
)
texts = st.lists(words, min_size=1, max_size=30).map(" ".join)


class TestTokenizer:
    @given(texts, st.integers(min_value=3, max_value=5000))
    def test_ids_in_range_and_stable(self, text, vocab_size):
        tok = HashingTokenizer(vocab_size)
        ids = tok.tokenize(text).token_ids
        assert all(NUM_RESERVED <= i < vocab_size for i in ids)
        assert tok.tokenize(text).token_ids == ids
        assert len(ids) == len(normalize_text(text).split())


_ENCODER = ToyEncoder(vocab_size=64, dim=8, seed=5)


def _stored_encoder(dim: int) -> ToyEncoder:
    """A seeded encoder cast as training leaves it: float32 parameters."""
    encoder = ToyEncoder(vocab_size=64, dim=dim, seed=5)
    to_stored_precision(encoder)
    return encoder


# float32 at several widths, since BLAS picks its kernels by size; 33 and 40
# are not multiples of 16, where gemm rounds a row by the product's row count
_STORED_ENCODERS = [_stored_encoder(dim) for dim in (8, 32, 33, 40, 48)]

token_seqs = st.lists(
    st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=12),
    min_size=1,
    max_size=8,
)


class TestEncodeBatch:
    @given(token_seqs)
    @example([[7]])  # one 1-token sequence
    @example([[3, 9, 9, 4]])  # one sequence
    @example([[5], [2, 8, 1], [6], [6], [1, 2, 3, 4, 5, 6, 7]])  # mixed, 1-token neighbors
    def test_matches_per_sequence_encode_bitwise(self, seqs):
        """In the parameters' dtype, with the training cache and without it,
        as ``score_evidence`` batches a trained or loaded encoder; one-row
        sequences included, which ``_affine`` doubles."""
        for encoder in (_ENCODER, *_STORED_ENCODERS):
            dtype = encoder.params["emb"].dtype
            expected = np.concatenate([encoder.encode(seq) for seq in seqs])
            assert expected.dtype == dtype
            for cache in (True, False):
                rows, _ = encode_batch(encoder, seqs, cache=cache)
                assert rows.dtype == dtype
                assert np.array_equal(rows, expected)


def _frozen_twins(vocab_size: int, dim: int, n_layers: int) -> tuple[ToyEncoder, ToyEncoder]:
    """A seeded encoder cast to float32, with nonzero biases, and its twin
    over read-only copies of the same arrays, as a checkpoint loads them."""
    writable = ToyEncoder(vocab_size, dim, n_layers, seed=5)
    to_stored_precision(writable)
    rng = np.random.default_rng(6)
    for layer in range(n_layers):
        writable.params[f"b{layer}"][:] = rng.normal(0.0, 0.1, size=dim)
    frozen = {name: arr.copy() for name, arr in writable.params.items()}
    for arr in frozen.values():
        arr.flags.writeable = False
    return writable, ToyEncoder(vocab_size, dim, n_layers, params=frozen)


# every depth, at a small and at the default vocabulary and width
_TWINS = [
    _frozen_twins(*sizes, n_layers) for sizes in ((64, 8), (1024, 32)) for n_layers in range(4)
]


class TestLayer0Table:
    @given(st.lists(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=5),
                    min_size=1, max_size=8))
    @example([[7]])  # one 1-token sequence
    @example([[3, 9, 9, 4]])  # one sequence
    @example([[5], [2, 8, 1], [6], [6]])  # 1-token neighbors
    def test_frozen_twin_encodes_the_writable_bytes(self, seqs):
        """A read-only encoder gathers layer 0 from its table, a writable
        one computes it per token, and both give the same bytes, alone and
        back to back; with no layer there is nothing to tabulate."""
        for writable, frozen in _TWINS:
            assert writable._layer0 is None
            assert (frozen._layer0 is None) == (frozen.n_layers == 0)
            alone = [frozen.encode(seq).tobytes() for seq in seqs]
            assert alone == [writable.encode(seq).tobytes() for seq in seqs]
            rows = encode_batch(frozen, seqs, cache=False)[0]
            assert rows.tobytes() == encode_batch(writable, seqs, cache=False)[0].tobytes()
            assert rows.tobytes() == b"".join(alone)


class TestRowSparseEmbeddingGrad:
    @given(
        st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example([7], 0)  # one token
    @example([5, 5, 5, 5], 1)  # a single id throughout
    @example([3, 9, 3, 4, 9, 3], 2)  # repeated ids
    def test_scattered_equals_dense_oracle(self, ids, seed):
        d_out = np.random.default_rng(seed).normal(size=(len(ids), 8))
        _, cache = _ENCODER.encode_with_cache(ids)
        grads = _ENCODER.backward(cache, d_out)
        expected = _oracle_toy_backward(_ENCODER, cache, d_out)
        rows, values = grads["emb"]
        assert rows.tolist() == sorted(set(ids))
        assert np.array_equal(_densify((rows, values), expected["emb"].shape), expected["emb"])
        assert_grads_equal(grads, expected)  # the dense layer grads too


_edge_floats = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e308])
indexed_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.lists(st.floats() | _edge_floats, min_size=3, max_size=3),
    ),
    min_size=1,
    max_size=40,
)


class TestSegmentSums:
    @given(indexed_rows)
    @example([(0, [1.5, -0.0, 2.0])])  # one row
    @example([(3, [1.0, 2.0, 3.0]), (3, [0.1, 0.2, 0.3]), (3, [-1.0, np.inf, 1e-17])])  # one index
    @example([(0, [-0.0] * 3), (2, [-0.0] * 3), (0, [-0.0] * 3)])  # only -0.0 rows
    @example([(1, [np.nan, np.inf, 0.0]), (1, [-np.nan, -np.inf, 0.0])])  # NaNs of two signs
    def test_equals_add_at_into_zeros(self, pairs):
        """The bincount segment sum is the ``np.add.at`` scatter, bit for
        bit in every cell that is not NaN (signed zeros and infinities
        included), and NaN exactly where the scatter gives NaN. The bits of
        a NaN cell may differ: where two different NaNs meet, the scatter
        keeps the later one and bincount the earlier one."""
        index = np.array([i for i, _ in pairs])
        rows = np.array([row for _, row in pairs])
        n = int(index.max()) + 2  # the last bin gets nothing
        expected = np.zeros((n, rows.shape[1]))
        with np.errstate(all="ignore"):  # inf - inf and overflow are part of the draw
            np.add.at(expected, index, rows)
        got = _segment_sums(index, rows, n)
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expected[~nan].tobytes()


# The fixture's width: at 32 columns BLAS picks another kernel for a product
# with the transposed weight below 38 rows, so a product over several
# sequences' rows at once would round differently from one per sequence.
_WIDE_ENCODER = ToyEncoder(vocab_size=64, dim=32, seed=6)


class TestBatchedBackward:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=70),
            min_size=1,
            max_size=6,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example([[7]], 0)  # a batch of one token
    @example([[3, 9, 3], [9, 9, 4], [3]], 1)  # ids repeated within and across sequences
    @example([[5] * 37, [6] * 38, [5, 6] * 20], 2)  # lengths straddling 38 rows
    @example([[1, 2, 3], [2] * 12, [4, 2] * 9, [2, 8]], 3)  # short sequences, 39 rows in all
    @example(  # a training batch: 16 sequences of 36-74 ids from 13, repeated within and across
        [[(7 * k + 3 * j) % 13 for j in range(36 + k * 38 // 15)] for k in range(16)], 4
    )
    def test_equals_scaled_sum_of_per_sequence_backwards(self, seqs, seed):
        """One batched backward == the per-sequence oracle backwards, each
        scaled by 1/B and added into zeros in sequence order, bit for bit."""
        enc = _WIDE_ENCODER
        rng = np.random.default_rng(seed)
        scale = 1.0 / len(seqs)
        d_outs = [rng.normal(size=(len(seq), enc.dim)) for seq in seqs]
        matrix, cache = encode_batch(enc, seqs)
        grads = enc.backward(cache, np.concatenate(d_outs), scale)
        expected = _oracle_zero_grads(enc.params)
        for seq, d_out in zip(seqs, d_outs):
            rows, seq_cache = _oracle_encode_with_cache(enc, seq)
            assert np.array_equal(matrix[: len(seq)], rows)
            matrix = matrix[len(seq) :]
            _oracle_accumulate(expected, _oracle_toy_backward(enc, seq_cache, d_out), scale)
        assert grads["emb"][0].tolist() == sorted({i for seq in seqs for i in seq})
        assert_grads_equal(grads, expected)


def _spans_of(gaps_and_lengths) -> tuple[list[tuple[int, int]], int]:
    """Spans of the given lengths, each ``gap`` rows after the last one (a
    gap of 0 makes them touch), and the row where the last one ends."""
    spans, end = [], 0
    for gap, length in gaps_and_lengths:
        spans.append((end + gap, end + gap + length))
        end += gap + length
    return spans, end


# few finite levels, so max pooling meets ties and float32 sums round in an
# order-dependent way, plus the values whose sums are easy to get wrong
POOL_LEVELS = np.array([-1e8, -2.0, -0.0, 0.0, 0.1, 1.0, 3.3, 1e8, np.inf, -np.inf, np.nan])
POOL_LEVEL_P = np.array([4, 8, 8, 8, 8, 8, 8, 4, 1, 1, 1]) / 59


def _row_bytes(rows: np.ndarray) -> bytes:
    """The bytes of ``rows`` with every NaN made one NaN: numpy's add gives
    the NaN of ``nan + nan`` a sign that depends on the array's length, so
    two sums in the same order can still differ there."""
    return np.where(np.isnan(rows), np.nan, rows).tobytes()


class TestPoolSpans:
    @given(
        st.lists(st.tuples(st.integers(0, 2), st.integers(1, 12)), min_size=1, max_size=6),
        st.sampled_from(["mean", "max", "first"]),
        st.sampled_from([np.float32, np.float64]),
        st.sampled_from([1, 2, 5]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    # a lone column whose pairwise sum differs from its row-order sum
    @example([(0, 12), (0, 9), (2, 1)], "mean", np.float32, 1, 3)
    def test_rows_equal_per_span_oracle(self, gaps_and_lengths, mode, dtype, width, seed):
        """Each row of ``pool_spans`` equals ``pool_span`` of its span and the
        per-span oracle, as bytes. The oracle adds a lone column pairwise, so
        at width 1 it pools the column doubled to width 2, which it sums row
        by row."""
        spans, end = _spans_of(gaps_and_lengths)
        rng = np.random.default_rng(seed)
        matrix = rng.choice(POOL_LEVELS, size=(end + 2, width), p=POOL_LEVEL_P).astype(dtype)
        wide = np.repeat(matrix, 2, axis=1) if width == 1 else matrix
        with np.errstate(invalid="ignore"):
            pooled = pool_spans(matrix, spans, mode)
            one_by_one = np.stack([pool_span(matrix, span, mode) for span in spans])
            oracle = np.stack([_oracle_pool_span(wide, span, mode)[:width] for span in spans])
        assert pooled.dtype == oracle.dtype and pooled.flags.c_contiguous
        assert _row_bytes(pooled) == _row_bytes(one_by_one) == _row_bytes(oracle)


class TestPoolSpansBackward:
    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(1, 6)), min_size=0, max_size=8),
        st.sampled_from(["mean", "first", "max"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example([(0, 3), (0, 1), (2, 4)], "max", 0)
    def test_equals_per_span_loop(self, gaps_and_lengths, mode, seed):
        """Spans separated by ``gap`` rows; values from a few levels, so max
        pooling meets ties, which go to the first row as argmax sends them."""
        spans, end = _spans_of(gaps_and_lengths)
        rng = np.random.default_rng(seed)
        matrix = rng.integers(-2, 3, size=(end + 2, 5)).astype(float)
        d_pooled = rng.normal(size=(len(spans), 5))
        expected = np.zeros_like(matrix)
        for d, span in zip(d_pooled, spans):
            _oracle_pool_span_backward(d, matrix, span, mode, out=expected)
        assert np.array_equal(pool_spans_backward(d_pooled, matrix, spans, mode), expected)
        # and added in place into a gradient that is already there
        acc = rng.normal(size=matrix.shape)
        expected = acc.copy()
        for d, span in zip(d_pooled, spans):
            _oracle_pool_span_backward(d, matrix, span, mode, out=expected)
        assert pool_spans_backward(d_pooled, matrix, spans, mode, out=acc) is acc
        assert np.array_equal(acc, expected)


# whitespace that is not a space (tab, NBSP, line separator, ideographic
# space), non-whitespace that is not printable (soft hyphen, surrogates),
# combining marks that compose under NFC (acute, long solidus overlay, Hangul
# jamo) and sigma, whose final form is its own code point
_NORMALIZE_ALPHABET = st.sampled_from(
    list("ae=< ")
    + ["\t", "\n", "\u00a0", "\u2028", "\u3000", "\u00ad", "\u0301", "\u0338"]
    + ["\u1100", "\u1161", "\u11a8", "\u03a3", "\u03c3", "\u03c2", "\ud800", "\udfff"]
)


class TestNormalize:
    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once

    @given(st.text(_NORMALIZE_ALPHABET, max_size=40))
    @example("a\tb")
    @example("a\u00a0b")
    @example(" a")
    @example("a ")
    @example("a  b")
    @example("e\u0301")
    def test_equals_nfc_then_whitespace_collapse(self, text):
        """Every input gets the one formula's text, and normal printable text
        comes back as the object passed in."""
        normal = " ".join(unicodedata.normalize("NFC", text).split())
        assert normalize_text(text) == normal
        if normal.isprintable():
            assert normalize_text(normal) is normal


class _CountingTokenizer:
    """Deterministic token counts derived from the sentence text."""

    sep_id = SEP_ID

    def tokenize(self, text):
        words = text.split()
        if not words:
            raise CtrnliError(text)
        return TokenSeq(tuple(2 for _ in words))


def _premise_of(lengths):
    texts = tuple(" ".join(["w"] * n) for n in lengths)
    return PremiseDoc(texts=texts, spans={"ct": (0, len(texts))})


class TestPackingInvariants:
    @given(
        st.integers(min_value=1, max_value=20),
        st.lists(st.integers(min_value=1, max_value=30), max_size=15),
        st.integers(min_value=30, max_value=200),
    )
    def test_greedy_packing(self, claim_len, sentence_lens, max_len):
        tok = _CountingTokenizer()
        claim = " ".join(["c"] * claim_len)
        premise = _premise_of(sentence_lens)
        ji = build_joint_sequence(tok, claim, premise, max_len)

        assert ji.length <= max_len
        assert ji.claim_span == (0, claim_len)
        assert ji.token_ids[claim_len] == SEP_ID

        survivors = len(ji.span_map)
        assert ji.dropped_sentences == tuple(range(survivors, len(sentence_lens)))
        prev_end = claim_len + 1
        for i, (start, end) in enumerate(ji.span_map):
            assert start == prev_end + (1 if i > 0 else 0)
            assert end - start == sentence_lens[i]
            prev_end = end
        if ji.span_map:
            assert ji.span_map[-1][1] == ji.length
        # greedy: the first dropped sentence really would not have fit
        if ji.dropped_sentences:
            first = ji.dropped_sentences[0]
            sep_cost = 1 if first > 0 else 0
            assert ji.length + sep_cost + sentence_lens[first] > max_len


class TestMetricsOracle:
    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=12),
                st.sets(st.integers(min_value=0, max_value=11)),
                st.sets(st.integers(min_value=0, max_value=11)),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_counts_match_brute_force(self, cases):
        preds, golds = [], {}
        exp_tp = exp_fp = exp_fn = exp_tn = 0
        for k, (n, sel, gold) in enumerate(cases):
            sel = {i for i in sel if i < n}
            gold = {i for i in gold if i < n}
            cid = f"c{k}"
            preds.append(_prediction_with_selection(cid, n, sel))
            golds[cid] = GoldClaim(cid, n, frozenset(gold), LABELS[0])
            for i in range(n):
                if i in sel and i in gold:
                    exp_tp += 1
                elif i in sel:
                    exp_fp += 1
                elif i in gold:
                    exp_fn += 1
                else:
                    exp_tn += 1
        prf = build_report(preds, golds).evidence_micro
        assert (prf.tp, prf.fp, prf.fn, prf.tn) == (exp_tp, exp_fp, exp_fn, exp_tn)
        denom_p = exp_tp + exp_fp
        denom_r = exp_tp + exp_fn
        assert prf.precision == (exp_tp / denom_p if denom_p else 0.0)
        assert prf.recall == (exp_tp / denom_r if denom_r else 0.0)


def _prediction_with_selection(claim_id, n, selected):
    probs = tuple(0.9 if i in selected else 0.1 for i in range(n))
    return SystemPrediction(
        claim_id=claim_id,
        evidence_probs=probs,
        selected=tuple(sorted(selected)),
        class_probs=(1.0, 0.0),
        verdict=LABELS[0],
    )


def _oracle_check(evidence_probs, selected, class_probs, verdict):
    """What ``SystemPrediction.__post_init__`` checks, one value at a time."""
    for p in (*evidence_probs, *class_probs):
        if not (-PROB_TOL <= p <= 1.0 + PROB_TOL):
            raise ValueError(f"probability {p} outside [0, 1]")
    if len(class_probs) != len(LABELS):
        raise ValueError(f"expected {len(LABELS)} class probabilities")
    if abs(sum(class_probs) - 1.0) > PROB_TOL:
        raise ValueError(f"class probabilities sum to {sum(class_probs)}")
    if verdict != verdict_from_probs(class_probs):
        raise ValueError("verdict is not the argmax of class_probs")
    if list(selected) != sorted(set(selected)):
        raise ValueError("selected indices must be sorted and unique")
    n = len(evidence_probs)
    if any(not 0 <= i < n for i in selected):
        raise ValueError("selected indices outside the premise")


_EDGES = (
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 0.5, 1.0,
    -PROB_TOL, 1.0 + PROB_TOL,  # just inside
    math.nextafter(-PROB_TOL, -1.0), math.nextafter(1.0 + PROB_TOL, 2.0),  # just outside
    -1e308, 1e308,
)
_values = st.one_of(st.sampled_from(_EDGES), st.floats(-0.1, 1.1), st.floats())
_class_probs = st.one_of(
    st.floats(0.0, 1.0).map(lambda p: (p, 1.0 - p)),
    st.lists(_values, max_size=3).map(tuple),
)
_selected = st.one_of(
    st.sets(st.integers(-1, 8)).map(lambda s: tuple(sorted(s))),
    st.lists(st.integers(-1, 8), max_size=4).map(tuple),
)


@settings(max_examples=500, deadline=None)
@given(
    evidence_probs=st.lists(_values, max_size=8).map(tuple),
    selected=_selected,
    class_probs=_class_probs,
    verdict=st.sampled_from(LABELS),
)
@example(evidence_probs=(), selected=(), class_probs=(), verdict=LABELS[0])
@example(evidence_probs=(float("nan"),), selected=(0,), class_probs=(1.0, 0.0), verdict=LABELS[0])
@example(evidence_probs=(0.5, float("nan")), selected=(), class_probs=(1.0, 0.0), verdict=LABELS[0])
@example(evidence_probs=(0.5,), selected=(), class_probs=(0.5, float("nan")), verdict=LABELS[0])
@example(evidence_probs=(float("inf"), float("-inf")), selected=(), class_probs=(1.0, 0.0),
         verdict=LABELS[0])
@example(evidence_probs=(-0.0, 1.0 + PROB_TOL), selected=(0, 1), class_probs=(-0.0, 1.0),
         verdict=LABELS[1])
def test_prediction_check_refuses_what_the_value_loop_refuses(evidence_probs, selected,
                                                              class_probs, verdict):
    """``SystemPrediction`` refuses exactly the records a check of one value
    at a time refuses, with the same message; a record it keeps, renamed,
    equals ``dataclasses.replace`` with the new id."""
    try:
        _oracle_check(evidence_probs, selected, class_probs, verdict)
        expected = None
    except ValueError as exc:
        expected = str(exc)
    try:
        pred = SystemPrediction("c", evidence_probs, selected, class_probs, verdict)
    except ValueError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    renamed = pred._renamed("d")
    assert renamed == dataclasses.replace(pred, claim_id="d")
    assert (renamed.claim_id, pred.claim_id) == ("d", "c")
