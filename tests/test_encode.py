"""Tokenizer, sequence builders, span pooling, and the toy encoder."""

import gc
import hashlib
import tracemalloc
import unicodedata
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrnli.corpus import ClaimInstance, PremiseDoc
from ctrnli.encode import (
    NUM_RESERVED,
    PAD_ID,
    SEP_ID,
    HashingTokenizer,
    PretrainedEncoder,
    ToyEncoder,
    build_entailment_sequence,
    build_joint_sequence,
    build_pair_sequence,
    build_pair_sequences,
    encode_batch,
    pool_span,
    pool_span_backward,
    pool_spans,
    pool_spans_backward,
    _smooth,
)
from ctrnli.errors import BackendUnavailable, CtrnliError, UsageError
from ctrnli.nn import ClassifierHead
from ctrnli.pipeline import score_evidence


def _oracle_smooth(x: np.ndarray, starts: np.ndarray | None = None) -> np.ndarray:
    """``_smooth`` as it stood with a copy and masked additions, copied
    verbatim."""
    y = x.copy()
    if starts is None or not len(starts):
        y[1:] += x[:-1]
        y[:-1] += x[1:]
    else:
        # row r - 1 and row r sit on opposite sides of a boundary for r in starts
        joined = np.ones((len(x) - 1, 1), dtype=bool)
        joined[starts - 1] = False
        np.add(y[1:], x[:-1], out=y[1:], where=joined)
        np.add(y[:-1], x[1:], out=y[:-1], where=joined)
    y /= 3.0
    return y


def _oracle_affine(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``_affine`` as it stood before it could write into a given array,
    copied verbatim."""
    out = (np.concatenate([x, x]) @ weight)[:1] if x.shape[0] == 1 else x @ weight
    out += bias
    return out


def _oracle_forward(encoder, ids: np.ndarray, starts=None, inputs: list | None = None):
    """``ToyEncoder._forward`` as it stood with fresh arrays for every layer,
    copied verbatim apart from taking the encoder as an argument and calling
    the oracles above."""
    x = encoder.params["emb"][ids]
    for layer in range(encoder.n_layers):
        if inputs is not None:
            inputs.append(x)
        x = _oracle_smooth(
            _oracle_affine(x, encoder.params[f"W{layer}"], encoder.params[f"b{layer}"]), starts
        )
    return x


def _oracle_toy_backward(encoder, cache, d_out):
    """``ToyEncoder.backward`` as it stood with a dense embedding gradient,
    copied verbatim apart from taking the encoder as an argument and calling
    ``_oracle_smooth``."""
    grads = {name: np.zeros_like(p) for name, p in encoder.params.items()}
    dx = d_out
    for layer in reversed(range(encoder.n_layers)):
        dx = _oracle_smooth(dx)  # smoothing is symmetric, so its adjoint is itself
        x_in = cache["inputs"][layer]
        grads[f"W{layer}"] += x_in.T @ dx
        grads[f"b{layer}"] += dx.sum(axis=0)
        dx = dx @ encoder.params[f"W{layer}"].T
    np.add.at(grads["emb"], cache["ids"], dx)
    return grads


def _oracle_encode_with_cache(encoder, token_ids):
    """``ToyEncoder.encode_with_cache`` as it stood for one sequence only,
    copied verbatim apart from taking the encoder as an argument and calling
    ``_oracle_forward``."""
    encoder.encode_calls += 1
    ids = np.asarray(token_ids, dtype=np.int64)
    inputs: list[np.ndarray] = []
    x = _oracle_forward(encoder, ids, inputs=inputs)
    return x, {"ids": ids, "inputs": inputs}


def _oracle_pool_span(matrix: np.ndarray, span: tuple[int, int], mode: str = "mean") -> np.ndarray:
    """``pool_span`` as it stood before it became the one-span case of
    ``pool_spans``, copied verbatim."""
    start, end = span
    if not (0 <= start < end <= matrix.shape[0]):
        raise CtrnliError(f"span {span} invalid for matrix of {matrix.shape[0]} rows")
    block = matrix[start:end]
    if mode == "mean":
        return block.mean(axis=0)
    if mode == "first":
        return block[0]
    if mode == "max":
        return block.max(axis=0)
    raise ValueError(f"unknown pooling mode '{mode}'")


def _oracle_pool_span_backward(
    d_pooled: np.ndarray,
    matrix: np.ndarray,
    span: tuple[int, int],
    mode: str = "mean",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``pool_span_backward`` as it stood before pool backward was batched,
    copied verbatim."""
    start, end = span
    grad = np.zeros_like(matrix) if out is None else out
    if mode == "mean":
        grad[start:end] += d_pooled / (end - start)
    elif mode == "first":
        grad[start] += d_pooled
    elif mode == "max":
        winners = matrix[start:end].argmax(axis=0)
        grad[start + winners, np.arange(matrix.shape[1])] += d_pooled
    else:
        raise ValueError(f"unknown pooling mode '{mode}'")
    return grad


def _densify(grad, shape):
    """A row-sparse ``(rows, values)`` gradient scattered into zeros."""
    rows, values = grad
    dense = np.zeros(shape)
    dense[rows] = values
    return dense


def assert_grads_equal(new: dict, old: dict):
    """``new`` equals the dense ``old`` bit for bit (``np.array_equal``); a
    row-sparse entry of ``new`` must name sorted unique rows, hold exactly
    ``old``'s values there, and ``old`` must be zero everywhere else."""
    assert new.keys() == old.keys()
    for name, dense in old.items():
        grad = new[name]
        if isinstance(grad, tuple):
            rows, values = grad
            assert np.array_equal(rows, np.unique(rows)), name
            assert np.array_equal(values, dense[rows]), name
            rest = dense.copy()
            rest[rows] = 0.0
            assert not rest.any(), name
        else:
            assert np.array_equal(grad, dense), name


def _oracle_words(text: str) -> list[str]:
    """The words ``HashingTokenizer`` hashed before its text memo, copied
    verbatim: ``normalize_text(text).lower().split()``, with the body of
    ``corpus.normalize_text`` inlined."""
    return " ".join(unicodedata.normalize("NFC", text).split()).lower().split()


# whitespace that str.split() knows (tab, NBSP, U+2028, ideographic space),
# combining marks, precomposed letters, mixed case and letters whose lower
# case depends on context (final sigma) or grows (dotted capital I)
_TEXTS = st.text(
    alphabet=st.sampled_from(
        list("aBcDeΣσς\t\n ") + ["\xa0", "\u2028", "\u3000", "\u0301", "\u0327", "é", "É",
                                "İ", "ß", "ǅ", "'"]
    ),
    max_size=24,
)


def _premise(*lengths: int) -> PremiseDoc:
    """A premise whose i-th sentence has ``lengths[i]`` words."""
    texts = tuple(" ".join(f"w{i}x{j}" for j in range(n)) for i, n in enumerate(lengths))
    return PremiseDoc(texts=texts, spans={"ct": (0, len(texts))})


class TestHashingTokenizer:
    def test_ids_in_word_range(self):
        tok = HashingTokenizer(1024)
        ids = tok.tokenize("severe nausea occurred in a third of participants").token_ids
        assert all(NUM_RESERVED <= i < 1024 for i in ids)

    def test_reserved_ids(self):
        assert PAD_ID == 0 and SEP_ID == 1

    def test_stable_across_instances(self):
        a = HashingTokenizer().tokenize("median survival extended")
        b = HashingTokenizer().tokenize("median survival extended")
        assert a == b

    def test_case_insensitive(self):
        tok = HashingTokenizer()
        assert tok.tokenize("Median SURVIVAL") == tok.tokenize("median survival")

    def test_empty_text(self):
        with pytest.raises(CtrnliError, match="nothing to tokenize in '   '"):
            HashingTokenizer().tokenize("   ")

    @staticmethod
    def _formula(word, vocab_size):
        digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()
        return NUM_RESERVED + int.from_bytes(digest, "little") % (vocab_size - NUM_RESERVED)

    def test_memoized_ids_follow_blake2b(self):
        """First lookups (misses) and repeated ones (hits) give the hash formula."""
        tok = HashingTokenizer(1024)
        text = "median survival median extended survival"
        expected = tuple(self._formula(w, 1024) for w in text.split())
        assert tok.tokenize(text).token_ids == expected  # misses, then in-text repeats
        assert tok.tokenize(text).token_ids == expected  # every word a hit

    def test_tokenizers_share_no_memo(self):
        """A memo shared across instances would hand the second vocabulary the
        first one's ids."""
        small, large = HashingTokenizer(97), HashingTokenizer(1024)
        words = "nausea occurred in a third of participants"
        for tok in (small, large):
            expected = tuple(self._formula(w, tok.vocab_size) for w in words.split())
            assert tok.tokenize(words).token_ids == expected
        assert small.tokenize(words) != large.tokenize(words)

    @given(texts=st.lists(_TEXTS, min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_text_memo_matches_the_unmemoized_formula(self, texts):
        """A fresh tokenizer, a memo hit and the parent's normalize-then-lower
        words hashed with blake2b give the same ids; text without words
        raises on every call, so a failure is never memoized."""
        shared = HashingTokenizer(97)
        for text in texts:
            words = _oracle_words(text)
            if not words:
                for tok in (HashingTokenizer(97), shared, shared):
                    with pytest.raises(CtrnliError, match="nothing to tokenize in"):
                        tok.tokenize(text)
                continue
            expected = tuple(self._formula(w, 97) for w in words)
            assert HashingTokenizer(97).tokenize(text).token_ids == expected
            assert shared.tokenize(text).token_ids == expected  # a miss, or a hit on a repeat
            assert shared.tokenize(text).token_ids == expected  # a hit


class TestTextMemoLifetime:
    """A tokenizer's text memo dies with its last reference, without the
    cyclic garbage collector: a memo that points back at its owner (say, a
    dict holding a bound method of the tokenizer) would keep every model
    reloaded in a process alive until the next collection."""

    @staticmethod
    def _freed_without_collection(make):
        """Whether every object ``make()`` returns is gone once the returned
        list, their last reference, is dropped."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            refs = [weakref.ref(obj) for obj in make()]
            return all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()

    def test_tokenizer(self):
        def make():
            tok = HashingTokenizer(97)
            tok.tokenize("Median survival was 14 months")
            return [tok]

        assert self._freed_without_collection(make)

    def test_toy_encoder(self):
        def make():
            encoder = ToyEncoder(vocab_size=64, dim=8)
            encoder.encode(encoder.tokenizer.tokenize("median survival").token_ids)
            return [encoder, encoder.tokenizer]

        assert self._freed_without_collection(make)

    @pytest.mark.parametrize("system", ["pipeline", "joint"])
    def test_loaded_model(self, system, tmp_path, corpus, claims):
        from ctrnli.checkpoint import load_any_model, save_joint_model, save_pipeline_model
        from ctrnli.joint import JointModel, predict_joint
        from ctrnli.pipeline import PipelineModel, predict_pipeline

        if system == "pipeline":
            save_pipeline_model(
                PipelineModel(
                    ToyEncoder(64, 8), ClassifierHead.create(8), ToyEncoder(64, 8),
                    ClassifierHead.create(8),
                ),
                tmp_path / "ckpt",
            )
        else:
            save_joint_model(
                JointModel(ToyEncoder(64, 8), ClassifierHead.create(8), ClassifierHead.create(8)),
                tmp_path / "ckpt",
            )
        predict = predict_pipeline if system == "pipeline" else predict_joint

        def make():
            loaded, model = load_any_model(tmp_path / "ckpt")
            assert loaded == system
            for claim in claims[:4]:
                predict(claim, corpus, model)
            if system == "pipeline":
                encoders = [model.evidence_encoder, model.entailment_encoder]
            else:
                encoders = [model.encoder]
            return [model, *encoders, *(encoder.tokenizer for encoder in encoders)]

        assert self._freed_without_collection(make)


class _WordTokenizer:
    """Maps any word to a fixed id so sequence lengths are fully controlled."""

    sep_id = SEP_ID

    def tokenize(self, text):
        from ctrnli.encode import TokenSeq

        words = text.split()
        if not words:
            raise CtrnliError(text)
        return TokenSeq(tuple(2 for _ in words))


class TestPairSequence:
    def test_layout(self):
        tok = HashingTokenizer()
        pair = build_pair_sequence(tok, "nausea occurred", "nausea was frequent", 512)
        assert pair.token_ids.index(SEP_ID) == 2
        assert len(pair.token_ids) == 2 + 1 + 3

    def test_sentence_truncated_before_claim(self):
        """A 600-word sentence with an 8-word claim at max_len 512 keeps
        503 sentence tokens: 503 + 1 + 8 = 512."""
        tok = _WordTokenizer()
        sentence = " ".join(["s"] * 600)
        claim = " ".join(["c"] * 8)
        pair = build_pair_sequence(tok, sentence, claim, 512)
        assert len(pair.token_ids) == 512
        assert pair.token_ids.index(SEP_ID) == 503

    def test_claim_too_long(self):
        tok = _WordTokenizer()
        with pytest.raises(UsageError, match="511 claim tokens leave no room .* max_len 512"):
            build_pair_sequence(tok, "s", " ".join(["c"] * 511), 512)

    def test_batched_builder_matches_one_pair_at_a_time(self):
        tok = HashingTokenizer()
        sentences = ["nausea occurred", "one two three four five six seven", "rash"]
        claim = "nausea was frequent"
        pairs = build_pair_sequences(tok, sentences, claim, 8)
        assert pairs == [
            build_pair_sequence(tok, text, claim, 8) for text in sentences
        ]
        assert pairs[1].token_ids.index(SEP_ID) == 4  # truncated: 4 + 1 + 3 = 8

    def test_batched_builder_tokenizes_claim_once(self):
        calls = []

        class _Counting(_WordTokenizer):
            def tokenize(self, text):
                calls.append(text)
                return super().tokenize(text)

        build_pair_sequences(_Counting(), ["a b", "c", "d e f"], "claim words", 64)
        assert calls.count("claim words") == 1 and len(calls) == 4


class TestJointSequence:
    def test_packing_worked_example(self):
        """Claim of 5 plus sentences of 10 each: two fit at max_len 30."""
        tok = _WordTokenizer()
        claim = " ".join(["c"] * 5)
        premise = _premise(10, 10, 10)
        ji = build_joint_sequence(tok, claim, premise, 30)
        assert ji.dropped_sentences == (2,)
        assert len(ji.token_ids) == 27
        assert ji.claim_span == (0, 5)
        assert ji.span_map == ((6, 16), (17, 27))

    def test_all_fit(self):
        tok = _WordTokenizer()
        ji = build_joint_sequence(tok, " ".join(["c"] * 5), _premise(10, 10, 10), 38)
        assert ji.dropped_sentences == ()
        assert len(ji.token_ids) == 38

    def test_empty_premise(self):
        tok = _WordTokenizer()
        ji = build_joint_sequence(tok, "c c c", _premise(), 30)
        assert ji.span_map == ()
        assert list(ji.token_ids) == [2, 2, 2, SEP_ID]

    def test_claim_exactly_fills(self):
        tok = _WordTokenizer()
        ji = build_joint_sequence(tok, " ".join(["c"] * 29), _premise(5), 30)
        assert ji.dropped_sentences == (0,)

    def test_claim_too_long(self):
        tok = _WordTokenizer()
        with pytest.raises(UsageError, match="30 claim tokens leave no room .* max_len 30"):
            build_joint_sequence(tok, " ".join(["c"] * 30), _premise(5), 30)

    def test_spans_cover_sentence_tokens(self):
        tok = HashingTokenizer()
        premise = _premise(3, 7, 2, 5)
        ji = build_joint_sequence(tok, "claim words here", premise, 1024)
        for i, (start, end) in enumerate(ji.span_map):
            expected = tok.tokenize(premise.texts[i]).token_ids
            assert ji.token_ids[start:end] == expected


class TestEntailmentSequence:
    def test_layout_and_truncation(self):
        tok = _WordTokenizer()
        seq = build_entailment_sequence(tok, "c c", ["e e e", "f f"], 7)
        # claim(2) + SEP + evidence truncated to 4
        assert len(seq.token_ids) == 7
        assert seq.token_ids[2] == SEP_ID

    def test_claim_protected(self):
        tok = _WordTokenizer()
        with pytest.raises(UsageError, match="9 claim tokens leave no room .* max_len 10"):
            build_entailment_sequence(tok, " ".join(["c"] * 9), ["e"], 10)


class TestSpanPooling:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.matrix = rng.normal(size=(12, 5))

    def test_mean(self):
        np.testing.assert_allclose(
            pool_span(self.matrix, (3, 7), "mean"), self.matrix[3:7].mean(axis=0)
        )

    def test_first(self):
        np.testing.assert_allclose(pool_span(self.matrix, (3, 7), "first"), self.matrix[3])

    def test_max(self):
        np.testing.assert_allclose(
            pool_span(self.matrix, (3, 7), "max"), self.matrix[3:7].max(axis=0)
        )

    def test_empty_span(self):
        with pytest.raises(CtrnliError, match=r"span \(4, 4\) invalid for matrix of 12 rows"):
            pool_span(self.matrix, (4, 4), "mean")

    @pytest.mark.parametrize("mode", ["mean", "first", "max"])
    @pytest.mark.parametrize(
        "spans",
        [[(0, 12)], [(0, 3), (3, 4), (4, 12)], [(2, 3), (4, 9), (10, 11)], [(5, 6)]],
    )
    def test_pool_spans_match_pool_span_bitwise(self, mode, spans):
        pooled = pool_spans(self.matrix, spans, mode)
        expected = np.stack([_oracle_pool_span(self.matrix, span, mode) for span in spans])
        assert pooled.flags.c_contiguous
        assert np.array_equal(pooled, expected)

    def test_pool_spans_of_no_spans(self):
        assert pool_spans(self.matrix, [], "max").shape == (0, 5)

    @pytest.mark.parametrize("mode", ["mean", "first", "max"])
    @pytest.mark.parametrize("width", [1, 2, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_span_is_its_span_of_pool_spans_bitwise(self, mode, width, dtype):
        """``pool_span`` reduces a lone span's rows itself at two or more
        columns; its bytes are those of ``pool_spans`` over that one span.
        Besides normal values: a column 0 of only ``0.0`` and ``-0.0``, so
        max meets signed-zero ties (which a lone column's ``.max(axis=0)``
        breaks otherwise over 17 or 33 rows), and a last column holding one
        NaN."""
        normal = np.random.default_rng(width).normal(size=(40, width)).astype(dtype)
        zeros, nan = normal.copy(), normal.copy()
        zeros[:, 0] = np.where(np.random.default_rng(2).random(40) < 0.5, 0.0, -0.0)
        nan[9, -1] = np.nan
        for matrix in (normal, zeros, nan):
            for span in [(0, 40), (0, 1), (3, 4), (5, 22), (7, 40), (11, 17), (12, 14)]:
                pooled = pool_span(matrix, span, mode)
                assert pooled.dtype == matrix.dtype
                assert pooled.tobytes() == pool_spans(matrix, [span], mode)[0].tobytes()

    @pytest.mark.parametrize("mode", ["mean", "first", "max"])
    def test_spans_as_a_bounds_array_pool_the_same_bytes(self, mode):
        spans = [(0, 3), (3, 4), (6, 11), (11, 12)]
        bounds = np.array(spans)
        pooled = pool_spans(self.matrix, spans, mode)
        assert pool_spans(self.matrix, bounds, mode).tobytes() == pooled.tobytes()
        d_pooled = np.random.default_rng(5).normal(size=(4, 5))
        grad = pool_spans_backward(d_pooled, self.matrix, spans, mode)
        assert pool_spans_backward(d_pooled, self.matrix, bounds, mode).tobytes() == grad.tobytes()

    @pytest.mark.parametrize("mode", ["mean", "first", "max"])
    def test_backward_into_out_accumulates(self, mode):
        rng = np.random.default_rng(4)
        d_pooled = rng.normal(size=5)
        acc = rng.normal(size=self.matrix.shape)
        expected = acc + pool_span_backward(d_pooled, self.matrix, (2, 9), mode)
        out = pool_span_backward(d_pooled, self.matrix, (2, 9), mode, out=acc)
        assert out is acc
        assert np.array_equal(acc, expected)

    @pytest.mark.parametrize("mode", ["mean", "first", "max"])
    def test_backward_matches_finite_differences(self, mode):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(6, 4))
        d_pooled = rng.normal(size=4)
        analytic = pool_span_backward(d_pooled, matrix, (1, 5), mode)
        eps = 1e-6
        for i in range(6):
            for j in range(4):
                bumped = matrix.copy()
                bumped[i, j] += eps
                plus = float(pool_span(bumped, (1, 5), mode) @ d_pooled)
                bumped[i, j] -= 2 * eps
                minus = float(pool_span(bumped, (1, 5), mode) @ d_pooled)
                np.testing.assert_allclose(
                    analytic[i, j], (plus - minus) / (2 * eps), atol=1e-6
                )


class TestToyEncoder:
    def test_output_shape(self):
        enc = ToyEncoder(dim=16)
        out = enc.encode((2, 3, 4, 5))
        assert out.shape == (4, 16)
        assert out.dtype == np.float64

    def test_deterministic_init(self):
        a, b = ToyEncoder(seed=5), ToyEncoder(seed=5)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_different_seeds_differ(self):
        a, b = ToyEncoder(seed=1), ToyEncoder(seed=2)
        assert not np.array_equal(a.params["emb"], b.params["emb"])

    def test_encode_counter(self):
        enc = ToyEncoder()
        enc.encode((2, 3))
        enc.encode((2, 3))
        assert enc.encode_calls == 2

    def test_encode_batch_counts_one_call_per_sequence(self):
        enc = ToyEncoder(dim=8)
        out, _ = encode_batch(enc, [(2, 3), (4,), (5, 6, 7)])
        assert out.shape == (6, 8)
        assert enc.encode_calls == 3

    def test_smoothing_is_self_adjoint(self):
        """<smooth(x), y> == <x, smooth(y)>, required for the hand-written
        backward pass to be the true adjoint."""
        from ctrnli.encode import _smooth

        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(9, 4)), rng.normal(size=(9, 4))
        np.testing.assert_allclose(np.sum(_smooth(x) * y), np.sum(x * _smooth(y)))

    def test_backward_matches_finite_differences(self):
        enc = ToyEncoder(vocab_size=64, dim=6, seed=2)
        ids = (2, 9, 2, 17, 30)
        rng = np.random.default_rng(0)
        d_out = rng.normal(size=(len(ids), 6))

        out, cache = enc.encode_with_cache(ids)
        grads = enc.backward(cache, d_out)
        grads["emb"] = _densify(grads["emb"], enc.params["emb"].shape)

        eps = 1e-6
        for name in ("emb", "W0", "b1"):
            param = enc.params[name]
            # probe a handful of coordinates, including a repeated-token row
            probes = [(2, 1), (9, 0)] if name == "emb" else [(0, 0), (3, 4)]
            if param.ndim == 1:
                probes = [(0,), (5,)]
            for idx in probes:
                param[idx] += eps
                plus = float(np.sum(enc.encode(ids) * d_out))
                param[idx] -= 2 * eps
                minus = float(np.sum(enc.encode(ids) * d_out))
                param[idx] += eps
                fd = (plus - minus) / (2 * eps)
                np.testing.assert_allclose(grads[name][idx], fd, rtol=1e-6, atol=1e-8)


_EDGE_ROWS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1.5, -2.25, 1e308])
# back-to-back sequences: 1-token ones included, and one sequence alone
_LENGTHS = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=8)


def _starts(lengths):
    return np.cumsum(lengths[:-1]) if len(lengths) > 1 else None


class TestCacheFreeForward:
    """The cache-free forward and the copy-free smoothing against the frozen
    oracles above, bit for bit, including -0.0, infinities and the NaNs
    they make."""

    @settings(deadline=None)
    @given(_LENGTHS, st.data())
    def test_smooth_equals_oracle(self, lengths, data):
        n = sum(lengths)
        x = np.array(data.draw(st.lists(
            st.lists(st.floats(-1e6, 1e6) | _EDGE_ROWS, min_size=3, max_size=3),
            min_size=n, max_size=n,
        )))
        starts = _starts(lengths)
        with np.errstate(all="ignore"):  # inf - inf and overflow are part of the draw
            expected = _oracle_smooth(x, starts).tobytes()
            assert _smooth(x, starts).tobytes() == expected
            out = np.full_like(x, np.nan)
            assert _smooth(x, starts, out=out) is out
            assert out.tobytes() == expected

    @settings(deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=6),
            min_size=1, max_size=8,
        ),
        st.integers(min_value=1, max_value=3),
    )
    def test_forward_equals_oracle(self, seqs, n_layers):
        """Ids 2-4 embed to rows of -0.0, inf and -inf."""
        enc = ToyEncoder(vocab_size=16, dim=8, n_layers=n_layers, seed=4)
        enc.params["emb"][2:5] = np.array([-0.0, np.inf, -np.inf])[:, None]
        lengths = [len(seq) for seq in seqs]
        ids = np.array([i for seq in seqs for i in seq])
        with np.errstate(all="ignore"):
            expected = _oracle_forward(enc, ids, _starts(lengths)).tobytes()
            rows, cache = enc.encode_with_cache(ids, lengths, cache=False)
            assert cache is None
            assert rows.tobytes() == expected
            assert enc.encode_with_cache(ids, lengths)[0].tobytes() == expected
            assert encode_batch(enc, seqs, cache=False)[0].tobytes() == expected

    def test_cache_off_returns_no_cache(self):
        enc = ToyEncoder(vocab_size=16, dim=4)
        assert encode_batch(enc, [(2, 3), (4,)], cache=False)[1] is None
        assert enc.encode_with_cache((2, 3, 4), cache=False)[1] is None
        assert enc.encode_with_cache((2, 3, 4))[1]["inputs"]
        assert enc.encode_calls == 4

    def test_scoring_keeps_no_layer_inputs(self):
        """The tracemalloc peak of an 80-sentence ``score_evidence`` call
        stays under 2.5 times its token matrix: the two forward buffers and
        little else. The forward that kept every layer's input read 4.1
        (2,707 KiB of a 660 KiB matrix; +837 KiB over a cache-free copy when
        first measured at another premise length)."""
        texts = tuple(" ".join(f"w{i}x{j}" for j in range(24)) for i in range(80))
        premise = PremiseDoc(texts, {"t": (0, 80)})
        claim = ClaimInstance("c", "the claim has eight words in its text", "s", "t")
        enc = ToyEncoder(seed=3)
        head = ClassifierHead.create(enc.dim)
        score_evidence(claim, premise, enc, head, 512, "mean")  # fill the tokenizer memo first
        matrix_bytes = 80 * (24 + 1 + 8) * enc.dim * 8
        tracemalloc.start()
        try:
            score_evidence(claim, premise, enc, head, 512, "mean")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * matrix_bytes, peak / matrix_bytes


class TestCreateEncoder:
    """Building the pretrained backend; each refusal is BackendUnavailable (exit 3)."""

    def test_pretrained_needs_model_name(self):
        with pytest.raises(BackendUnavailable, match="needs a model name"):
            PretrainedEncoder("")

    def test_pretrained_unloadable_model(self, monkeypatch):
        """A bogus model id must surface as BackendUnavailable, whether the
        libraries are missing or the weights cannot be fetched."""
        monkeypatch.setenv("HF_HUB_OFFLINE", "1")
        monkeypatch.setenv("TRANSFORMERS_OFFLINE", "1")
        with pytest.raises(BackendUnavailable):
            PretrainedEncoder("no-such-org/no-such-model-xyz")

    def test_pretrained_cache_dir_from_env(self, monkeypatch, tmp_path):
        """CTRNLI_CACHE feeds the weight loaders; an explicit cache_dir wins."""
        transformers = pytest.importorskip("transformers")
        seen = []

        class _Tokenizer:
            vocab_size = 11
            sep_token_id = 3

        class _Model:
            class config:
                hidden_size = 4

            def to(self, device):
                return self

            def eval(self):
                return self

        def fake_tokenizer(name, cache_dir=None):
            seen.append(cache_dir)
            return _Tokenizer()

        def fake_model(name, cache_dir=None):
            seen.append(cache_dir)
            return _Model()

        monkeypatch.setattr(transformers.AutoTokenizer, "from_pretrained", fake_tokenizer)
        monkeypatch.setattr(transformers.AutoModel, "from_pretrained", fake_model)
        monkeypatch.setenv("CTRNLI_CACHE", str(tmp_path / "hub"))

        enc = PretrainedEncoder("stub-model")
        assert seen == [str(tmp_path / "hub")] * 2
        assert (enc.dim, enc.vocab_size, enc.sep_id) == (4, 11, 3)

        seen.clear()
        PretrainedEncoder("stub-model", cache_dir=str(tmp_path / "explicit"))
        assert seen == [str(tmp_path / "explicit")] * 2
