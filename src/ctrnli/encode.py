"""Token sequences, sequence builders, and encoder backends.

Two backends produce per-token dense matrices: a deterministic CPU "toy"
encoder (trainable, with hand-written gradients) and an optional adapter
around a pretrained transformer (frozen features). Sequence builders own the
layout and truncation rules; span bookkeeping inside joint claim-document
sequences lives in :class:`JointInput`.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULT_DIM, DEFAULT_N_LAYERS, DEFAULT_VOCAB_SIZE, POOLING_CHOICES
from .corpus import PremiseDoc, normalize_text
from .errors import BackendUnavailable, CtrnliError, UsageError
from .nn import scaled_sum

PAD_ID = 0
SEP_ID = 1
NUM_RESERVED = 2


class TokenSeq(tuple):
    """An immutable id sequence; plain text never carries separator ids.

    A tuple of the ids itself, so a tokenizer's memo can hand out the
    sequence it stored.
    """

    __slots__ = ()

    @property
    def token_ids(self) -> TokenSeq:
        return self

    @property
    def length(self) -> int:
        return len(self)


@dataclass(frozen=True)
class JointInput:
    """One claim-document sequence with per-sentence span bookkeeping.

    Layout is claim, SEP, then the surviving sentences separated by SEP.
    Sentences are packed whole and in order; the first sentence that would
    overflow ``max_len`` and everything after it land in
    ``dropped_sentences``. ``span_map[i]`` is the half-open token range of
    surviving sentence ``i`` (survivors are always the prefix 0..k-1 of the
    premise, so positions in ``span_map`` are global sentence indices too).
    """

    token_ids: tuple[int, ...]
    claim_span: tuple[int, int]
    span_map: tuple[tuple[int, int], ...]
    dropped_sentences: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.token_ids)


class _WordIds(dict):
    """Word -> id memo: a missing word is hashed once with blake2b, then stored.

    Each word is hashed from a copy of one empty hasher, cheaper than a new
    one. Stored ids are taken from one tuple of the word-id range, so words
    that share an id share one int object.
    """

    _HASHER = hashlib.blake2b(digest_size=8)

    def __init__(self, vocab_size: int):
        super().__init__()
        self.word_ids = tuple(range(NUM_RESERVED, vocab_size))

    def __missing__(self, word: str) -> int:
        hasher = self._HASHER.copy()
        hasher.update(word.encode("utf-8"))
        digest = hasher.digest()
        word_id = self[word] = self.word_ids[int.from_bytes(digest, "little") % len(self.word_ids)]
        return word_id


class HashingTokenizer:
    """Whitespace tokenizer with a stable hash into a fixed-size vocabulary.

    Ids 0 and 1 are reserved for padding and the separator; word ids live in
    [2, vocab_size). Hashing uses blake2b so ids are stable across processes
    and platforms.

    Each instance memoizes word -> id, so a word is hashed once, and raw
    text -> ``TokenSeq``, so a text is normalized, split and looked up once
    per tokenizer and a repeat returns the stored sequence. Claims are
    judged against shared trial sections, so texts recur: on the bench's
    shared-trials-predict workload the text memo makes prediction some 15 %
    faster. ``checkpoint.load_any_model`` gives a pipeline's two encoders
    one new tokenizer, so a loaded pipeline keeps one memo and its
    entailment stage finds its texts already tokenized. The memo costs
    memory for the life of the model: scaled-predict (seed 1) sends about
    36k distinct texts through the two tokenizers of a loaded pipeline and
    a joint model, and its peak RSS reads 72.3 MB against 69.5 MB without
    the text memo (median of 3 runs each, 2-vCPU VM). A dict subclass
    holding a bound method of its tokenizer would form a reference cycle,
    so every model reloaded in a process would keep its memo until the
    cyclic garbage collector runs (86-88 MB against 77.3 when measured).
    """

    def __init__(self, vocab_size: int = DEFAULT_VOCAB_SIZE):
        if vocab_size <= NUM_RESERVED:
            raise ValueError("vocab_size must exceed the reserved id count")
        self.vocab_size = vocab_size
        self.sep_id = SEP_ID
        self._ids = _WordIds(vocab_size)
        self._texts: dict[str, TokenSeq] = {}

    def tokenize(self, text: str) -> TokenSeq:
        seq = self._texts.get(text)
        if seq is None:
            # the same words as normalize_text(text).lower().split(): lower()
            # turns no code point into whitespace or out of it
            words = unicodedata.normalize("NFC", text).lower().split()
            if not words:
                raise CtrnliError(f"nothing to tokenize in {text!r}")
            seq = self._texts[text] = TokenSeq(map(self._ids.__getitem__, words))
        return seq


# --- sequence builders --------------------------------------------------------


def _claim_ids(tokenizer, claim: str, max_len: int, room: int) -> tuple[int, ...]:
    """The claim's token ids; a claim that leaves fewer than ``room`` of
    ``max_len`` positions free raises :class:`UsageError`."""
    claim_ids = tokenizer.tokenize(claim)
    if len(claim_ids) + room > max_len:
        raise UsageError(
            f"{len(claim_ids)} claim tokens leave no room for premise tokens in max_len {max_len}"
        )
    return claim_ids


@contextmanager
def naming_claim(claim_id: str):
    """Prefix a :class:`UsageError` raised inside the block with
    the claim it concerns."""
    try:
        yield
    except UsageError as exc:
        raise UsageError(f"claim {claim_id}: {exc}") from None


def build_pair_sequences(
    tokenizer, sentences: Sequence[str], claim: str, max_len: int
) -> list[TokenSeq]:
    """Lay out [sentence tokens, SEP, claim tokens] for every sentence.

    The claim is tokenized once for all pairs. Each pair is truncated to
    ``max_len`` from the sentence tail first; the claim is never touched
    before the sentence is gone, and a claim that cannot fit alongside the
    separator and at least one sentence token is an error.
    """
    claim_ids = _claim_ids(tokenizer, claim, max_len, room=2)
    sentence_ids = [tokenizer.tokenize(text) for text in sentences]
    sentence_budget = max_len - 1 - len(claim_ids)
    tail = (tokenizer.sep_id,) + claim_ids
    return [TokenSeq(sent_ids[:sentence_budget] + tail) for sent_ids in sentence_ids]


def build_pair_sequence(tokenizer, sentence: str, claim: str, max_len: int) -> TokenSeq:
    """The one pair of :func:`build_pair_sequences` for ``sentence``."""
    (pair,) = build_pair_sequences(tokenizer, [sentence], claim, max_len)
    return pair


def build_joint_sequence(tokenizer, claim: str, premise: PremiseDoc, max_len: int) -> JointInput:
    """Pack [claim, SEP, s_1, SEP, ..., s_k] greedily with whole sentences.

    Packing stops at the first sentence whose whole body (plus its separator)
    would push the sequence past ``max_len``; that sentence and all later
    ones are dropped. An empty premise yields just the claim and its
    separator.
    """
    claim_ids = _claim_ids(tokenizer, claim, max_len, room=1)
    tokens = list(claim_ids) + [tokenizer.sep_id]
    claim_span = (0, len(claim_ids))
    span_map: list[tuple[int, int]] = []
    dropped: list[int] = []
    for i, text in enumerate(premise.texts):
        sent_ids = tokenizer.tokenize(text)
        sep_cost = 1 if i > 0 else 0  # the claim's separator already stands before sentence 0
        if len(tokens) + sep_cost + len(sent_ids) > max_len:
            dropped = list(range(i, premise.n))
            break
        if sep_cost:
            tokens.append(tokenizer.sep_id)
        start = len(tokens)
        tokens.extend(sent_ids)
        span_map.append((start, len(tokens)))
    return JointInput(
        token_ids=tuple(tokens),
        claim_span=claim_span,
        span_map=tuple(span_map),
        dropped_sentences=tuple(dropped),
    )


def build_entailment_sequence(tokenizer, claim: str, evidence_texts: Sequence[str], max_len: int):
    """Lay out [claim, SEP, evidence...] for the verdict classifier.

    The evidence sentences are concatenated in the order given and truncated
    from the tail; the claim is protected, mirroring the pair builder.
    """
    claim_ids = _claim_ids(tokenizer, claim, max_len, room=2)
    evidence_ids: list[int] = []
    for text in evidence_texts:
        evidence_ids.extend(tokenizer.tokenize(text))
    budget = max_len - 1 - len(claim_ids)
    evidence_ids = evidence_ids[:budget]
    return TokenSeq(claim_ids + (tokenizer.sep_id,) + tuple(evidence_ids))


# --- pooling -------------------------------------------------------------------


def pool_span(matrix: np.ndarray, span: tuple[int, int], mode: str) -> np.ndarray:
    """Half-open ``span``'s rows reduced to one vector: one span of :func:`pool_spans`.

    At two or more columns, mean and max reduce the rows directly: numpy folds
    them one by one as it folds the :func:`pool_spans` block, to the same bits
    (but which of two different NaNs survives). ``first`` and a lone column,
    which numpy reduces pairwise, go through :func:`pool_spans`.
    """
    start, end = span
    if not (0 <= start < end <= matrix.shape[0]):
        raise CtrnliError(f"span {span} invalid for matrix of {matrix.shape[0]} rows")
    if mode == "max" and matrix.shape[1] > 1:
        return matrix[start:end].max(axis=0)
    if mode == "mean" and matrix.shape[1] > 1:
        return matrix[start:end].sum(axis=0) / matrix.dtype.type(end - start)
    return pool_spans(matrix, (span,), mode)[0]


def _offset_major(matrix: np.ndarray, starts: np.ndarray, lengths: np.ndarray, fill: float):
    """Row ``k`` of span ``i`` at ``[k, i]`` of one block; ``fill`` past each span's end."""
    offsets = np.arange(lengths.max())[:, None]
    past = offsets >= lengths
    block = matrix.take(np.where(past, 0, starts + offsets), axis=0)
    block[past] = fill
    return block


def pool_spans(matrix: np.ndarray, spans, mode: str) -> np.ndarray:
    """Pool each half-open span of ``matrix`` rows; one row per span.

    ``spans`` are ``(start, end)`` pairs or an ``(n, 2)`` integer array; they
    must be non-empty and in increasing order (they may touch). Each mode is
    one reduction over the batch; mean and max fold an offset-major block row
    by row, as ``.mean(axis=0)`` and ``.max(axis=0)`` fold a span of two or
    more columns (so max breaks a ``0.0``/``-0.0`` tie as they do).
    """
    if not len(spans):
        return np.zeros((0, matrix.shape[1]))
    bounds = np.asarray(spans)
    if mode == "first":
        return matrix[bounds[:, 0]]
    if mode not in ("mean", "max"):
        raise ValueError(f"unknown pooling mode '{mode}'")
    # an empty spare span, so the fold never meets a lone column, which numpy
    # reduces pairwise; the fill past each span's end changes no float
    starts, ends = np.concatenate([bounds, [(0, 0)]]).T
    if mode == "max":
        return _offset_major(matrix, starts, ends - starts, -np.inf).max(axis=0)[:-1]
    sums = _offset_major(matrix, starts, ends - starts, -0.0).sum(axis=0)[:-1]
    return sums / (ends - starts)[:-1, None].astype(matrix.dtype)


def pool_span_backward(
    d_pooled: np.ndarray,
    matrix: np.ndarray,
    span: tuple[int, int],
    mode: str,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The one-span case of :func:`pool_spans_backward`, with ``out`` as there."""
    return pool_spans_backward(d_pooled[None], matrix, [span], mode, out)


def pool_spans_backward(
    d_pooled: np.ndarray,
    matrix: np.ndarray,
    spans,
    mode: str,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of :func:`pool_spans` wrt the matrix (zero outside the spans).

    Row ``i`` of ``d_pooled`` flows back into ``spans[i]``: spread evenly
    (mean), into the first row (first), or into the first row holding each
    column's maximum, as ``argmax`` picks it (max). Spans are as in
    :func:`pool_spans` and never share a row, so every entry receives at
    most one addition. With ``out`` the gradient is added into that array in
    place and ``out`` is returned; otherwise it lands in a fresh zero matrix.
    """
    grad = np.zeros_like(matrix) if out is None else out
    if mode not in POOLING_CHOICES:
        raise ValueError(f"unknown pooling mode '{mode}'")
    if not len(spans):
        return grad
    starts, ends = np.asarray(spans).T
    if mode == "first":
        grad[starts] += d_pooled
        return grad
    lengths = ends - starts
    if mode == "mean":
        rows = np.repeat(starts + lengths - np.cumsum(lengths), lengths) + np.arange(lengths.sum())
        grad[rows] += np.repeat(d_pooled / lengths[:, None], lengths, axis=0)
    else:
        # -inf padding never beats a span row, so argmax sees each span alone
        winners = starts[:, None] + _offset_major(matrix, starts, lengths, -np.inf).argmax(axis=0)
        grad[winners, np.arange(matrix.shape[1])] += d_pooled
    return grad


# --- toy encoder ----------------------------------------------------------------


def _smooth(
    x: np.ndarray, starts: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Window-3 neighborhood average with zero padding (self-adjoint).

    ``starts`` marks the rows that begin a new sequence when ``x`` holds
    several sequences back to back; every sequence is smoothed exactly as if
    alone. Each row is ``(x[r] + x[r-1]) + x[r+1]`` over its in-sequence
    neighbors, divided by 3, written into ``out`` (which must not overlap
    ``x``) or a fresh array. At a boundary the first row of a sequence is
    reset to itself before the row after it is added, and the last row keeps
    the value it had before that addition.
    """
    y = np.empty_like(x) if out is None else out
    y[:1] = x[:1]
    np.add(x[1:], x[:-1], out=y[1:])
    joined = starts is None or not len(starts)
    if not joined:
        y[starts] = x[starts]
        last = y[starts - 1]
    y[:-1] += x[1:]
    if not joined:
        y[starts - 1] = last
    y /= 3.0
    return y


def _segment_sums(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """``np.add.at(np.zeros((n, D)), index, rows)`` as one ``np.bincount``
    over ``index * D + column``, which adds each value into its zeroed bin in
    input order: every cell gets the scatter's bits, ``-0.0`` included, but
    where two different NaNs meet the scatter keeps the later one's bits and
    this the earlier one's. (``np.add.reduceat`` does not add in order.)"""
    dim = rows.shape[1]
    flat = (index[:, None] * dim + np.arange(dim)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=n * dim).reshape(n, dim)


def _affine(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``x @ weight + bias`` with each row rounded the same at any row count,
    written into ``out`` when given (unless ``x`` is one row or ``weight``
    is padded).

    numpy computes a one-row product with gemv, which rounds differently from
    the gemm that computes the same row inside a taller matrix; a lone row
    is therefore doubled so that a sequence encodes to the same bits alone
    and batched. gemm also rounds a row by the product's row count when the
    output is not a multiple of 16 columns wide, so ``weight`` gets zero
    columns up to the next multiple of 16 and the product is sliced back.
    """
    width = weight.shape[1]
    if width % 16:
        zeros = np.zeros((len(weight), -width % 16), weight.dtype)
        weight, out = np.concatenate([weight, zeros], axis=1), None
    product = (np.concatenate([x, x]) @ weight)[:1] if len(x) == 1 else np.matmul(x, weight, out=out)
    out = product[:, :width]
    out += bias
    return out


class ToyEncoder:
    """Embedding table plus two mixing layers (position-wise affine, then
    neighborhood averaging). No attention: deterministic, CPU-fast, and
    differentiable by hand, which is all the training and gradient tests need.

    The forward runs in the parameters' dtype: float64 when seeded, for training
    and its finite-difference checks; float32, as checkpoints store them, once
    trained or loaded. Given parameters that are all read-only, as a loaded
    checkpoint's are for good, it applies layer 0 to the whole vocabulary
    once, and a forward without the training cache gathers rows of that
    table: the per-token rows bit for bit, as a gather commutes with a
    row-wise affine that ``_affine`` rounds alike at any row count. Such an
    encoder holds its parameters in a read-only mapping, so that no tensor
    can be swapped under the table either. ``encode_calls`` is a plain
    diagnostic counter of encoded sequences (not synchronized) used to
    verify the one-pass property of the joint system and the n + 1 encodes
    of the pipeline.
    """

    backend = "toy"
    trainable = True

    def __init__(self, vocab_size: int = DEFAULT_VOCAB_SIZE, dim: int = DEFAULT_DIM,
                 n_layers: int = DEFAULT_N_LAYERS, seed: int = 0, params: dict | None = None):
        """Draws the parameters from ``seed`` unless given ``params`` of :meth:`param_shapes`."""
        self.vocab_size = vocab_size
        self.dim = dim
        self.n_layers = n_layers
        self.tokenizer = HashingTokenizer(vocab_size)
        if params is None:
            rng = np.random.default_rng(seed)
            params = {"emb": rng.normal(0.0, 0.5, size=(vocab_size, dim))}
            for layer in range(n_layers):
                noise = rng.normal(0.0, 0.1 / np.sqrt(dim), size=(dim, dim))
                params[f"W{layer}"] = np.eye(dim) + noise
                params[f"b{layer}"] = np.zeros(dim)
        frozen = not any(arr.flags.writeable for arr in params.values())
        table = frozen and n_layers
        self._layer0 = _affine(params["emb"], params["W0"], params["b0"]) if table else None
        self.params: Mapping[str, np.ndarray] = MappingProxyType(params) if frozen else params
        self.encode_calls = 0

    @staticmethod
    def param_shapes(vocab_size: int, dim: int, n_layers: int) -> dict[str, tuple[int, ...]]:
        """The name and shape of each parameter of an encoder of these sizes."""
        shapes = {"emb": (vocab_size, dim)}
        for layer in range(n_layers):
            shapes[f"W{layer}"] = (dim, dim)
            shapes[f"b{layer}"] = (dim,)
        return shapes

    def encode(self, token_ids: Sequence[int]) -> np.ndarray:
        return self.encode_with_cache(token_ids, cache=False)[0]

    def encode_with_cache(
        self, token_ids: Sequence[int], lengths: Sequence[int] | None = None, cache: bool = True
    ):
        """Encode one sequence, or with ``lengths`` several back to back, and
        keep what :meth:`backward` needs. The rows of each sequence equal
        ``encode(seq)`` bit for bit, and ``encode_calls`` rises by one per
        sequence.

        Only training turns ``cache`` on. Without it the forward keeps no
        layer inputs, runs in two buffers and returns None for the cache.
        """
        ids = np.asarray(token_ids, dtype=np.int64)
        lengths = [len(ids)] if lengths is None else lengths
        self.encode_calls += len(lengths)
        starts = np.cumsum(lengths[:-1]) if len(lengths) > 1 else None
        if not cache:
            return self._forward(ids, starts=starts), None
        inputs: list[np.ndarray] = []
        x = self._forward(ids, starts=starts, inputs=inputs)
        return x, {"ids": ids, "inputs": inputs, "lengths": lengths}

    def _forward(self, ids: np.ndarray, starts=None, inputs: list | None = None) -> np.ndarray:
        """Token rows for ``ids``; ``starts`` as in :func:`_smooth`. Each
        layer's input is appended to ``inputs`` when given (for backward);
        otherwise every layer writes into the same two arrays, and a frozen
        encoder starts from its layer-0 table rows, already past the affine."""
        first = int(inputs is None and self._layer0 is not None)
        x = (self._layer0 if first else self.params["emb"]).take(ids, axis=0)
        buf = np.empty_like(x) if inputs is None else None
        if first:
            x, buf = _smooth(x, starts, out=buf), x
        for layer in range(first, self.n_layers):
            if inputs is not None:
                inputs.append(x)
            h = _affine(x, self.params[f"W{layer}"], self.params[f"b{layer}"], out=buf)
            x = _smooth(h, starts, out=x if inputs is None else None)
        return x

    def backward(self, cache, d_out: np.ndarray, scale: float = 1.0) -> dict:
        """Backpropagate d(loss)/d(output) of the cached sequences to all
        encoder parameters.

        Returns the sum over the sequences, in order, of ``scale`` times each
        one's gradient, bit for bit what a loop of one-sequence backwards
        adding ``scale * grad`` into zeroed buffers gives. Each layer loops
        once over the sequences, so every product has the shape it has for
        one sequence alone (BLAS rounds a row differently inside a taller
        product). The embedding gradient is row-sparse: a ``(rows, values)``
        pair over the batch's distinct ids (sorted), each sequence's share
        summed in token order by :func:`_segment_sums`; the other gradients
        are dense arrays.
        """
        lengths = cache["lengths"]
        ends = list(itertools.accumulate(lengths))
        bounds = list(zip([0, *ends[:-1]], ends))
        starts = np.asarray(ends[:-1], dtype=np.int64)
        grads = {}
        dx = d_out
        for layer in reversed(range(self.n_layers)):
            dx = _smooth(dx, starts)  # smoothing is symmetric, so its adjoint is itself
            x = cache["inputs"][layer]
            w_t = self.params[f"W{layer}"].T
            g_w = np.empty((len(bounds), self.dim, self.dim))
            g_b = np.empty((len(bounds), self.dim))
            d_in = np.empty_like(dx)
            for k, (a, b) in enumerate(bounds):
                np.matmul(x[a:b].T, dx[a:b], out=g_w[k])
                dx[a:b].sum(axis=0, out=g_b[k])
                np.matmul(dx[a:b], w_t, out=d_in[a:b])
            grads[f"W{layer}"] = scaled_sum(g_w, scale)
            grads[f"b{layer}"] = scaled_sum(g_b, scale)
            dx = d_in
        # sum per (sequence, id) in token order, then per id in sequence order
        item = np.repeat(np.arange(len(lengths)), lengths)
        keys, key_of_token = np.unique(item * self.vocab_size + cache["ids"], return_inverse=True)
        per_sequence = _segment_sums(key_of_token, dx, len(keys))
        per_sequence *= scale
        rows, row_of_key = np.unique(keys % self.vocab_size, return_inverse=True)
        grads["emb"] = (rows, _segment_sums(row_of_key, per_sequence, len(rows)))
        return grads


def encode_batch(encoder, seqs: Sequence[Sequence[int]], cache: bool = True):
    """The ``[sum T, D]`` rows of ``seqs`` back to back, plus the cache for
    the encoder's ``backward``: None for a frozen encoder, and None when
    ``cache`` is off, as prediction turns it (only training keeps a cache).

    A trainable encoder runs all of ``seqs`` in one forward. A frozen one
    runs them one at a time, unpadded, so each keeps exactly the features
    ``encode`` gives it.
    """
    if not encoder.trainable:
        return np.concatenate([encoder.encode(seq) for seq in seqs]), None
    lengths = [len(seq) for seq in seqs]
    ids = np.fromiter(itertools.chain.from_iterable(seqs), dtype=np.int64, count=sum(lengths))
    return encoder.encode_with_cache(ids, lengths, cache=cache)


class PretrainedEncoder:
    """Adapter over a HuggingFace transformer used as a frozen feature source.

    Model name and device are opaque strings handed to the transformers
    library. Construction fails with :class:`BackendUnavailable` when the
    name is empty, the libraries are absent or the weights cannot be loaded.
    Mixed precision is honored on CUDA devices and ignored on CPU.
    """

    backend = "pretrained"
    trainable = False
    params: Mapping[str, np.ndarray] = MappingProxyType({})  # frozen: nothing to train or save

    def __init__(
        self,
        model_name: str,
        device: str = "cpu",
        cache_dir: str | None = None,
        mixed_precision: bool = True,
    ):
        if not model_name:
            raise BackendUnavailable("pretrained backend needs a model name")
        try:
            import torch
            from transformers import AutoModel, AutoTokenizer
        except Exception as exc:  # pragma: no cover - depends on environment
            raise BackendUnavailable(f"torch/transformers not importable: {exc}") from exc
        cache_dir = cache_dir or os.environ.get("CTRNLI_CACHE")
        try:
            self._hf_tokenizer = AutoTokenizer.from_pretrained(model_name, cache_dir=cache_dir)
            self._model = AutoModel.from_pretrained(model_name, cache_dir=cache_dir)
        except Exception as exc:
            raise BackendUnavailable(f"cannot load pretrained model '{model_name}': {exc}") from exc
        self._torch = torch
        self._device = device
        self._model.to(device)
        self._model.eval()
        self.model_name = model_name
        self.mixed_precision = mixed_precision and device != "cpu"
        self.dim = int(self._model.config.hidden_size)
        self.vocab_size = int(self._hf_tokenizer.vocab_size)
        self.encode_calls = 0

    @property
    def tokenizer(self):
        # the adapter is its own tokenizer; sequence builders only need
        # tokenize() and sep_id
        return self

    @property
    def sep_id(self) -> int:
        sep = self._hf_tokenizer.sep_token_id
        if sep is None:
            raise BackendUnavailable("pretrained tokenizer has no separator token")
        return int(sep)

    def tokenize(self, text: str) -> TokenSeq:
        text = normalize_text(text)
        if not text:
            raise CtrnliError("nothing to tokenize")
        ids = self._hf_tokenizer.encode(text, add_special_tokens=False)
        if not ids:
            raise CtrnliError(f"tokenizer produced no ids for {text!r}")
        return TokenSeq(int(i) for i in ids)

    def encode(self, token_ids: Sequence[int]) -> np.ndarray:
        self.encode_calls += 1
        torch = self._torch
        ids = torch.tensor([list(token_ids)], dtype=torch.long, device=self._device)
        with torch.no_grad():
            if self.mixed_precision:
                with torch.autocast(device_type=self._device.split(":")[0]):
                    out = self._model(input_ids=ids).last_hidden_state
            else:
                out = self._model(input_ids=ids).last_hidden_state
        return out[0].float().cpu().numpy().astype(np.float64)

