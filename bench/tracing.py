"""Spans around calls into each layer of ``ctrnli``, recorded from outside.

``pipeline`` and ``joint`` bind helpers such as ``build_pair_sequence``,
``pool_span`` and ``mlp_forward`` by name at import time, so a wrapper has to
replace the name at every module that imported it, not only where it is
defined. Methods are wrapped on their class. :meth:`Tracer.install` swaps
the wrappers in and :meth:`Tracer.uninstall` puts the originals back.

A span records its name, start, end, parent span, the claim being predicted
(if any) and the benchmark phase. Spans stay in memory in flat arrays until
:meth:`Tracer.write` dumps them. A layer's self time is the duration of its
spans minus the time covered by their direct children.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

import ctrnli
from ctrnli import checkpoint, corpus, encode, ensemble, joint, metrics, nn, pipeline

LAYERS = ("corpus", "encode", "nn", "pipeline", "joint", "ensemble", "metrics", "checkpoint")

# (span name, defining module, attribute, other modules that import it by name)
FUNCTIONS = (
    ("corpus.load", corpus, "load_corpus", (ctrnli,)),
    ("corpus.load", corpus, "load_claims", (ctrnli,)),
    ("corpus.validate", corpus, "validate_dataset", (ctrnli,)),
    ("corpus.resolve_premise", corpus, "resolve_premise", (ctrnli, pipeline, joint, metrics)),
    ("corpus.gold_globals", corpus, "gold_evidence_globals", (ctrnli, pipeline, joint, metrics)),
    ("encode.build_pair", encode, "build_pair_sequence", (pipeline,)),
    ("encode.build_joint", encode, "build_joint_sequence", (joint,)),
    ("encode.build_entailment", encode, "build_entailment_sequence", (pipeline,)),
    ("encode.pool", encode, "pool_span", (pipeline, joint)),
    ("encode.pool_backward", encode, "pool_span_backward", (pipeline, joint)),
    ("nn.mlp_forward", nn, "mlp_forward", (pipeline, joint)),
    ("nn.mlp_backward", nn, "mlp_backward", (pipeline, joint)),
    ("pipeline.score_evidence", pipeline, "score_evidence", (ctrnli,)),
    ("pipeline.select", pipeline, "select_evidence", (ctrnli, joint, ensemble)),
    ("pipeline.classify", pipeline, "classify_entailment", (ctrnli,)),
    ("pipeline.grads", pipeline, "sequence_classification_grads", ()),
    ("pipeline.train", pipeline, "train_evidence_model", (ctrnli,)),
    ("pipeline.train", pipeline, "train_entailment_model", (ctrnli,)),
    ("pipeline.predict", pipeline, "predict_pipeline", (ctrnli,)),
    ("joint.forward", joint, "forward_joint", (ctrnli,)),
    ("joint.grads", joint, "joint_grads", ()),
    ("joint.train", joint, "train_joint", (ctrnli,)),
    ("joint.predict", joint, "predict_joint", (ctrnli,)),
    ("ensemble.combine", ensemble, "ensemble_predictions", (ctrnli,)),
    ("ensemble.io", ensemble, "load_predictions", (ctrnli,)),
    ("ensemble.io", ensemble, "save_predictions", (ctrnli,)),
    ("metrics.gold_view", metrics, "build_gold_view", (ctrnli,)),
    ("metrics.build_report", metrics, "build_report", (ctrnli,)),
    ("metrics.io", metrics, "write_report", (ctrnli,)),
    ("checkpoint.save", checkpoint, "save_pipeline_model", (ctrnli,)),
    ("checkpoint.save", checkpoint, "save_joint_model", (ctrnli,)),
    ("checkpoint.load", checkpoint, "load_any_model", (ctrnli,)),
)

METHODS = (
    ("encode.tokenize", encode.HashingTokenizer, "tokenize"),
    ("encode.forward", encode.ToyEncoder, "encode_with_cache"),
    ("encode.backward", encode.ToyEncoder, "backward"),
    ("nn.optimizer_step", nn.SgdwOptimizer, "step"),
)

PREDICT_PHASES = ("predict.pipeline", "predict.joint")

# per-layer metric -> (kind, spans or counter it reads); kinds are listed in
# Tracer.layer_metrics
PER_LAYER = {
    "corpus.load_s": ("self", ("corpus.load",)),
    "corpus.validate_s": ("self", ("corpus.validate",)),
    "corpus.resolve_premise_s": ("self", ("corpus.resolve_premise",)),
    "corpus.gold_globals_s": ("self", ("corpus.gold_globals",)),
    "corpus.premise_sentences": ("count", "premise_sentences"),
    "encode.tokenize_s": ("self", ("encode.tokenize",)),
    "encode.tokenize_calls": ("calls", ("encode.tokenize",)),
    "encode.tokens": ("count", "tokens"),
    "encode.repeat_text_share": ("ratio", ("repeat_texts", "encode.tokenize")),
    "encode.build_pair_s": ("self", ("encode.build_pair",)),
    "encode.build_joint_s": ("self", ("encode.build_joint",)),
    "encode.build_entailment_s": ("self", ("encode.build_entailment",)),
    "encode.joint_truncated_sentences": ("claims", ("joint", "dropped", "sum")),
    "encode.joint_truncated_claim_share": ("claims", ("joint", "truncated", "mean")),
    "encode.forward_s": ("self", ("encode.forward",)),
    "encode.forward_calls": ("calls", ("encode.forward",)),
    "encode.forward_tokens": ("count", "forward_tokens"),
    "encode.backward_s": ("self", ("encode.backward",)),
    "encode.backward_calls": ("calls", ("encode.backward",)),
    "encode.pool_s": ("self", ("encode.pool",)),
    "encode.pool_backward_s": ("self", ("encode.pool_backward",)),
    "encode.pool_backward_calls": ("calls", ("encode.pool_backward",)),
    "nn.mlp_forward_s": ("self", ("nn.mlp_forward",)),
    "nn.mlp_backward_s": ("self", ("nn.mlp_backward",)),
    "nn.optimizer_step_s": ("self", ("nn.optimizer_step",)),
    "nn.optimizer_steps": ("calls", ("nn.optimizer_step",)),
    "pipeline.score_evidence_s": ("self", ("pipeline.score_evidence",)),
    "pipeline.select_s": ("self", ("pipeline.select",)),
    "pipeline.classify_s": ("self", ("pipeline.classify",)),
    "pipeline.grads_s": ("self", ("pipeline.grads",)),
    "pipeline.encodes_per_claim": ("claims", ("pipeline", "encodes", "mean")),
    "pipeline.fallback_rate": ("claims", ("pipeline", "fallback", "mean")),
    "joint.forward_s": ("self", ("joint.forward",)),
    "joint.grads_s": ("self", ("joint.grads",)),
    "joint.encodes_per_claim": ("claims", ("joint", "encodes", "mean")),
    "ensemble.combine_s": ("self", ("ensemble.combine",)),
    "ensemble.io_s": ("self", ("ensemble.io",)),
    "metrics.gold_view_s": ("self", ("metrics.gold_view",)),
    "metrics.build_report_s": ("self", ("metrics.build_report",)),
    "checkpoint.save_s": ("self", ("checkpoint.save",)),
    "checkpoint.load_s": ("self", ("checkpoint.load",)),
    **{f"{layer}.self_s": ("layer", layer) for layer in LAYERS},
}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.endswith("_rate"):
        return "share"
    if name.endswith("encodes_per_claim"):
        return "encodes/claim"
    return "count"


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.claim_ids: list[str] = [""]
        self.phases: list[str] = [""]
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_claim = array("i")
        self.span_phase = array("i")
        self._stack: list[int] = []
        self._claim = 0
        self._phase = 0
        self._dropped = 0  # sentences the last joint packing dropped
        self.counts: dict[str, Counter] = defaultdict(Counter)  # phase -> counter
        self.claim_rows: list[dict] = []
        self._seen: dict[object, set] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        self.phases.append(phase)
        self._phase = len(self.phases) - 1

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[self.phases[self._phase]][key] += n

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.span_claim.append(self._claim)
        self.span_phase.append(self._phase)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, after=None):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, out)
            return out

        return traced

    def _wrap_predict(self, fn, name: str, system: str):
        """Claim-scoped span: tags child spans with the claim id and counts
        the encoder calls the prediction made (``encode_calls`` deltas)."""
        name_id = self._name_id(name)
        tracer = self

        def encoders(model):
            if system == "pipeline":
                found = (model.evidence_encoder, model.entailment_encoder)
            else:
                found = (model.encoder,)
            return list({id(e): e for e in found}.values())

        @functools.wraps(fn)
        def traced(claim, corpus_, model):
            encs = encoders(model)
            before = sum(e.encode_calls for e in encs)
            tracer.claim_ids.append(claim.claim_id)
            tracer._claim = len(tracer.claim_ids) - 1
            tracer._dropped = 0
            idx = tracer._open(name_id)
            try:
                out = fn(claim, corpus_, model)
            finally:
                tracer._close(idx)
                tracer._claim = 0
            tracer.claim_rows.append({
                "system": system,
                "phase": tracer.phases[tracer._phase],
                "premise": len(out.evidence_probs),
                "encodes": sum(e.encode_calls for e in encs) - before,
                "fallback": int(out.fallback_used),
                "dropped": tracer._dropped,
                "truncated": int(tracer._dropped > 0),
            })
            return out

        return traced

    # -- hooks for counters --------------------------------------------------

    def _after_tokenize(self, args, out):
        tokenizer, text = args[0], args[1]
        seen = self._seen.setdefault(tokenizer, set())
        key = corpus.normalize_text(text)
        if key in seen:
            self._count("repeat_texts")
        else:
            seen.add(key)
        self._count("tokens", out.length)

    def _after_forward(self, args, out):
        self._count("forward_tokens", len(args[1]))

    def _after_resolve(self, args, out):
        self._count("premise_sentences", out.n)

    def _after_build_pair(self, args, out):
        self._count("pair_sequences")
        self._count("pair_tokens", out.length)

    def _after_build_joint(self, args, out):
        self._count("joint_sequences")
        self._count("joint_tokens", out.length)
        self._dropped = len(out.dropped_sentences)

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        hooks = {
            "encode.tokenize": self._after_tokenize,
            "encode.forward": self._after_forward,
            "corpus.resolve_premise": self._after_resolve,
            "encode.build_pair": self._after_build_pair,
            "encode.build_joint": self._after_build_joint,
        }
        for name, module, attr, importers in FUNCTIONS:
            original = getattr(module, attr)
            if attr == "predict_pipeline":
                wrapped = self._wrap_predict(original, name, "pipeline")
            elif attr == "predict_joint":
                wrapped = self._wrap_predict(original, name, "joint")
            else:
                wrapped = self._wrap(original, name, hooks.get(name))
            for site in (module, *importers):
                self._saved.append((site, attr, getattr(site, attr)))
                setattr(site, attr, wrapped)
        for name, cls, attr in METHODS:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, hooks.get(name)))

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._saved):
            setattr(site, attr, original)
        self._saved.clear()

    # -- analysis -------------------------------------------------------------

    def _arrays(self):
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        phase = np.frombuffer(self.span_phase, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return names, phase, dur, dur - children

    def layer_metrics(self, phases=None) -> dict[str, float]:
        """Per-layer metrics over the spans of ``phases`` (all when None).

        Kinds: ``self`` sums self time of the named spans; ``calls`` counts
        them; ``count`` reads a counter; ``ratio`` divides a counter by a
        call count; ``claims`` aggregates per-claim rows of one system;
        ``layer`` sums self time of every span of a layer.
        """
        names, phase, _, self_time = self._arrays()
        keep_phase = [phases is None or p in phases for p in self.phases]
        mask = np.asarray(keep_phase, dtype=bool)[phase] if len(phase) else np.zeros(0, bool)
        by_name_self = np.bincount(names[mask], weights=self_time[mask], minlength=len(self.names))
        by_name_calls = np.bincount(names[mask], minlength=len(self.names))
        counts = Counter()
        for ph, c in self.counts.items():
            if phases is None or ph in phases:
                counts.update(c)

        def name_sum(arr, span_names):
            return float(sum(arr[self._name_ids[n]] for n in span_names if n in self._name_ids))

        out = {}
        for metric, (kind, arg) in PER_LAYER.items():
            if kind == "self":
                out[metric] = name_sum(by_name_self, arg)
            elif kind == "calls":
                out[metric] = name_sum(by_name_calls, arg)
            elif kind == "count":
                out[metric] = float(counts[arg])
            elif kind == "ratio":
                calls = name_sum(by_name_calls, (arg[1],))
                out[metric] = counts[arg[0]] / calls if calls else 0.0
            elif kind == "claims":
                system, field, how = arg
                vals = [r[field] for r in self.claim_rows
                        if r["system"] == system and (phases is None or r["phase"] in phases)]
                total = float(sum(vals))
                out[metric] = total if how == "sum" else (total / len(vals) if vals else 0.0)
            else:  # layer
                out[metric] = float(sum(
                    by_name_self[i] for i, n in enumerate(self.names) if n.split(".")[0] == arg
                ))
        return out

    def properties(self) -> dict[str, float]:
        """Workload properties over the predict phases only."""
        counts = Counter()
        for ph in PREDICT_PHASES:
            counts.update(self.counts.get(ph, {}))
        rows = [r for r in self.claim_rows if r["phase"] in PREDICT_PHASES]
        pipe = [r for r in rows if r["system"] == "pipeline"]
        joint_rows = [r for r in rows if r["system"] == "joint"]
        layer = self.layer_metrics(PREDICT_PHASES)

        def mean(num, den):
            return num / den if den else 0.0

        return {
            "repeat_text_share": layer["encode.repeat_text_share"],
            "joint_truncated_claim_share": layer["encode.joint_truncated_claim_share"],
            "mean_premise_sentences": mean(sum(r["premise"] for r in pipe), len(pipe)),
            "mean_tokens_per_pair": mean(counts["pair_tokens"], counts["pair_sequences"]),
            "mean_tokens_per_joint_sequence": mean(counts["joint_tokens"], counts["joint_sequences"]),
            "pipeline_encodes_per_claim": layer["pipeline.encodes_per_claim"],
            "joint_encodes_per_claim": layer["joint.encodes_per_claim"],
            "claims_predicted": float(len(joint_rows)),
        }

    def write(self, path) -> None:
        """Dump every span as column arrays (times in microseconds)."""
        t0 = self.start[0] if len(self.start) else 0.0
        obj = {
            "names": self.names,
            "claims": self.claim_ids,
            "phases": self.phases,
            "span_name": list(self.span_name),
            "start_us": [round((t - t0) * 1e6, 1) for t in self.start],
            "end_us": [round((t - t0) * 1e6, 1) for t in self.end],
            "parent": list(self.parent),
            "claim": list(self.span_claim),
            "phase": list(self.span_phase),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, separators=(",", ":"))
