"""Command-line interface: validate, train, predict, ensemble, evaluate, report.

Every command accepts ``--config FILE`` (JSON) plus flag overrides, flags
winning. Exit codes: 0 success, 1 data or validation failure, 2 usage error,
3 encoder backend unavailable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .checkpoint import load_any_model, save_joint_model, save_pipeline_model
from .config import (
    BACKEND_CHOICES,
    EVIDENCE_SOURCE_CHOICES,
    POOLING_CHOICES,
    SECTIONS,
    SYSTEM_CHOICES,
    TASK_CHOICES,
    RunConfig,
    build_run_config,
    read_config_file,
)
from .corpus import load_claims, load_corpus, read_json, shown_path, validate_dataset, write_text
from .encode import PretrainedEncoder, ToyEncoder
from .ensemble import ensemble_predictions, load_predictions, save_predictions
from .errors import BackendUnavailable, CtrnliError, UsageError
from .joint import predict_joint, train_joint
from .metrics import build_gold_view, build_report, render_table, write_report
from .pipeline import PipelineModel, predict_pipeline, train_entailment_model, train_evidence_model


def _require(value, what: str):
    if value is None:
        raise UsageError(f"{what} is required (flag or config file)")
    return value


def _load_data(cfg: RunConfig, need_labels: bool = False):
    corpus_path = _require(cfg.corpus, "--corpus")
    claims_path = _require(cfg.claims, "--claims")
    corpus = load_corpus(corpus_path)
    claims = load_claims(claims_path, split=cfg.split, corpus=corpus, lenient=cfg.lenient)
    if need_labels:
        claims = [c for c in claims if c.gold_label is not None]
    return corpus, claims


def _run_config(args) -> tuple[RunConfig, dict]:
    """The run config (flags over the config file over defaults) and the
    config file's own object, read once.

    A flag sets the config field its argparse dest names; None means the
    flag was not given.
    """
    flags = vars(args)

    def given(cls) -> dict:
        return {
            f.name: flags[f.name] for f in dataclasses.fields(cls) if flags.get(f.name) is not None
        }

    overrides = {**given(RunConfig), **{key: given(cls) for key, cls in SECTIONS.items()}}
    file_obj = read_config_file(flags.get("config"))
    return build_run_config(file_obj, overrides), file_obj


def _encoder_factory(cfg: RunConfig):
    """A seeded toy encoder per call, or one frozen pretrained model for all."""
    enc = cfg.encoder
    if enc.backend == "toy":
        return lambda seed: ToyEncoder(
            vocab_size=enc.vocab_size, dim=enc.dim, n_layers=enc.n_layers, seed=seed
        )
    ready = PretrainedEncoder(
        enc.model_name, device=enc.device, mixed_precision=enc.mixed_precision
    )
    return lambda seed: ready


# --- commands -----------------------------------------------------------------


def cmd_validate(args) -> int:
    cfg, _ = _run_config(args)
    corpus_path = _require(cfg.corpus, "--corpus")
    claims_path = _require(cfg.claims, "--claims")
    corpus = load_corpus(corpus_path)
    # claims load unlinked so reference problems are reported, not raised
    claims = load_claims(claims_path, split=cfg.split)
    report = validate_dataset(corpus, claims)
    print(report.render())
    return 0 if report.ok else 1


def cmd_train(args) -> int:
    cfg, file_obj = _run_config(args)
    if args.seed is None and "seed" not in file_obj.get("hyperparams", {}):
        raise UsageError("--seed is required for training")
    corpus, claims = _load_data(cfg, need_labels=True)
    if not claims:
        raise UsageError("no labeled claims to train on")
    out_dir = Path(args.out)
    hp = cfg.hyperparams
    # the settings every trainer and the model it makes share
    shared = dict(max_len=cfg.encoder.resolved_max_len(cfg.system), pooling=cfg.encoder.pooling,
                  inject_arm_prefix=cfg.inject_arm_prefix)
    factory = _encoder_factory(cfg)

    if cfg.system == "pipeline":
        evidence = train_evidence_model(claims, corpus, hp, encoder_factory=factory, **shared)
        entailment = train_entailment_model(
            claims, corpus, hp,
            evidence_model=evidence if cfg.evidence_source == "predicted" else None,
            encoder_factory=factory, threshold=cfg.threshold, **shared,
        )
        model = PipelineModel(
            evidence_encoder=evidence.encoder,
            evidence_head=evidence.head,
            entailment_encoder=entailment.encoder,
            entailment_head=entailment.head,
            threshold=cfg.threshold,
            **shared,
        )
        save_pipeline_model(model, out_dir)
        curves = {"evidence": evidence.loss_curve, "entailment": entailment.loss_curve}
    else:
        result = train_joint(
            claims, corpus, hp, encoder_factory=factory, threshold=cfg.threshold, **shared
        )
        save_joint_model(result.model, out_dir)
        curves = result.loss_curve
    write_text(out_dir / "loss_curve.json", json.dumps(curves, sort_keys=True) + "\n")
    print(f"checkpoint written to {out_dir}")
    return 0


def cmd_predict(args) -> int:
    cfg, file_obj = _run_config(args)
    ckpt = Path(args.checkpoint)
    if not os.path.exists(ckpt):  # False, not OSError, for a name too long to exist
        raise UsageError(f"checkpoint {shown_path(ckpt)} does not exist")
    corpus, claims = _load_data(cfg)
    system, model = load_any_model(ckpt)
    # the checkpoint's threshold stands unless a flag or the config file sets one
    if args.threshold is not None or "threshold" in file_obj:
        model.threshold = cfg.threshold
    predict = predict_pipeline if system == "pipeline" else predict_joint
    preds = [predict(claim, corpus, model) for claim in claims]
    save_predictions(preds, args.out)
    print(f"{len(preds)} predictions written to {args.out}")
    return 0


def cmd_ensemble(args) -> int:
    cfg, _ = _run_config(args)
    preds_a = load_predictions(args.predictions_a)
    preds_b = load_predictions(args.predictions_b)
    combined = ensemble_predictions(preds_a, preds_b, cfg.ensemble, cfg.threshold)
    save_predictions(combined, args.out)
    print(f"{len(combined)} combined predictions written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg, _ = _run_config(args)
    preds = load_predictions(args.predictions)
    corpus, claims = _load_data(cfg, need_labels=True)
    golds = build_gold_view(claims, corpus)
    metadata = {
        "predictions": str(args.predictions),
        "claims": str(cfg.claims),
        "n_claims": len(preds),
    }
    if cfg.split:
        metadata["split"] = cfg.split
    report = build_report(preds, golds, metadata)
    if args.out:
        write_report(report, args.out)
        print(f"report written to {args.out}")
    print(render_table(report.to_json_obj()))
    return 0


def cmd_report(args) -> int:
    print(render_table(read_json(args.report)))
    return 0


# --- parser ---------------------------------------------------------------------


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    p.add_argument("--corpus", help="trial corpus JSON file or directory")
    p.add_argument("--claims", help="claim file or directory of {split}.json")
    p.add_argument("--split", help="split name when --claims is a directory")
    p.add_argument("--lenient", action="store_true", default=None,
                   help="skip claims referencing missing trials instead of failing")


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--system", choices=SYSTEM_CHOICES)
    p.add_argument("--encoder-backend", dest="backend", choices=BACKEND_CHOICES)
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--n-layers", type=int)
    p.add_argument("--max-len", type=int)
    p.add_argument("--pooling", choices=POOLING_CHOICES)
    p.add_argument("--model-name", help="pretrained model identifier")
    p.add_argument("--device", help="pretrained backend device string")
    mp = p.add_mutually_exclusive_group()
    mp.add_argument("--mixed-precision", dest="mixed_precision", action="store_true",
                    default=None)
    mp.add_argument("--no-mixed-precision", dest="mixed_precision", action="store_false")
    p.add_argument("--threshold", type=float, help="evidence gating threshold")
    p.add_argument("--inject-arm-prefix", action="store_true", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctrnli",
        description="Evidence selection and entailment over clinical trial reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a corpus and claim file for violations")
    _add_data_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("train", help="train a system and write a checkpoint")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--out", required=True, help="checkpoint directory to create")
    p.add_argument("--seed", type=int, help="training seed (required)")
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--warmup-rate", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--w-evidence", type=float, help="joint loss weight for the evidence task")
    p.add_argument("--w-entailment", type=float, help="joint loss weight for the verdict task")
    p.add_argument("--evidence-source", choices=EVIDENCE_SOURCE_CHOICES,
                   help="premise for entailment training: gold or predicted evidence")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="run a checkpoint over claims")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="prediction JSON file to write")
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ensemble", help="combine two prediction files")
    p.add_argument("predictions_a")
    p.add_argument("predictions_b")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--w-pipeline", type=float)
    p.add_argument("--w-joint", type=float)
    p.add_argument("--max-evidence", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--tasks", choices=TASK_CHOICES)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("evaluate", help="score predictions against gold claims")
    _add_data_flags(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", help="report JSON file to write")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="render a report file as a table")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_report)

    return parser


# path arguments that RunConfig does not check: Path("") is the working directory
_PATH_ARGS = ("config", "out", "checkpoint", "predictions", "predictions_a", "predictions_b",
              "report")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        for name in _PATH_ARGS:
            if getattr(args, name, None) == "":
                raise UsageError(f"{name} must be a path, got an empty string")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"not found: {shown_path(exc.filename)}", file=sys.stderr)
        return 2
    except BackendUnavailable as exc:
        print(f"backend unavailable: {exc}", file=sys.stderr)
        return 3
    except CtrnliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
