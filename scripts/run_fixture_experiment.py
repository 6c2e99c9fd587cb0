#!/usr/bin/env python3
"""Train both systems on the synthetic fixture and score their ensemble.

Runs the whole workflow in-process: train the pipeline and the joint model,
predict on the training claims, combine the two prediction lists, and print
one metrics table per system. With the default settings both systems overfit
the fixture, so this is a smoke test of the machinery rather than an
estimate of generalization.
"""

import argparse
import time

from ctrnli import (
    EnsembleConfig,
    Hyperparams,
    PipelineModel,
    build_fixture,
    build_gold_view,
    build_report,
    ensemble_predictions,
    predict_joint,
    predict_pipeline,
    render_table,
    train_entailment_model,
    train_evidence_model,
    train_joint,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--learning-rate", type=float, default=0.2)
    parser.add_argument("--pipeline-steps", type=int, default=300)
    parser.add_argument("--joint-steps", type=int, default=400)
    parser.add_argument("--pooling", default="max", choices=("mean", "first", "max"))
    parser.add_argument("--w-pipeline", type=float, default=0.4)
    parser.add_argument("--w-joint", type=float, default=0.6)
    args = parser.parse_args()

    corpus, claims = build_fixture()
    golds = build_gold_view(claims, corpus)

    def hp(steps: int) -> Hyperparams:
        return Hyperparams(
            learning_rate=args.learning_rate,
            weight_decay=0.0,
            epochs=999,
            batch_size=16,
            seed=args.seed,
            max_steps=steps,
        )

    t0 = time.time()
    evidence = train_evidence_model(claims, corpus, hp(args.pipeline_steps), pooling=args.pooling)
    entailment = train_entailment_model(
        claims, corpus, hp(args.pipeline_steps), pooling=args.pooling
    )
    pipeline = PipelineModel(
        evidence_encoder=evidence.encoder,
        evidence_head=evidence.head,
        entailment_encoder=entailment.encoder,
        entailment_head=entailment.head,
        pooling=args.pooling,
    )
    pipe_preds = [predict_pipeline(c, corpus, pipeline) for c in claims]
    print(f"pipeline trained and scored in {time.time() - t0:.1f}s")
    print(render_table(build_report(pipe_preds, golds, {"system": "pipeline"}).to_json_obj()))
    print()

    t0 = time.time()
    joint = train_joint(claims, corpus, hp(args.joint_steps), pooling=args.pooling)
    joint_preds = [predict_joint(c, corpus, joint.model) for c in claims]
    print(f"joint trained and scored in {time.time() - t0:.1f}s")
    print(render_table(build_report(joint_preds, golds, {"system": "joint"}).to_json_obj()))
    print()

    cfg = EnsembleConfig(w_pipeline=args.w_pipeline, w_joint=args.w_joint)
    combined = ensemble_predictions(pipe_preds, joint_preds, cfg)
    print(f"ensemble weights ({cfg.w_pipeline}, {cfg.w_joint})")
    print(render_table(build_report(combined, golds, {"system": "ensemble"}).to_json_obj()))


if __name__ == "__main__":
    main()
