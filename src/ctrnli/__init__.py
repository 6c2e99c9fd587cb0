"""Evidence selection and entailment classification over clinical trial reports.

Two systems share one prediction shape: a pipeline that scores each premise
sentence against the claim and then classifies the claim against its selected
evidence, and a joint model that encodes the claim with the whole premise
once and serves both tasks from shared representations. Their output
probabilities can be combined by weighted averaging.
"""

from .config import EncoderConfig, EnsembleConfig, RunConfig
from .corpus import (
    LABELS,
    SECTION_NAMES,
    ClaimInstance,
    ClinicalTrialRecord,
    PremiseDoc,
    ValidationReport,
    gold_evidence_globals,
    gold_label_index,
    load_claims,
    load_corpus,
    parse_claim,
    parse_record,
    resolve_premise,
    validate_dataset,
)
from .encode import HashingTokenizer, PretrainedEncoder, ToyEncoder
from .ensemble import (
    cap_prediction,
    combine,
    ensemble_predictions,
    load_predictions,
    save_predictions,
)
from .checkpoint import load_any_model, save_joint_model, save_pipeline_model
from .fixture import build_fixture, write_fixture
from .joint import JointModel, forward_joint, predict_joint, train_joint
from .metrics import (
    PRF,
    MetricsReport,
    build_gold_view,
    build_report,
    render_table,
    write_report,
)
from .nn import ClassifierHead, Hyperparams
from .pipeline import (
    PipelineModel,
    SystemPrediction,
    classify_entailment,
    predict_pipeline,
    score_evidence,
    select_evidence,
    train_entailment_model,
    train_evidence_model,
    verdict_from_probs,
)

__version__ = "0.1.0"

__all__ = [
    "ClaimInstance",
    "ClassifierHead",
    "ClinicalTrialRecord",
    "EncoderConfig",
    "EnsembleConfig",
    "HashingTokenizer",
    "Hyperparams",
    "JointModel",
    "LABELS",
    "MetricsReport",
    "PRF",
    "PipelineModel",
    "PremiseDoc",
    "PretrainedEncoder",
    "RunConfig",
    "SECTION_NAMES",
    "SystemPrediction",
    "ToyEncoder",
    "ValidationReport",
    "build_fixture",
    "build_gold_view",
    "build_report",
    "cap_prediction",
    "classify_entailment",
    "combine",
    "ensemble_predictions",
    "forward_joint",
    "gold_evidence_globals",
    "gold_label_index",
    "load_any_model",
    "load_claims",
    "load_corpus",
    "load_predictions",
    "parse_claim",
    "parse_record",
    "predict_joint",
    "predict_pipeline",
    "render_table",
    "resolve_premise",
    "save_joint_model",
    "save_pipeline_model",
    "save_predictions",
    "score_evidence",
    "select_evidence",
    "train_entailment_model",
    "train_evidence_model",
    "train_joint",
    "validate_dataset",
    "verdict_from_probs",
    "write_fixture",
    "write_report",
]
