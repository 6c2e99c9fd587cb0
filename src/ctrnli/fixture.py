"""A small synthetic dataset the toy systems can actually learn.

Eight invented trials and twenty claims, balanced between Entailment and
Contradiction. Claims come in twins: the same claim text paired with two
different trials, entailed by one and contradicted by the other, so a model
that ignores the evidence and memorizes claim text cannot separate the
labels. Evidence sentences share topic words with their claim; distractor
sentences share none. Everything is static, so two builds are identical.
"""

from __future__ import annotations

from pathlib import Path

from .corpus import ClaimInstance, ClinicalTrialRecord, dump_claims, dump_corpus, parse_claim, parse_record

TRIAL_IDS = tuple(f"trial-{i:02d}" for i in range(1, 9))

_DRUGS = dict(
    zip(
        TRIAL_IDS,
        (
            "alfatrex", "betamol", "gamvira", "deltazon",
            "epsirol", "zetaprim", "etaquine", "thetacil",
        ),
    )
)

_DISTRACTORS = {
    "eligibility": [
        "adults aged eighteen to seventy five were screened",
        "informed consent was obtained from every participant",
        "sites in four countries recruited the cohort",
    ],
    "intervention": [
        "dosing continued for six consecutive weeks",
        "the control arm received matched placebo tablets",
        "medication adherence was checked at every visit",
    ],
    "results": [
        "baseline characteristics were balanced between the arms",
        "follow up continued for twelve months",
        "the analysis followed a prespecified plan",
    ],
    "adverse_events": [
        "mild headache occurred occasionally in both arms",
        "laboratory values remained stable throughout",
        "most complaints resolved without further care",
    ],
}

# (claim text, section, entailing sentence, contradicting sentence,
#  challenge tag, trial with the entailing variant, trial with the other)
_SINGLE_TOPICS = (
    (
        "the overall response rate improved during treatment",
        "results",
        "the overall response rate improved markedly with {drug}",
        "the overall response rate worsened steadily under {drug}",
        None,
        "trial-01",
        "trial-02",
    ),
    (
        "median survival was longer in the treated group",
        "results",
        "median survival extended four months beyond the control arm",
        "median survival shortened relative to the control arm",
        None,
        "trial-03",
        "trial-04",
    ),
    (
        "severe nausea was a frequent adverse event",
        "adverse_events",
        "severe nausea occurred in a third of participants",
        "no severe nausea was reported by any participant",
        "negation",
        "trial-05",
        "trial-06",
    ),
    (
        "the study drug caused serious cardiac events",
        "adverse_events",
        "several serious cardiac events were attributed to the study drug",
        "cardiac monitoring found no treatment related events",
        "negation",
        "trial-07",
        "trial-08",
    ),
    (
        "patients with stage three disease could enroll",
        "eligibility",
        "stage three disease was required for enrollment",
        "stage three disease was grounds for exclusion",
        None,
        "trial-01",
        "trial-02",
    ),
    (
        "participants received the study drug daily by mouth",
        "intervention",
        "participants took the study drug orally every day",
        "the study drug was infused weekly rather than daily",
        "paraphrase",
        "trial-03",
        "trial-04",
    ),
    (
        "more than half of the patients achieved a response",
        "results",
        "fifty eight percent of patients achieved a partial response",
        "only twelve percent of patients achieved a partial response",
        "numerical",
        "trial-05",
        "trial-06",
    ),
    (
        "the trial met its primary endpoint",
        "results",
        "the primary endpoint was met with statistical significance",
        "the primary endpoint was not met at the final analysis",
        None,
        "trial-07",
        "trial-08",
    ),
)

# (claim text, section, per-trial sentences, label, challenge, trials)
# Comparison premises draw on sections no single claim uses, so a sentence is
# never evidence for one claim and a distractor for another.
_COMPARISON_CLAIMS = (
    (
        "both trials administered the study drug once daily by mouth",
        "intervention",
        {
            "trial-05": "participants received epsirol once daily by mouth",
            "trial-07": "participants received etaquine once daily by mouth",
        },
        "Entailment",
        "comparison",
        ("trial-05", "trial-07"),
    ),
    (
        "both trials administered the study drug once daily by mouth",
        "intervention",
        {
            "trial-06": "participants received zetaprim once daily by mouth",
            "trial-08": "the study drug was given as a weekly infusion",
        },
        "Contradiction",
        "comparison",
        ("trial-06", "trial-08"),
    ),
    (
        "neither trial recorded a treatment related death",
        "adverse_events",
        {
            "trial-01": "no treatment related deaths occurred",
            "trial-03": "no deaths were attributed to the study treatment",
        },
        "Entailment",
        "comparison",
        ("trial-01", "trial-03"),
    ),
    (
        "neither trial recorded a treatment related death",
        "adverse_events",
        {
            "trial-02": "no treatment related deaths occurred",
            "trial-04": "two deaths were attributed to the study treatment",
        },
        "Contradiction",
        "comparison",
        ("trial-02", "trial-04"),
    ),
)


def _insert(sections: dict[str, list[str]], trial_id: str, section: str, text: str) -> None:
    # odd-numbered trials put evidence first, even-numbered last, so gold
    # indices vary across the fixture
    if int(trial_id.split("-")[1]) % 2:
        sections[section].insert(0, text)
    else:
        sections[section].append(text)


def build_fixture() -> tuple[dict[str, ClinicalTrialRecord], list[ClaimInstance]]:
    """Construct the corpus and claim list in memory."""
    raw_sections = {
        tid: {name: list(lines) for name, lines in _DISTRACTORS.items()} for tid in TRIAL_IDS
    }

    claim_rows: list[dict] = []
    for text, section, pos_fmt, neg_fmt, challenge, pos_trial, neg_trial in _SINGLE_TOPICS:
        for trial, fmt, label in (
            (pos_trial, pos_fmt, "Entailment"),
            (neg_trial, neg_fmt, "Contradiction"),
        ):
            sentence = fmt.format(drug=_DRUGS[trial])
            _insert(raw_sections[trial], trial, section, sentence)
            claim_rows.append(
                {
                    "text": text,
                    "section_id": section,
                    "primary_ctr": trial,
                    "label": label,
                    "challenge": challenge,
                    "evidence_texts": {trial: [sentence]},
                }
            )
    for text, section, per_trial, label, challenge, (primary, secondary) in _COMPARISON_CLAIMS:
        for trial, sentence in per_trial.items():
            _insert(raw_sections[trial], trial, section, sentence)
        claim_rows.append(
            {
                "text": text,
                "section_id": section,
                "primary_ctr": primary,
                "secondary_ctr": secondary,
                "label": label,
                "challenge": challenge,
                "evidence_texts": {t: [s] for t, s in per_trial.items()},
            }
        )

    corpus = {
        tid: parse_record({"ctr_id": tid, "sections": raw_sections[tid]}) for tid in TRIAL_IDS
    }

    claims: list[ClaimInstance] = []
    for i, row in enumerate(claim_rows, start=1):
        evidence = {
            trial: [raw_sections[trial][row["section_id"]].index(s) for s in texts]
            for trial, texts in row["evidence_texts"].items()
        }
        obj = {
            "claim_id": f"claim-{i:02d}",
            "text": row["text"],
            "section_id": row["section_id"],
            "primary_ctr": row["primary_ctr"],
            "label": row["label"],
            "evidence": evidence,
        }
        if row.get("secondary_ctr"):
            obj["secondary_ctr"] = row["secondary_ctr"]
        if row.get("challenge"):
            obj["challenge"] = row["challenge"]
        claims.append(parse_claim(obj))
    return corpus, claims


def write_fixture(directory: str | Path) -> tuple[Path, Path]:
    """Write corpus.json and claims.json under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    corpus, claims = build_fixture()
    corpus_path = directory / "corpus.json"
    claims_path = directory / "claims.json"
    dump_corpus(corpus, corpus_path)
    dump_claims(claims, claims_path)
    return corpus_path, claims_path
