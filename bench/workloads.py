"""Seeded inputs for the benchmark workloads.

Each generator returns an in-memory corpus and claim list built through the
package's own parsers, so the objects match what ``load_corpus`` and
``load_claims`` produce from the written files. Every claim carries a gold
label and gold evidence, so ``build_report`` can score any prediction list.
"""

from __future__ import annotations

import numpy as np

from ctrnli import LABELS, SECTION_NAMES, parse_claim, parse_record

# Pseudo-words spelled from consonant-vowel syllables: word i is the base-40
# spelling of i + 40**2, so every word has three syllables and all 20k are
# distinct. The tokenizer hashes them into its 1024-id vocabulary.
_SYLLABLES = [c + v for c in "bdfgklmnprst" for v in "aeiou"][:40]
VOCAB_SIZE = 20_000


def _word(i: int) -> str:
    i += len(_SYLLABLES) ** 2
    parts = []
    while i:
        i, r = divmod(i, len(_SYLLABLES))
        parts.append(_SYLLABLES[r])
    return "".join(reversed(parts))


VOCAB = tuple(_word(i) for i in range(VOCAB_SIZE))


def _sentence(rng: np.random.Generator, lo: int = 8, hi: int = 20) -> str:
    n = int(rng.integers(lo, hi + 1))
    return " ".join(VOCAB[i] for i in rng.integers(0, VOCAB_SIZE, size=n))


def _records(sections_by_trial: dict[str, dict[str, list[str]]]):
    return {
        tid: parse_record({"ctr_id": tid, "sections": sections})
        for tid, sections in sections_by_trial.items()
    }


def _claim(i, text, section, trials, rng, n_sentences):
    evidence = {}
    for tid in trials:
        k = int(rng.integers(1, 4))
        evidence[tid] = sorted(int(j) for j in rng.choice(n_sentences, size=k, replace=False))
    obj = {
        "claim_id": f"claim-{i:05d}",
        "text": text,
        "section_id": section,
        "primary_ctr": trials[0],
        "label": LABELS[int(rng.integers(0, len(LABELS)))],
        "evidence": evidence,
    }
    if len(trials) > 1:
        obj["secondary_ctr"] = trials[1]
    return parse_claim(obj)


def scaled(seed: int, n_trials: int = 200, sentences_per_section: int = 40,
           n_claims: int = 500, comparison_rate: float = 1 / 3):
    """Long premises, almost no repeated text, a third comparison claims.

    Sentences are 8-20 words drawn from 20k words, so texts practically never
    repeat; claim texts are unique by construction. Comparison premises hold
    80 sentences of about 14 tokens, more than the joint model's 1024-token
    budget, so the joint packer truncates them.
    """
    rng = np.random.default_rng([0x5CA1ED, seed])
    sections = {
        f"synth-{t:04d}": {
            name: [_sentence(rng) for _ in range(sentences_per_section)]
            for name in SECTION_NAMES
        }
        for t in range(n_trials)
    }
    trial_ids = sorted(sections)
    claims, seen = [], set()
    for i in range(n_claims):
        text = _sentence(rng)
        while text in seen:
            text = _sentence(rng)
        seen.add(text)
        section = SECTION_NAMES[int(rng.integers(0, len(SECTION_NAMES)))]
        k = 2 if rng.random() < comparison_rate else 1
        trials = [trial_ids[j] for j in rng.choice(n_trials, size=k, replace=False)]
        claims.append(_claim(i, text, section, trials, rng, sentences_per_section))
    return _records(sections), claims


def shared_trials(seed: int, n_trials: int = 16, sentences_per_section: int = 10,
                  sentence_pool: int = 30, claim_texts_per_section: int = 3,
                  n_claims: int = 1000):
    """Few short trials and heavy reuse of sentence and claim texts.

    Each trial section samples its sentences from a small per-section pool,
    and every claim text comes from a pool of three per section, so sentence
    texts, claim texts and [sentence, claim] pairs all recur many times.
    Every claim names one trial, and premises of ten sentences never reach
    the joint model's length budget.
    """
    rng = np.random.default_rng([0x5A7ED, seed])
    pools = {name: [_sentence(rng) for _ in range(sentence_pool)] for name in SECTION_NAMES}
    claim_pool = {
        name: [_sentence(rng, 6, 12) for _ in range(claim_texts_per_section)]
        for name in SECTION_NAMES
    }
    sections = {
        f"shared-{t:02d}": {
            name: [pools[name][j] for j in
                   rng.choice(sentence_pool, size=sentences_per_section, replace=False)]
            for name in SECTION_NAMES
        }
        for t in range(n_trials)
    }
    trial_ids = sorted(sections)
    claims = []
    for i in range(n_claims):
        section = SECTION_NAMES[int(rng.integers(0, len(SECTION_NAMES)))]
        text = claim_pool[section][int(rng.integers(0, claim_texts_per_section))]
        trial = trial_ids[int(rng.integers(0, n_trials))]
        claims.append(_claim(i, text, section, [trial], rng, sentences_per_section))
    return _records(sections), claims


GENERATORS = {"scaled-predict": scaled, "shared-trials-predict": shared_trials}
