"""Seeded inputs for the benchmark workloads.

Every input comes from ``udgsolver.synth`` and the ``--seed`` argument. A
digest of the generator's output for one fixed seed guards against drift: a
new template family or a changed draw would silently reshape every workload,
so the benchmark refuses to run until the digest below is updated on purpose.
"""

from __future__ import annotations

import hashlib
import json

from udgsolver import corpus, synth
from udgsolver.corpus import Problem

#: sha256 over the JSONL records of gen_synthetic_corpus(DIGEST_SEED, DIGEST_SIZE).
DIGEST_SEED = 0
DIGEST_SIZE = 200
SYNTH_DIGEST = "01e8d237672d722922d1534f9ba415ee121c8f03b370aa7a856971736ea6de9f"

TRAIN_SIZE = 500


class InputDrift(RuntimeError):
    """The synthetic generator no longer produces the recorded corpus."""


def records_digest(problems: list[Problem]) -> str:
    h = hashlib.sha256()
    for p in problems:
        h.update(json.dumps(corpus.problem_to_record(p), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def check_synth_drift() -> None:
    digest = records_digest(synth.gen_synthetic_corpus(DIGEST_SEED, DIGEST_SIZE))
    if digest != SYNTH_DIGEST:
        raise InputDrift(
            f"udgsolver.synth output changed: gen_synthetic_corpus({DIGEST_SEED}, "
            f"{DIGEST_SIZE}) hashes to {digest}, the benchmark expects {SYNTH_DIGEST}. "
            "The workloads would change shape; update the benchmark on purpose."
        )


def cv_corpus(seed: int, size: int) -> list[dict]:
    """The eval corpus as JSONL records, ids assigned in family order.

    make_folds shuffles ids by position, so with family-ordered ids every
    seed puts the same family mix (and hence the same number of 3-quantity
    problems) into each fold and dev slice; the seed changes the values and
    wording. Without this, eval time swings with how many slow problems land
    in the dev slices, which is noise for every code change.
    """
    problems = sorted(synth.gen_synthetic_corpus(seed, size), key=lambda p: synth.family_of(p.id))
    records = []
    for i, p in enumerate(problems):
        record = corpus.problem_to_record(p)
        record["id"] = f"cv{i:04d}-{synth.family_of(p.id)}"
        records.append(record)
    return records


def train_and_heldout(seed: int, heldout_size: int) -> tuple[list[Problem], list[Problem]]:
    """Training problems from one seed and held-out problems from another.

    Held-out problems whose text also occurs in the training set are dropped.
    """
    train = synth.gen_synthetic_corpus(2 * seed, TRAIN_SIZE)
    seen = {p.text for p in train}
    heldout = [p for p in synth.gen_synthetic_corpus(2 * seed + 1, max(heldout_size, 50))
               if p.text not in seen]
    return train, heldout[:heldout_size]
