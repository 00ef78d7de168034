"""Patient-identity plug-in: unique-patient batches and patient-diverse init.

Batch-level patient uniqueness is the deployable constraint: a query batch
contains at most one image per patient, so no single round concentrates its
annotation budget on one patient's imagery. The same idea seeds the very
first labeled set by drawing one image from each of n distinct patients.

Uniqueness is enforced per batch, not cumulatively across rounds, and
batches are always filled to their requested size: when distinct patients
run out, the remaining slots are taken by the best otherwise-skipped
candidates and counted in ``relaxed_count``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import acquisition, learner
from .data import SampleSet

DECAL_PREFIX = "decal_"
INIT_MODES = ("random", "decal")
STRATEGIES = acquisition.BASE_STRATEGIES + tuple(
    DECAL_PREFIX + name for name in acquisition.BASE_STRATEGIES
)


@dataclass(frozen=True)
class QueryBatch:
    """Ordered selection for one round.

    ``relaxed_count`` is the number of slots filled by the fallback rule;
    when it is zero, all members come from pairwise-distinct patients.
    """

    members: tuple[int, ...]
    relaxed_count: int = 0


def constrain_unique_patients(ranking: Sequence[int], patient_of: Mapping[int, str], k: int) -> QueryBatch:
    """Greedy walk of a ranking keeping only the first sample per patient.

    Accepts samples in ranking order while their patient is new to the
    batch, until k are accepted or the ranking is exhausted; any shortfall
    is filled with the best-ranked skipped samples. Whenever the ranking
    holds at least k distinct patients this equals keeping each patient's
    best-ranked sample and taking the top k of those.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(ranking):
        raise ValueError(f"k ({k}) exceeds ranking length ({len(ranking)})")
    if len(set(ranking)) != len(ranking):
        raise ValueError("ranking contains duplicate sample ids")
    code_of: dict[str, int] = {}
    codes = np.array([code_of.setdefault(patient_of[s], len(code_of)) for s in ranking], dtype=np.int64)
    kept, relaxed = _unique_patient_prefix(codes, k)
    return QueryBatch(members=tuple(int(ranking[i]) for i in kept), relaxed_count=relaxed)


def _unique_patient_prefix(ranked_codes: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """Positions of the first k ranked entries whose patient code is new.

    Each patient keeps only its best-ranked entry; when fewer than k
    patients appear, the best-ranked skipped entries fill the remaining
    slots, and their number is returned as the relaxed count.
    """
    _, first = np.unique(ranked_codes, return_index=True)
    kept = np.sort(first)[:k]
    if len(kept) == k:
        return kept, 0
    skipped = np.ones(len(ranked_codes), dtype=bool)
    skipped[kept] = False
    fill = np.flatnonzero(skipped)[: k - len(kept)]
    return np.concatenate([kept, fill]), len(fill)


def _batch(pool: SampleSet, rows: np.ndarray, relaxed: int) -> QueryBatch:
    return QueryBatch(members=tuple(pool.ids[rows].tolist()), relaxed_count=int(relaxed))


def decal_initialize(pool: SampleSet, n: int, seed: int) -> QueryBatch:
    """Patient-diverse first labeled set: one image from each of n patients.

    Draws min(n, #patients) patients uniformly without replacement and one
    of each patient's images uniformly; if n exceeds the patient count the
    remainder is drawn uniformly from the unselected images and counted as
    relaxed. Deterministic in seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > len(pool):
        raise ValueError(f"n ({n}) exceeds pool size ({len(pool)})")

    codes = pool.patient_codes
    by_patient = np.argsort(codes, kind="stable")  # each patient's rows, ascending
    starts = np.concatenate(([0], np.cumsum(np.bincount(codes))))
    n_patients = len(starts) - 1

    rng = np.random.default_rng(seed)
    drawn = min(n, n_patients)
    rows: list[int] = []
    for code in rng.choice(n_patients, size=drawn, replace=False):
        first, count = int(starts[code]), int(starts[code + 1] - starts[code])
        rows.append(int(by_patient[first + int(rng.integers(count))]))

    relaxed = n - drawn
    if relaxed:
        free = np.ones(len(pool), dtype=bool)
        free[rows] = False
        rest = np.flatnonzero(free)
        rows.extend(rest[rng.choice(len(rest), size=relaxed, replace=False)].tolist())
    return _batch(pool, np.array(rows, dtype=np.int64), relaxed)


def select_query_batch(
    strategy: str,
    model: learner.Model | None,
    pool: SampleSet,
    candidate_rows,
    k: int,
    seed: int,
) -> QueryBatch:
    """Produce one round's batch from the given unlabeled pool rows.

    One pipeline serves every strategy: rank the candidate rows (descending
    score, a random permutation, or BADGE seeding), apply the unique-patient
    step for ``decal_*`` strategies, then map rows to sample ids. Rankings
    are deduplicated by patient afterwards; decal_badge enforces the
    constraint inside the seeding loop itself. The random strategies ignore
    ``model``; "random" over every pool row is the random initial batch.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    constrained = strategy.startswith(DECAL_PREFIX)
    base = strategy[len(DECAL_PREFIX):] if constrained else strategy

    # the trial loop (experiment._Trial.label_batch) passes np.flatnonzero output, already sorted,
    # which a stable sort passes over in one run
    rows = np.sort(np.asarray(candidate_rows, dtype=np.int64), kind="stable")
    if (rows[1:] == rows[:-1]).any():
        raise ValueError("duplicate candidate rows")
    if len(rows) and (rows[0] < 0 or rows[-1] >= len(pool)):
        raise ValueError(f"candidate rows must lie in [0, {len(pool)})")
    if k > len(rows):
        raise ValueError(f"k ({k}) exceeds number of candidates ({len(rows)})")
    codes = pool.patient_codes[rows] if constrained else None

    if base == "badge":
        grads = learner.gradient_embedding(model, pool.features[rows])
        picked, relaxed = acquisition.badge_seeding(grads, k, seed, groups=codes)
        return _batch(pool, rows[picked], relaxed)

    if base == "random":
        order = np.random.default_rng(seed).permutation(len(rows))
    else:
        probs = learner.predict_proba(model, pool.features[rows])
        order = acquisition.rank_rows(acquisition.score_rows(base, probs))
    if not constrained:
        return _batch(pool, rows[order[:k]], 0)
    kept, relaxed = _unique_patient_prefix(codes[order], k)
    return _batch(pool, rows[order[kept]], relaxed)
