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

    ``members`` are entries of what the caller passed in: pool rows from
    :func:`select_query_batch` and :func:`decal_initialize`, sample ids from
    the id-keyed :func:`constrain_unique_patients`. ``relaxed_count`` counts
    the slots filled by the unique-patient fallback. Only a unique-patient
    batch (``decal_*`` or decal init) with none relaxed holds distinct
    patients; an unconstrained batch has ``relaxed_count`` 0 and may repeat
    a patient.
    """

    members: tuple[int, ...]
    relaxed_count: int = 0


def constrain_unique_patients(ranking: Sequence[int], patient_of: Mapping[int, str], k: int) -> QueryBatch:
    """Greedy walk of a ranking keeping only the first sample per patient.

    Accepts samples in ranking order while their patient is new to the
    batch, until k are accepted or the ranking is exhausted; any shortfall
    is filled with the best-ranked skipped samples. Whenever the ranking
    holds at least k distinct patients this equals keeping each patient's
    best-ranked sample and taking the top k of those. The walk is
    :func:`_unique_patient_prefix` over the ranking's patients, coded in
    order of first appearance.
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
    slots, and their number is returned as the relaxed count. Each code's
    first position comes from ``np.minimum.at`` into an array indexed by
    code, so the codes must be non-negative and no sort is made.
    """
    n = len(ranked_codes)
    first = np.full(ranked_codes.max(initial=-1) + 1, n)
    np.minimum.at(first, ranked_codes, np.arange(n))
    is_first = np.zeros(n + 1, dtype=bool)
    is_first[first] = True  # codes that do not occur mark the spare slot n
    kept = np.flatnonzero(is_first[:n])[:k]
    if len(kept) == k:
        return kept, 0
    fill = np.flatnonzero(~is_first[:n])[: k - len(kept)]
    return np.concatenate([kept, fill]), len(fill)


def decal_initialize(pool: SampleSet, n: int, seed: int) -> QueryBatch:
    """Patient-diverse first labeled set: one image from each of n patients.

    Draws min(n, #patients) patients uniformly without replacement and one
    of each patient's images uniformly; if n exceeds the patient count the
    remainder is drawn uniformly from the unselected images and counted as
    relaxed. Deterministic in seed. It makes three array draws and no loop over
    patients: the patients, one image of each, and the relaxed remainder.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > len(pool):
        raise ValueError(f"n ({n}) exceeds pool size ({len(pool)})")

    by_patient = np.argsort(pool.patient_codes, kind="stable")  # each patient's rows, ascending
    counts = np.bincount(pool.patient_codes)

    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(counts), size=min(n, len(counts)), replace=False)
    # integers over an array of bounds draws what one scalar call per bound would, in order
    rows = by_patient[(np.cumsum(counts) - counts)[chosen] + rng.integers(counts[chosen])]
    relaxed = n - len(rows)
    if relaxed:
        unchosen = np.ones(len(pool), dtype=bool)
        unchosen[rows] = False
        rest = np.flatnonzero(unchosen)
        rows = np.concatenate([rows, rest[rng.choice(len(rest), size=relaxed, replace=False)]])
    return QueryBatch(members=tuple(rows.tolist()), relaxed_count=relaxed)


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
    score, a random permutation, or BADGE seeding) and apply the unique-patient
    step for ``decal_*`` strategies; the batch's members are pool rows. Rankings
    are deduplicated by patient afterwards; decal_badge enforces the
    constraint inside the seeding loop itself. The random strategies ignore
    ``model``; "random" over every pool row is the random initial batch.

    Scores are ranked only as deep as the batch needs: k rows, 4 times deeper
    while a ``decal_*`` head holds fewer than k patients, up to the whole
    ranking for the relaxed fill. So every batch is the full ranking's.
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
        return QueryBatch(tuple(rows[picked].tolist()), relaxed)

    if base == "random":
        order = np.random.default_rng(seed).permutation(len(rows))
    else:
        scores = acquisition.score_rows(base, learner.predict_proba(model, pool.features[rows]))
        order = acquisition.rank_rows(scores, k)
    if not constrained:
        return QueryBatch(tuple(rows[order[:k]].tolist()))
    kept, relaxed = _unique_patient_prefix(codes[order], k)
    depth = k
    while relaxed and len(order) < len(rows):  # the head may hold too few patients: rank deeper
        depth *= 4
        order = acquisition.rank_rows(scores, depth)
        kept, relaxed = _unique_patient_prefix(codes[order], k)
    return QueryBatch(tuple(rows[order[kept]].tolist()), relaxed)
