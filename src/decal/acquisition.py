"""Baseline acquisition strategies: uncertainty scorers, top-k, random, BADGE.

All scorers follow one convention — HIGHER score means more informative — so
a single tie-break rule (ascending sample id) and a single ranking path serve
every strategy. Margin is negated to fit the convention; entropy uses the
natural log, so its range is [0, ln C].

The selection cores work on rows kept in ascending sample-id order; the
id-keyed ``select_*`` functions sort their ids and call the same cores.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

BASE_STRATEGIES = ("random", "entropy", "margin", "least_confidence", "badge")

PROBABILITY_TOL = 1e-9


def _check_probs(p, expect_vector: bool = False) -> np.ndarray:
    """Validate probability rows; returns a clipped float64 2-D array."""
    arr = np.asarray(p, dtype=np.float64)
    if expect_vector and arr.ndim != 1:
        raise ValueError("expected a single probability vector")
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError("probability vectors need at least 2 entries")
    if not np.all(np.isfinite(arr)):
        raise ValueError("probability vector contains non-finite entries")
    if arr.min() < -PROBABILITY_TOL or arr.max() > 1.0 + PROBABILITY_TOL:
        raise ValueError("probability entries must lie in [0, 1]")
    if np.any(np.abs(arr.sum(axis=1) - 1.0) > PROBABILITY_TOL):
        raise ValueError("probability entries must sum to 1")
    return np.clip(arr, 0.0, 1.0)


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    # 0 * ln 0 := 0, so one-hot vectors score exactly 0 (the +0.0 avoids -0.0)
    safe = np.where(p > 0.0, p, 1.0)
    return -np.sum(np.where(p > 0.0, p * np.log(safe), 0.0), axis=1) + 0.0


def _margin_rows(p: np.ndarray) -> np.ndarray:
    part = np.partition(p, p.shape[1] - 2, axis=1)
    return -(part[:, -1] - part[:, -2])


def _least_confidence_rows(p: np.ndarray) -> np.ndarray:
    return 1.0 - p.max(axis=1)


_ROW_SCORERS = {
    "entropy": _entropy_rows,
    "margin": _margin_rows,
    "least_confidence": _least_confidence_rows,
}


def score_entropy(p) -> float:
    """Shannon entropy -sum_c p_c ln p_c; in [0, ln C]."""
    return float(_entropy_rows(_check_probs(p, expect_vector=True))[0])


def score_margin(p) -> float:
    """Negated gap between the two largest entries; in [-1, 0]."""
    return float(_margin_rows(_check_probs(p, expect_vector=True))[0])


def score_least_confidence(p) -> float:
    """1 minus the maximum entry; in [0, 1 - 1/C]."""
    return float(_least_confidence_rows(_check_probs(p, expect_vector=True))[0])


def score_rows(strategy: str, probs) -> np.ndarray:
    """Vectorized scorer over rows of a probability matrix."""
    if strategy not in _ROW_SCORERS:
        raise ValueError(f"unknown score strategy {strategy!r}")
    return _ROW_SCORERS[strategy](_check_probs(probs))


def rank_rows(scores: np.ndarray) -> np.ndarray:
    """Row order by descending score; equal scores keep ascending row order."""
    return np.argsort(-scores, kind="stable")


def select_top_k(scores, k: int) -> list[int]:
    """The k highest-scoring ids; ties broken by ascending sample id."""
    pairs = scores.items() if isinstance(scores, Mapping) else scores
    items = sorted((int(i), float(v)) for i, v in pairs)
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > len(items):
        raise ValueError(f"k ({k}) exceeds number of scored samples ({len(items)})")
    if len({i for i, _ in items}) != len(items):
        raise ValueError("duplicate sample ids in scores")
    values = np.array([v for _, v in items], dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("scores must be finite")
    return [items[row][0] for row in rank_rows(values)[:k]]


def select_badge(embeddings: Mapping[int, np.ndarray], k: int, seed: int) -> list[int]:
    """BADGE over an id -> gradient embedding map; see :func:`badge_seeding`."""
    ids = sorted(int(i) for i in embeddings)
    if not ids:
        raise ValueError("no embeddings given")
    matrix = np.array([np.asarray(embeddings[i], dtype=np.float64).ravel() for i in ids])
    rows, _ = badge_seeding(matrix, k, seed)
    return [ids[row] for row in rows]


def badge_seeding(matrix: np.ndarray, k: int, seed: int,
                  groups: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """k-means++ seeding over the rows of a gradient-embedding matrix.

    First pick is the maximum-norm row (ties toward the lowest row); each
    later pick is drawn with probability proportional to its squared
    distance to the nearest already-picked row. If the remaining distance
    mass is all zero, the lowest eligible row is taken.

    With ``groups`` (one int per row), rows whose group is already in the
    batch get zero sampling mass. When no row of a new group remains, the
    constraint is relaxed for that slot and seeding continues over all
    unpicked rows. With all-distinct groups the picks equal the unconstrained
    ones. Returns the picked rows in pick order and the relaxed-slot count.

    Each pick measures only the rows it can move (Elkan's triangle-inequality
    bound). Every row keeps the pick its distance was measured to; if the new
    pick is more than twice as far from that pick, ``|x-new| >= |new-a| -
    |x-a| > |x-a|``, so the row is skipped. The bound carries a margin for
    rounding and underflow, so every distance and every pick is bitwise the
    one a full measurement of every row would give.
    """
    n = len(matrix)
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > n:
        raise ValueError(f"k ({k}) exceeds number of candidates ({n})")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("embeddings must be finite")
    if k == 0:
        return np.zeros(0, dtype=np.int64), 0

    rng = np.random.default_rng(seed)
    picked = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)  # picked rows and rows of a group in the batch
    norms_sq = np.einsum("ij,ij->i", matrix, matrix)
    current = int(np.argmax(norms_sq))  # first occurrence = lowest row
    order = [current]
    relaxed = 0
    dist_sq = _sq_distances(matrix, matrix[current], np.arange(n))
    nearest = np.zeros(n, dtype=np.intp)  # dist_sq[i] is to matrix[order[nearest[i]]]
    while True:
        picked[current] = True
        blocked[current] = True
        if groups is not None:
            blocked |= groups == groups[current]
        if len(order) == k:
            break
        eligible = ~blocked
        if not eligible.any():
            relaxed += 1
            eligible = ~picked
        weights = np.where(eligible, dist_sq, 0.0)
        total = weights.sum()
        if total > 0.0:
            current = int(rng.choice(n, p=weights / total))
        else:
            current = int(np.flatnonzero(eligible)[0])
        between = _sq_distances(matrix, matrix[current], np.array(order))
        order.append(current)
        rows = np.flatnonzero(between[nearest] <= _PRUNE_FACTOR * dist_sq + _PRUNE_FLOOR)
        moved = _sq_distances(matrix, matrix[current], rows)
        closer = moved < dist_sq[rows]
        dist_sq[rows[closer]] = moved[closer]
        nearest[rows[closer]] = len(order) - 1

    return np.array(order, dtype=np.int64), relaxed


# A row is measured against a new pick unless its nearest pick is more than
# 4 times as far (squared) from the new pick as from the row. Over d columns a
# computed squared distance is within about (d + 2) * 1.1e-16 of the true one,
# relatively, plus d half-ulps of the smallest subnormal where squares
# underflow: the factor's margin covers the first for d up to about 1e9, the
# floor the second (a pool scaled by 1e-162 needs it).
_PRUNE_FACTOR = 4.0 + 1e-6
_PRUNE_FLOOR = np.finfo(np.float64).tiny
_BLOCK_ROWS = 2048


def _sq_distances(matrix: np.ndarray, center: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Squared distances from ``center`` to ``matrix[rows]``.

    Works in blocks of rows through one reused buffer, so no ``(len(rows), d)``
    array is made; each row's arithmetic is that of ``diff = matrix[rows] -
    center; einsum("ij,ij->i", diff, diff)``, bit for bit.
    """
    out = np.empty(len(rows))
    buf = np.empty((min(len(rows), _BLOCK_ROWS), matrix.shape[1]))
    for start in range(0, len(rows), _BLOCK_ROWS):
        part = rows[start:start + _BLOCK_ROWS]
        block = buf[:len(part)]
        # the rows are valid; "clip" spares take the buffered copy of its bounds check
        np.take(matrix, part, axis=0, out=block, mode="clip")
        np.subtract(block, center, out=block)
        np.einsum("ij,ij->i", block, block, out=out[start:start + len(part)])
    return out
