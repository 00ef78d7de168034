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


def rank_rows(scores: np.ndarray, depth: int) -> np.ndarray:
    """The head of the row order by descending score, equal scores in ascending row order.

    The head is the shortest prefix of that order holding ``depth`` rows and
    every row tied with its last: a partition finds the cut score and only the
    rows at or above it are sorted, so all rows are sorted only when ``depth``
    reaches their number or they all tie. Scores must be finite.
    """
    n = len(scores)
    if depth >= n:
        return np.argsort(-scores, kind="stable")
    if depth < 1:
        return np.zeros(0, dtype=np.intp)
    head = np.flatnonzero(scores >= np.partition(scores, n - depth)[n - depth])  # ascending rows, so ties stay in row order
    return head[np.argsort(-scores[head], kind="stable")]


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
    return [items[row][0] for row in rank_rows(values, k)[:k]]


def select_badge(embeddings: Mapping[int, np.ndarray], k: int, seed: int) -> list[int]:
    """BADGE over an id -> gradient embedding map; see :func:`badge_seeding`."""
    ids = sorted(int(i) for i in embeddings)
    if not ids:
        raise ValueError("no embeddings given")
    matrix = np.array([np.asarray(embeddings[i], dtype=np.float64).ravel() for i in ids])
    rows, _ = badge_seeding(matrix, k, seed)
    return [ids[row] for row in rows]


@np.errstate(over="ignore")  # an overflowing weight total is a ValueError below
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

    The sampling weights (the distance of an eligible row, 0 elsewhere) and
    the prune bound are kept up to date on the rows a pick moves or blocks,
    and a picked row's group is found through one stable sort of ``groups``;
    only a relaxed slot rebuilds the weights over every row. Each draw is
    :func:`_draw`, which is ``rng.choice(n, p=weights / total)`` bit for bit
    and leaves the generator in the same state.

    A ``matrix`` that is not 2-D, or ``groups`` that are not one entry per
    row, raise a ValueError naming the shapes. Embeddings whose squared
    distances (or their sum) overflow float64 raise a ValueError that says so.
    """
    if matrix.ndim != 2:
        raise ValueError(f"embeddings must be a 2-D matrix, got shape {matrix.shape}")
    n = len(matrix)
    if groups is not None and np.shape(groups) != (n,):
        raise ValueError(f"groups must be 1-D with one entry per row: shape {np.shape(groups)} "
                         f"for embeddings of shape {matrix.shape}")
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
    num_blocked = 0
    if groups is None:  # all-distinct groups block only the picked row
        groups = by_group = sorted_groups = np.arange(n)
    else:
        by_group = np.argsort(groups, kind="stable")  # the rows of each group, in one run
        sorted_groups = groups[by_group]
    current = int(np.argmax(np.einsum("ij,ij->i", matrix, matrix)))  # max norm; first occurrence = lowest row
    order = np.empty(k, dtype=np.int64)
    order[0] = current
    relaxed = 0
    dist_sq = _sq_distances(matrix, matrix[current], np.arange(n))
    nearest = np.zeros(n, dtype=np.intp)  # dist_sq[i] is to matrix[order[nearest[i]]]
    bound = _PRUNE_FACTOR * dist_sq + _PRUNE_FLOOR
    weights = dist_sq.copy()  # dist_sq on eligible rows, 0 elsewhere
    buf = np.empty(n)
    for m in range(1, k + 1):
        picked[current] = True
        if num_blocked < n:  # current was eligible, and so is every row of its group
            group = groups[current]
            members = by_group[sorted_groups.searchsorted(group):sorted_groups.searchsorted(group, side="right")]
            num_blocked += len(members)
            blocked[members] = True
            weights[members] = 0.0
        if m == k:
            break
        if num_blocked == n:
            relaxed += 1
            np.copyto(weights, dist_sq)
            weights[picked] = 0.0
        total = weights.sum()
        if total == np.inf:
            raise ValueError("squared distances between embeddings overflow float64; scale the embeddings down")
        if total > 0.0:
            current = _draw(rng, weights, total, buf)
        else:
            current = int(np.argmin(picked if num_blocked == n else blocked))  # lowest eligible row
        order[m] = current
        # _sq_distances' bitwise reference form: over at most k - 1 picks its blocks cost more than they save
        diff = matrix[order[:m]] - matrix[current]
        rows = np.flatnonzero(np.einsum("ij,ij->i", diff, diff)[nearest] <= bound)
        moved = _sq_distances(matrix, matrix[current], rows)
        closer = moved < dist_sq[rows]
        rows, moved = rows[closer], moved[closer]
        dist_sq[rows] = moved
        nearest[rows] = m
        bound[rows] = _PRUNE_FACTOR * moved + _PRUNE_FLOOR
        weights[rows] = np.where(blocked[rows], 0.0, moved)

    return order, relaxed


def _draw(rng: np.random.Generator, weights: np.ndarray, total: float, buf: np.ndarray) -> int:
    """``rng.choice(len(weights), p=weights / total)`` without its checks, through ``buf``.

    The arithmetic is the inverse-CDF draw numpy's ``Generator.choice`` makes
    once its checks pass: the cumulative sum of ``p`` scaled by its last entry,
    then the first entry above one ``rng.random()``. So the index and the
    generator's state after the draw are both those of ``choice``.
    """
    np.divide(weights, total, out=buf)
    np.cumsum(buf, out=buf)
    buf /= buf[-1]
    return int(buf.searchsorted(rng.random(), side="right"))


# A row is measured against a new pick unless its nearest pick is more than
# 4 times as far (squared) from the new pick as from the row. Over d columns a
# computed squared distance is within about (d + 2) * 1.1e-16 of the true one,
# relatively, plus d half-ulps of the smallest subnormal where squares
# underflow: the factor's margin covers the first for d up to about 1e9, the
# floor the second (a pool scaled by 1e-162 needs it).
_PRUNE_FACTOR = 4.0 + 1e-6
_PRUNE_FLOOR = np.finfo(np.float64).tiny
_BLOCK_ROWS = 1024


def _sq_distances(matrix: np.ndarray, center: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Squared distances from ``center`` to ``matrix[rows]``.

    Works in blocks of rows through one reused buffer, so no ``(len(rows), d)``
    array is made. The center is tiled to a block's shape once, so each
    block's subtraction is one flat loop rather than one short loop per row.
    Subtraction rounds each element on its own, and the ``einsum`` is the one
    a single call would make, so each row's distance is that of
    ``diff = matrix[rows] - center; einsum("ij,ij->i", diff, diff)``, bit for
    bit.
    """
    out = np.empty(len(rows))
    block_rows = min(len(rows), _BLOCK_ROWS)
    buf = np.empty((block_rows, matrix.shape[1]))
    tiled = np.tile(center, (block_rows, 1))
    for start in range(0, len(rows), _BLOCK_ROWS):
        part = rows[start:start + _BLOCK_ROWS]
        block = buf[:len(part)]
        # the rows are valid; "clip" spares take the buffered copy of its bounds check
        np.take(matrix, part, axis=0, out=block, mode="clip")
        np.subtract(block, tiled[:len(part)], out=block)
        np.einsum("ij,ij->i", block, block, out=out[start:start + len(part)])
    return out
