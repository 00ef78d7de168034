"""Baseline acquisition strategies: uncertainty scorers, top-k, random, BADGE.

All scorers follow one convention — HIGHER score means more informative — so
a single tie-break rule (ascending sample id) and a single ranking path serve
every strategy. Margin is negated to fit the convention; entropy uses the
natural log, so its range is [0, ln C].

The selection cores work on rows kept in ascending sample-id order; the
id-keyed ``select_*`` functions sort their ids and call the same cores.
"""

from __future__ import annotations

from functools import reduce
from typing import Mapping

import numpy as np

BASE_STRATEGIES = ("random", "entropy", "margin", "least_confidence", "badge")

PROBABILITY_TOL = 1e-9


def _check_probs(p, expect_vector: bool = False) -> np.ndarray:
    """Validate probability rows; returns a float64 2-D array, a clipped copy only if an entry is outside [0, 1]."""
    arr = np.asarray(p, dtype=np.float64)
    if expect_vector and arr.ndim != 1:
        raise ValueError("expected a single probability vector")
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError("probability vectors need at least 2 entries")
    if not np.all(np.isfinite(arr)):
        raise ValueError("probability vector contains non-finite entries")
    low, high = arr.min(), arr.max()
    if low < -PROBABILITY_TOL or high > 1.0 + PROBABILITY_TOL:
        raise ValueError("probability entries must lie in [0, 1]")
    if np.any(np.abs(reduce(np.add, arr.T) - 1.0) > PROBABILITY_TOL):  # column adds: their order is below 1e-9
        raise ValueError("probability entries must sum to 1")
    return arr if 0.0 <= low and high <= 1.0 else np.clip(arr, 0.0, 1.0)


# The scorers never write to their checked rows. Row maxima and top twos are running maxima over columns,
# one flat loop per class; they only compare, so their bits are those of max(axis=1) and np.partition.
def _entropy_rows(p: np.ndarray) -> np.ndarray:
    # 0 * ln 0 := 0, so one-hot vectors score exactly 0 (the +0.0 avoids -0.0)
    safe = np.where(p > 0.0, p, 1.0)
    return -np.sum(np.where(p > 0.0, p * np.log(safe), 0.0), axis=1) + 0.0


def _margin_rows(p: np.ndarray) -> np.ndarray:
    top1, top2 = np.maximum(p[:, 0], p[:, 1]), np.minimum(p[:, 0], p[:, 1])
    for column in p.T[2:]:
        np.maximum(top2, np.minimum(top1, column), out=top2)
        np.maximum(top1, column, out=top1)
    return -(top1 - top2)


def _least_confidence_rows(p: np.ndarray) -> np.ndarray:
    return 1.0 - reduce(np.maximum, p.T)


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


# an overflowing weight total is _draw's ValueError; a NaN bound (non-finite factors) keeps its row
@np.errstate(over="ignore", invalid="ignore")
def badge_seeding(embeddings: np.ndarray | tuple[np.ndarray, np.ndarray], k: int, seed: int,
                  groups: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """k-means++ seeding over the rows of a gradient embedding.

    ``embeddings`` is a 2-D matrix, or the pair of factors ``(left, right)``
    (n x C and n x H) whose row i is ``outer(left[i], right[i]).ravel()``, as
    :func:`decal.learner.gradient_factors` gives them; array-likes are taken
    as float64. A matrix is the pair ``(matrix, ones((n, 1)))``. Rows are
    built only where they are measured, at most ``_BLOCK_ROWS`` at a time, by
    the ``einsum`` that :func:`decal.learner.gradient_embedding` uses, so no
    n x (C * H) array is made and each built row is bitwise that function's
    row (a matrix's -0.0 becomes +0.0, which no squared distance sees).

    First pick is the maximum-norm row (ties toward the lowest row); each
    later pick is drawn with probability proportional to its squared
    distance to the nearest already-picked row. If the remaining distance
    mass is all zero, the lowest eligible row is taken.

    With ``groups`` (one int per row), rows whose group is already in the
    batch get zero sampling mass. When no row of a new group remains, the
    constraint is relaxed for that slot and seeding continues over all
    unpicked rows. With all-distinct groups the picks equal the unconstrained
    ones. Returns the picked rows in pick order and the relaxed-slot count.

    Each pick measures only the rows it can move. Elkan's triangle-inequality
    bound comes first: every row keeps the pick its distance was measured
    to; if the new pick is more than twice as far from that pick, ``|x-new|
    >= |new-a| - |x-a| > |x-a|``, so the row is skipped. The bound carries a
    margin for rounding and underflow. Of the rows it keeps,
    :meth:`_Certificate.measure` builds and measures only those that a
    rank-1 bound on their distance cannot prove stay where they are. Each
    distance is ``einsum("ij,ij->i", diff, diff)``'s for ``diff = row -
    center``, so every pick is bitwise the one a full measurement would give.

    The sampling weights (the distance of an eligible row, 0 elsewhere) and
    the prune bound are kept up to date on the rows a pick moves or blocks,
    and a picked row's group is found through one stable sort of ``groups``;
    only a relaxed slot rebuilds the weights over every row. Each draw is
    :func:`_draw`: one pass of block sums and one block's running sum place
    the pick, certified against the exact inverse-CDF draw it otherwise
    runs, so it is ``rng.choice(n, p=weights / weights.sum())`` bit for bit
    and leaves the generator in the same state.

    Embeddings that are not a 2-D matrix or two 2-D factors with one row per
    candidate, or ``groups`` that are not one entry per row, raise a
    ValueError naming the shapes. Embeddings whose squared distances (or
    their sum) overflow float64 raise a ValueError that says so.
    """
    left, right = _factor_pair(embeddings)
    n = len(left)
    groups = None if groups is None else np.asarray(groups)
    if groups is not None and groups.shape != (n,):
        raise ValueError(f"groups must be 1-D with one entry per row: shape {groups.shape} "
                         f"for embeddings of shape {(n, left.shape[1] * right.shape[1])}")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > n:
        raise ValueError(f"k ({k}) exceeds number of candidates ({n})")
    certificate = _Certificate(left, right)
    current = certificate.max_norm_row() if n else None  # a non-finite row is a ValueError, also when k == 0
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
    order = np.empty(k, dtype=np.int64)
    order[0] = current
    built = np.empty((k, left.shape[1], right.shape[1]))
    centers = built.reshape(k, -1)  # the picks' built rows
    _build(left[current:current + 1], right[current:current + 1], built[:1])
    relaxed = 0
    dist_sq = certificate.distances(centers[0])
    nearest = np.zeros(n, dtype=np.intp)  # dist_sq[i] is to the built row of order[nearest[i]]
    bound = _PRUNE_FACTOR * dist_sq + _PRUNE_FLOOR
    weights = dist_sq.copy()  # dist_sq on eligible rows, 0 elsewhere
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
        current = _draw(rng, weights)
        if current is None:  # no distance mass left
            current = int(np.argmin(picked if num_blocked == n else blocked))  # lowest eligible row
        order[m] = current
        _build(left[current:current + 1], right[current:current + 1], built[m:m + 1])
        # _Certificate._step's einsum form in one call: over at most k - 1 picks, blocks cost more than they save
        diff = centers[:m] - centers[m]
        rows = np.flatnonzero(np.einsum("ij,ij->i", diff, diff)[nearest] <= bound)
        rows, moved = certificate.measure(current, centers[m], rows, dist_sq)
        closer = moved < dist_sq[rows]
        rows, moved = rows[closer], moved[closer]
        dist_sq[rows] = moved
        nearest[rows] = m
        bound[rows] = _PRUNE_FACTOR * moved + _PRUNE_FLOOR
        weights[rows] = np.where(blocked[rows], 0.0, moved)

    return order, relaxed


def _draw(rng: np.random.Generator, weights: np.ndarray) -> int | None:
    """``rng.choice(len(weights), p=weights / weights.sum())`` bit for bit, mostly from block sums.

    ``weights`` are non-negative. All zero, it returns None and draws
    nothing; if ``weights.sum()`` overflows it raises the seeding loop's
    ValueError. Otherwise index and generator state are those of ``choice``,
    whose draw once its checks pass is exact: ``T = weights.sum()``
    (pairwise), ``c = cumsum(weights / T)``, ``c /= c[-1]``, and the index
    ``c.searchsorted(u, side="right")`` for one ``u = rng.random()``.

    Most draws never build ``c``. The running sum of the sums over blocks
    of B rows (K blocks, total ``A``) finds the block where ``t = u * A``
    falls; that block's running sum, offset by the blocks before it, finds
    the first row ``j`` whose approximate prefix ``hi`` exceeds ``t``, and
    ``lo`` is the prefix before it (0 for row 0). ``j`` is returned when
    ``lo < t * (1 - D)`` and ``hi > t * (1 + D)``, ``D = 4 * (n + B + K +
    2) * eps``, eps = 2**-53, and ``A`` lies in [2**-900, 2**900]; any
    other case, ``u == 0`` included, takes the exact draw with the same ``u``.

    Proof. Let ``P_j`` be the exact prefix sums and ``R_j = P_j / P_{n-1}``.
    A sum of m non-negative terms in any order is its exact value times
    ``1 + theta``, ``|theta| <= gamma_{m-1}``, ``gamma_m = m * eps / (1 -
    m * eps)`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
    4.2), down to subnormals since additions underflow exactly. A term of
    ``lo``, ``hi`` or ``A`` meets at most B - 1 block adds, K - 1
    running-sum adds and the offset add, so each is within ``gamma_{B+K}``
    of its exact sum. A term of the exact ``c[j]`` meets one division and
    n - 1 adds, in ``c[j]`` and again in ``c[-1]``, then the last division:
    ``c[j] = R_j * (1 + theta)``, ``|theta| <= gamma_{2n+1}`` (``T``
    cancels), give or take ``e = n * 2**-1070`` from quotients that
    underflow. ``t`` and the thresholds add three roundings, all relative
    because the window keeps them normal. So with ``x = (2n + 2B + 2K + 4)
    * eps`` and ``D = 2x``, ``hi > t * (1 + D)`` gives ``c[j] >= u * (1 +
    2x) * (1 - x - O(x**2)) - e > u``, and ``lo < t * (1 - D)`` gives
    ``c[j-1] <= u * (1 - 2x) * (1 + x + O(x**2)) + e <= u``. The margin,
    about ``u * x``, covers the second-order terms while x <= 1/16 (n up
    to 2**47) and ``e``, since a nonzero ``u`` is a multiple of 2**-53
    (pinned in ``tests/test_numpy_assumptions.py``). ``c`` is
    non-decreasing, so ``j`` is the exact index. In the window ``T``,
    within ``gamma_{n-1}`` of ``P_{n-1}``, is finite and positive, so the
    exact draw neither raises nor returns None and ``u`` may come first;
    outside it ``T`` decides first, as ``choice`` would.

    Certification fails only when a CDF step lies within about ``D * t``
    of ``t``: probability about ``2 * D * n`` at most, 2e-6 on 48k rows.
    """
    n = len(weights)
    prefix = np.add.reduceat(weights, np.arange(0, n, _DRAW_BLOCK))
    np.add.accumulate(prefix, out=prefix)
    approx = float(prefix[-1])
    u = rng.random() if _DRAW_LOW <= approx <= _DRAW_HIGH else None
    if u:  # neither outside the window nor 0
        target = u * approx
        block = int(prefix.searchsorted(target, side="right"))
        start = block * _DRAW_BLOCK
        before = float(prefix[block - 1]) if block else 0.0
        local = np.add.accumulate(weights[start:start + _DRAW_BLOCK])
        local += before
        row = int(local.searchsorted(target, side="right"))
        slack = (n + _DRAW_BLOCK + len(prefix) + 2) * 2.0 ** -51
        if (row < len(local) and local[row] > target * (1.0 + slack)
                and (local[row - 1] if row else before) < target * (1.0 - slack)):
            return start + row
    total = weights.sum()
    if total == np.inf:
        raise ValueError("squared distances between embeddings overflow float64; scale the embeddings down")
    if total == 0.0:
        return None
    if u is None:
        u = rng.random()
    cdf = np.cumsum(np.divide(weights, total))
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


# The draw's block rows and its window on the approximate total (see _draw).
_DRAW_BLOCK = 512
_DRAW_LOW, _DRAW_HIGH = 2.0 ** -900, 2.0 ** 900


# A row is measured against a new pick unless its nearest pick is more than
# 4 times as far (squared) from the new pick as from the row. Over d columns a
# computed squared distance is within about (d + 2) * 1.1e-16 of the true one,
# relatively, plus d half-ulps of the smallest subnormal where squares
# underflow: the factor's margin covers the first for d up to about 1e9, the
# floor the second (a pool scaled by 1e-162 needs it).
_PRUNE_FACTOR = 4.0 + 1e-6
_PRUNE_FLOOR = np.finfo(np.float64).tiny
_BLOCK_ROWS = 1024


def _factor_pair(embeddings) -> tuple[np.ndarray, np.ndarray]:
    """``(left, right)`` as float64 arrays for a factor pair or a 2-D matrix, which is ``(matrix, ones((n, 1)))``."""
    if isinstance(embeddings, tuple):
        factors = [np.asarray(factor, dtype=np.float64) for factor in embeddings]
        if len(factors) != 2 or factors[0].ndim != 2 or factors[1].ndim != 2 or len(factors[0]) != len(factors[1]):
            raise ValueError("embedding factors must be two 2-D arrays with one row per candidate, "
                             f"got shapes {' and '.join(str(factor.shape) for factor in factors)}")
        return factors[0], factors[1]
    matrix = np.asarray(embeddings, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"embeddings must be a 2-D matrix, got shape {matrix.shape}")
    return matrix, np.ones((len(matrix), 1))


def _build(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The embedding rows of matched factor rows, into ``out`` of shape (rows, C, H), flattened to (rows, C * H)."""
    return np.einsum("nc,nj->ncj", left, right, out=out).reshape(len(out), out.shape[1] * out.shape[2])


class _Certificate:
    """Rank-1 bounds on one seeding's built rows, and the one block step and buffers that build and measure them.

    For row i, ``l = |left_i|**2``, ``r = |right_i|**2`` and ``s = l r``; the
    row's margin is ``4 T (u s + tau (l + r + 1/2))``, with ``T = C H + C + H
    + 8``, u = 2**-53 and tau = 2**-1074 (the smallest subnormal), and ``v``
    and ``hi`` are ``s`` less and plus it. Both are NaN outside the window
    ``l + r + s <= 2**1000``, so that such a row, or one with a non-finite
    factor, is always built and measured.

    Error terms. A rounding is within u of its value, relatively, or within
    tau/2 where it underflows; a sum or dot product of m terms in any order,
    FMA or not, is within gamma_m = m u / (1 - m u) of the sum of the terms'
    magnitudes, plus m tau/2 where products underflow (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 3.1 and 4.2). Write D = C H, a,
    b for row i's factors, X = a b^T and S = |X|**2 = l r exactly. In the
    window no value used here overflows: a built entry is at most 2**500 in
    size, and squared norms, distances and the products below at most
    about 2**1002. A built entry is one rounded product, so the built row
    is X moved by at most u |X| + sqrt(D) tau / 2 in norm, and |X| <= (l +
    r) / 2. The computed l, r and s are within gamma_C, gamma_H and gamma_C
    + gamma_H + u of l, r and S, relatively, plus C tau r or H tau l.
    Hence a row's computed squared norm and its computed s differ by at
    most (D + C + H + 4) u S + (D + C + H + 2) tau (1 + l + r) to first
    order, under half its margin while T u <= 1/16.
    """

    def __init__(self, left: np.ndarray, right: np.ndarray):
        c, h = left.shape[1], right.shape[1]
        self.left, self.right = left, right
        l_sq, r_sq = np.einsum("ij,ij->i", left, left), np.einsum("ij,ij->i", right, right)
        s = l_sq * r_sq
        terms = c * h + c + h + 8
        margin = s * (terms * 2.0 ** -51)  # 4 T u s
        margin += (l_sq + r_sq + 0.5) * (terms * 2.0 ** -1072)  # 4 T tau (l + r + 1/2)
        outside = ~(l_sq + r_sq + s <= 2.0 ** 1000)
        self.v, self.hi = s - margin, s + margin
        self.v[outside] = self.hi[outside] = np.nan
        block_rows = min(len(left), _BLOCK_ROWS)
        self.a_buf, self.b_buf = np.empty((block_rows, c)), np.empty((block_rows, h))
        self.built, self.tiled = np.empty((block_rows, c, h)), np.empty((block_rows, c * h))

    def _step(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The rows of factor rows ``a``, ``b``, built into ``self.built`` less the center tiled in ``self.tiled``.

        Their squared norms go to ``out``. Subtraction rounds each element on
        its own, and a row's ``einsum`` does not depend on the rows that
        share its call, so each is ``diff = matrix[rows] - center;
        einsum("ij,ij->i", diff, diff)``'s, bit for bit, with ``matrix`` the
        whole embedding. Returns the block, flattened.
        """
        block = _build(a, b, self.built[:len(a)])
        np.subtract(block, self.tiled[:len(a)], out=block)
        np.einsum("ij,ij->i", block, block, out=out)
        return block

    def distances(self, center: np.ndarray) -> np.ndarray:
        """The squared distance of every built row to ``center``, as :meth:`_step` measures it."""
        out = np.empty(len(self.left))
        self.tiled[:] = center
        for start in range(0, len(out), _BLOCK_ROWS):
            part = slice(start, start + _BLOCK_ROWS)
            self._step(self.left[part], self.right[part], out[part])
        return out

    def max_norm_row(self) -> int:
        """The first row of largest squared norm, ``argmax(einsum("ij,ij->i", matrix, matrix))`` bit for bit.

        Only the rows whose ``hi`` is not below the largest ``v`` are built,
        by :meth:`_step` against a zero center: ``x - 0.0`` is ``x`` bit for
        bit, -0.0 included, so each squared norm is that ``einsum``'s.
        A row's squared norm lies in [v, hi] (the class's error terms), so
        the norm of the argmax row is at least the largest v, and every row
        that could reach it is built; rows outside the window are built
        too. Candidates are in ascending order, so a tie goes to the lowest
        row. A built row with a non-finite entry raises the ValueError that
        rows outside the window are checked for; rows in the window are
        finite.
        """
        top = np.max(self.v, initial=-np.inf, where=~np.isnan(self.v))
        candidates = np.flatnonzero(~(self.hi < top))
        norms = np.empty(len(candidates))
        self.tiled[:len(candidates)] = 0.0
        for start in range(0, len(candidates), _BLOCK_ROWS):
            part, out = candidates[start:start + _BLOCK_ROWS], norms[start:start + _BLOCK_ROWS]
            block = self._step(self.left[part], self.right[part], out)
            # a squared norm is finite wherever its row is; a finite row may overflow it
            if not np.isfinite(out).all() and not np.isfinite(block).all():
                raise ValueError("embeddings must be finite")
        return int(candidates[np.argmax(norms)])

    def measure(self, c: int, center: np.ndarray, rows: np.ndarray,
                dist_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``rows`` that may come nearer than ``dist_sq`` to ``center``, the built row ``c``, and their distances.

        Each distance is ``einsum("ij,ij->i", diff, diff)``'s for ``diff =
        row - center``, bit for bit (:meth:`_step`). Rows are taken
        ``_BLOCK_ROWS`` at a time, with one gather of each factor, and a row
        is built from those gathers and measured unless ``L = v_i + v_c - 2 p
        q``, with ``p = left_i . left_c`` and ``q = right_i . right_c``, is at
        least ``dist_sq[i]``. A NaN L, from a row outside the window (such as
        every row of a 1e150-scaled pool, whose s overflows), compares false
        and keeps its row.

        Proof that a skipped row's measured distance M is at least
        ``dist_sq[i]``, so that it would not move. With the class's terms,
        and a', b', X' for row c, let E* = |X - X'|**2 = S_i + S_c - 2 (a .
        a') (b . b'). (1) The rows measured are X and X' moved by at most t =
        u (|X| + |X'|) + sqrt(D) tau in norm, so their exact squared
        distance E >= E* - 2 t sqrt(E*), which holds as well when sqrt(E*) <
        t, since E >= 0. With sqrt(E*) <= |X| + |X'|, E >= E* - 4 u (S_i +
        S_c) - sqrt(D) tau (l_i + r_i + l_c + r_c). (2) Measuring rounds each
        difference (exactly where it underflows) and sums D rounded squares,
        so M >= (1 - gamma_{D+2}) E - D tau, and E* <= 2 (S_i + S_c). (3) p
        and q are within gamma_C |a| |a'| + C tau and gamma_H |b| |b'| + H
        tau of their exact values; with |a| |a'| <= (l_i + l_c) / 2 and |a|
        |a'| |b| |b'| = sqrt(S_i S_c) <= (S_i + S_c) / 2, the computed s_i +
        s_c - 2 p q is within (2C + 2H + 2) u (S_i + S_c) + 2 (C + H) tau (1
        + l_i + r_i + l_c + r_c) of E*, to first order. Adding (1) to (3), M
        >= s_i + s_c - 2 p q - (2D + 2C + 2H + 10) u (S_i + S_c) - 2 (D + C +
        H) tau (1 + l_i + r_i + l_c + r_c). The margins in v_i + v_c, 4 T u
        (s_i + s_c) + 4 T tau (1 + l_i + r_i + l_c + r_c), are at least twice
        these terms, and the spare half, at least 16 u (s_i + s_c) + 16 tau,
        covers the second-order terms while T u <= 1/16, s against S, and the
        roundings of v and of L's product and two sums, each at most 2 u (s_i
        + s_c) + tau. So L >= ``dist_sq[i]`` gives M >= ``dist_sq[i]``.
        """
        left, right, v = self.left, self.right, self.v
        a_c, b_c = left[c] * -2.0, right[c]  # scaling by -2 is exact: the dot is -2 p, within the bound on 2 p
        measured = np.empty(len(rows), dtype=np.intp)
        distances = np.empty(len(rows))
        num_measured = tiled_rows = 0
        for start in range(0, len(rows), _BLOCK_ROWS):
            part = rows[start:start + _BLOCK_ROWS]
            # the rows are valid; "clip" spares take the buffered copy of its bounds check
            a = np.take(left, part, axis=0, out=self.a_buf[:len(part)], mode="clip")
            b = np.take(right, part, axis=0, out=self.b_buf[:len(part)], mode="clip")
            lower = np.dot(a, a_c)
            lower *= np.dot(b, b_c)
            lower += v[c]
            lower += v[part]
            keep = np.flatnonzero(~(lower >= dist_sq[part]))
            if len(keep) < len(part):
                a, b, part = np.take(a, keep, axis=0), np.take(b, keep, axis=0), part[keep]
            end = num_measured + len(part)
            if len(part) > tiled_rows:  # the center is tiled once per pick, as far as a block needs it
                self.tiled[tiled_rows:len(part)] = center
                tiled_rows = len(part)
            self._step(a, b, distances[num_measured:end])
            measured[num_measured:end] = part
            num_measured = end
        return measured[:num_measured], distances[:num_measured]
