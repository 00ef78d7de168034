import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decal import acquisition, learner
from decal.data import generate_synthetic
from decal.presets import PRESETS
from decal.acquisition import (
    badge_seeding,
    score_entropy,
    score_least_confidence,
    score_margin,
    select_badge,
    select_top_k,
)
from decal.learner import gradient_embedding
from decal.patients import select_query_batch
from helpers import batch_ids, linear_model, make_sampleset, traced_peak


def probability_vectors(min_classes=2, max_classes=6):
    return (
        st.integers(min_classes, max_classes)
        .flatmap(lambda c: st.lists(st.floats(1e-6, 1.0), min_size=c, max_size=c))
        .map(lambda raw: np.array(raw) / np.sum(raw))
    )


class TestScorers:
    def test_entropy_reference_values(self):
        assert score_entropy([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(math.log(3), abs=1e-12)
        assert score_entropy([1.0, 0.0, 0.0]) == 0.0
        # frozen from a 60-digit evaluation of -sum p ln p
        assert score_entropy([0.5, 0.3, 0.2]) == pytest.approx(1.0296530140645735274, abs=1e-12)

    def test_margin_reference_values(self):
        assert score_margin([1.0, 0.0, 0.0]) == -1.0
        assert score_margin([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(0.0, abs=1e-15)
        assert score_margin([0.5, 0.3, 0.2]) == pytest.approx(-0.2, abs=1e-15)

    def test_least_confidence_reference_values(self):
        assert score_least_confidence([1.0, 0.0, 0.0]) == 0.0
        assert score_least_confidence([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(2 / 3, abs=1e-15)
        assert score_least_confidence([0.5, 0.3, 0.2]) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("bad", [
        [0.5, 0.6],            # does not sum to 1
        [1.2, -0.2],           # outside [0, 1]
        [1.0],                 # fewer than 2 entries
        [np.nan, 1.0],         # non-finite
    ])
    def test_invalid_vectors_rejected(self, bad):
        for scorer in (score_entropy, score_margin, score_least_confidence):
            with pytest.raises(ValueError):
                scorer(bad)

    @given(probability_vectors())
    def test_entropy_bounds(self, p):
        value = score_entropy(p)
        assert -1e-12 <= value <= math.log(len(p)) + 1e-12

    @given(probability_vectors(), st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_moving_mass_off_argmax_never_decreases_scores(self, p, fraction):
        top = int(np.argmax(p))
        order = np.argsort(-p)
        runner_up = int(order[1]) if order[0] == top else int(order[0])
        epsilon = fraction * (p[top] - p[runner_up]) / 2
        q = p.copy()
        q[top] -= epsilon
        q[runner_up] += epsilon
        tolerance = 1e-9
        assert score_entropy(q) >= score_entropy(p) - tolerance
        assert score_margin(q) >= score_margin(p) - tolerance
        assert score_least_confidence(q) >= score_least_confidence(p) - tolerance


def reference_softmax(z):
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return p


def reference_margin_rows(p):
    part = np.partition(p, p.shape[1] - 2, axis=1)
    return -(part[:, -1] - part[:, -2])


def reference_least_confidence_rows(p):
    return 1.0 - p.max(axis=1)


def fuzzed_logits(rng, classes):
    """Logits at scales from near-uniform to saturating, often rounded to exact ties."""
    z = rng.standard_normal((int(rng.integers(1, 300)), classes)) * rng.choice([1e-3, 1.0, 8.0, 60.0])
    if rng.random() < 0.5:  # ties within rows, and between the top two
        z = np.round(z * rng.choice([0.5, 2.0])) / 2.0
    if rng.random() < 0.2:
        z[:, 1:] = z[:, :1]
    return z


def fuzzed_posteriors(rng, classes):
    p = reference_softmax(fuzzed_logits(rng, classes))
    one_hot = rng.random(len(p)) < 0.3
    p[one_hot] = np.eye(classes)[rng.integers(0, classes, int(one_hot.sum()))]
    if rng.random() < 0.3:  # exact ties on a coarse grid, rows summing to 1
        q = np.round(p * 4)
        q[q.sum(axis=1) == 0, 0] = 1.0
        p = q / q.sum(axis=1, keepdims=True)
    return p


class TestColumnScorers:
    """The running-column forms are bitwise the ``max(axis=1)`` and ``np.partition`` forms they replaced."""

    @pytest.mark.parametrize("classes", range(2, 13))
    def test_softmax_equals_the_row_max_form(self, classes):
        rng = np.random.default_rng(classes)
        for _ in range(40):
            z = fuzzed_logits(rng, classes)
            assert learner._softmax(z).tobytes() == reference_softmax(z).tobytes()

    @pytest.mark.parametrize("classes", range(2, 13))
    def test_margin_and_least_confidence_equal_the_partition_and_max_forms(self, classes):
        rng = np.random.default_rng(100 + classes)
        for _ in range(40):
            p = fuzzed_posteriors(rng, classes)
            before = p.copy()
            assert acquisition.score_rows("margin", p).tobytes() == reference_margin_rows(p).tobytes()
            assert (acquisition.score_rows("least_confidence", p).tobytes()
                    == reference_least_confidence_rows(p).tobytes())
            assert p.tobytes() == before.tobytes()  # the checked rows are the caller's, uncopied

    def test_check_probs_copies_only_to_clip(self):
        p = np.array([[0.25, 0.75], [1.0, 0.0]])
        assert acquisition._check_probs(p) is p
        q = np.array([[1.0 + 5e-10, -5e-10], [0.5, 0.5]])
        clipped = acquisition._check_probs(q)
        assert clipped.tolist() == [[1.0, 0.0], [0.5, 0.5]] and q[0, 1] == -5e-10

    @pytest.mark.parametrize("bad, message", [
        ([[0.5, 0.5 + 2e-9]], "must sum to 1"),
        ([[0.5, 0.5], [0.25, 0.75 - 2e-9]], "must sum to 1"),
        ([[1.0 + 2e-9, -2e-9]], r"must lie in \[0, 1\]"),
        ([[np.inf, 0.0]], "non-finite"),
        ([[1.0]], "at least 2 entries"),
    ])
    def test_check_probs_messages(self, bad, message):
        with pytest.raises(ValueError, match=message):
            acquisition.score_rows("entropy", np.array(bad))


class TestSelectTopK:
    def test_basic(self):
        assert select_top_k({1: 0.9, 2: 0.1, 3: 0.5}, 2) == [1, 3]

    def test_tie_breaks_to_lower_id(self):
        assert select_top_k({7: 0.5, 3: 0.5}, 1) == [3]

    def test_full_ordering(self):
        assert select_top_k({1: 0.2, 2: 0.9, 3: 0.2}, 3) == [2, 1, 3]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            select_top_k({1: 0.5}, 2)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            select_top_k([(1, 0.5), (1, 0.6)], 1)

    @given(
        st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5)), min_size=1, max_size=30)
        .map(lambda pairs: {i: v / 5 for i, v in pairs}),
        st.data(),
    )
    @settings(max_examples=200)
    def test_matches_sort_oracle(self, scores, data):
        k = data.draw(st.integers(0, len(scores)))
        oracle = [i for i, _ in sorted(scores.items(), key=lambda iv: (-iv[1], iv[0]))][:k]
        assert select_top_k(scores, k) == oracle


def full_ranking(scores):
    """The reference order: one stable sort of the whole array by descending score."""
    return np.argsort(-scores, kind="stable")


def assert_ranking_head(scores, depth):
    """``rank_rows(scores, depth)`` is the full ranking's first ``depth`` rows plus every row tied with the last."""
    full = full_ranking(scores)
    head = acquisition.rank_rows(scores, depth)
    expected = len(full) if depth >= len(full) else depth
    if 0 < expected < len(full):
        expected += int(np.count_nonzero(scores[full[expected:]] == scores[full[expected - 1]]))
    np.testing.assert_array_equal(head, full[:expected])


class TestRankRows:
    def test_full_depth_is_the_full_ranking(self):
        scores = np.array([0.2, 0.9, 0.2, 0.5, 0.9])
        np.testing.assert_array_equal(acquisition.rank_rows(scores, 5), [1, 4, 3, 0, 2])

    def test_ties_with_the_last_row_of_the_head_are_kept_in_row_order(self):
        scores = np.array([0.5, 0.9, 0.5, 0.1, 0.5])
        np.testing.assert_array_equal(acquisition.rank_rows(scores, 2), [1, 0, 2, 4])

    @pytest.mark.parametrize("depth", [0, 1, 3, 5, 6, 100])
    def test_edge_depths(self, depth):
        assert_ranking_head(np.array([0.3, 0.1, 0.3, 0.7, 0.0]), depth)

    @pytest.mark.parametrize("depth", [1, 4, 10])
    def test_one_tie_group_is_the_whole_array(self, depth):
        assert_ranking_head(np.full(10, 0.25), depth)

    def test_signed_zeros_tie(self):
        assert_ranking_head(np.array([0.0, -0.0, 1.0, -0.0, 0.0]), 2)

    @given(st.lists(st.integers(0, 4), min_size=0, max_size=60), st.data())
    @settings(max_examples=400, deadline=None)
    def test_quantized_scores_match_the_full_sort(self, levels, data):
        # few score levels, so ties straddle the depth-th score in most examples
        scores = np.array(levels, dtype=np.float64) / 4 - 0.5
        assert_ranking_head(scores, data.draw(st.integers(0, len(scores) + 2)))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_continuous_scores_match_the_full_sort(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal(n)
        scores[rng.integers(n, size=n // 3)] = scores[rng.integers(n)]  # one large tie group
        assert_ranking_head(scores, int(rng.integers(0, n + 1)))


def id_pool(ids):
    """A pool holding exactly ``ids``, one patient each."""
    return make_sampleset([(i, f"p{i}", [0.0, 0.0], 0) for i in ids])


def select_random(pool, k, seed):
    """The "random" strategy over every row of ``pool``."""
    model = linear_model(np.eye(2), np.zeros(2))
    return batch_ids(pool, select_query_batch("random", model, pool, np.arange(len(pool)), k, seed))


class TestSelectRandom:
    def test_full_draw_is_permutation(self):
        out = select_random(id_pool([5, 3, 9, 1]), 4, seed=0)
        assert sorted(out) == [1, 3, 5, 9]

    def test_deterministic(self):
        pool = id_pool(range(50))
        assert select_random(pool, 10, seed=4) == select_random(pool, 10, seed=4)

    def test_uniform_frequencies(self):
        pool = id_pool([0, 1, 2, 3])
        counts = {c: 0 for c in (0, 1, 2, 3)}
        for seed in range(10000):
            counts[select_random(pool, 1, seed)[0]] += 1
        for c in counts:
            assert abs(counts[c] / 10000 - 0.25) < 0.02

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            select_random(id_pool([1, 2]), 3, seed=0)


class TestSelectBadge:
    def test_k1_returns_max_norm(self):
        embeddings = {10: np.array([0.1, 0.0]), 11: np.array([3.0, 4.0]), 12: np.array([1.0, 1.0])}
        assert select_badge(embeddings, 1, seed=0) == [11]

    def test_k1_norm_tie_breaks_to_lower_id(self):
        embeddings = {4: np.array([0.0, 2.0]), 2: np.array([2.0, 0.0])}
        assert select_badge(embeddings, 1, seed=0) == [2]

    def test_two_point_mass_clusters(self):
        embeddings = {}
        for i in range(5):
            embeddings[i] = np.array([10.0, 0.0])
        for i in range(5, 10):
            embeddings[i] = np.array([0.0, 5.0])
        for seed in range(25):
            picked = select_badge(embeddings, 2, seed=seed)
            assert {0 <= p < 5 for p in picked} == {True, False}

    def test_k_equals_all(self):
        rng = np.random.default_rng(0)
        embeddings = {i: rng.standard_normal(3) for i in range(12)}
        out = select_badge(embeddings, 12, seed=1)
        assert sorted(out) == list(range(12))

    def test_deterministic_and_distinct(self):
        rng = np.random.default_rng(5)
        embeddings = {i: rng.standard_normal(4) for i in range(40)}
        a = select_badge(embeddings, 10, seed=9)
        b = select_badge(embeddings, 10, seed=9)
        assert a == b
        assert len(set(a)) == 10
        assert set(a) <= set(embeddings)

    def test_all_identical_falls_back_to_lowest_ids(self):
        embeddings = {i: np.array([1.0, 1.0]) for i in (7, 3, 5)}
        assert select_badge(embeddings, 3, seed=0) == [3, 5, 7]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            select_badge({1: np.array([1.0])}, 2, seed=0)


def reference_badge_seeding(matrix, k, seed, groups=None):
    """The seeding loop before pruning: every pick measures every row."""
    n = len(matrix)
    if k == 0:
        return np.zeros(0, dtype=np.int64), 0
    rng = np.random.default_rng(seed)
    picked = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)
    norms_sq = np.einsum("ij,ij->i", matrix, matrix)
    current = int(np.argmax(norms_sq))
    order = [current]
    relaxed = 0
    diff = matrix - matrix[current]
    dist_sq = np.einsum("ij,ij->i", diff, diff)
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
        order.append(current)
        diff = matrix - matrix[current]
        dist_sq = np.minimum(dist_sq, np.einsum("ij,ij->i", diff, diff))
    return np.array(order, dtype=np.int64), relaxed


@st.composite
def seeding_inputs(draw):
    """Pools of few distinct rows (so duplicates of picked rows), some all zero, at extreme scales."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.standard_normal((draw(st.integers(1, n)), draw(st.integers(1, 6))))
    if draw(st.booleans()):  # small integer coordinates: ties between distances
        points = np.round(2 * points)
    matrix = points[rng.integers(len(points), size=n)]
    matrix[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    # squared distances: subnormal at 1e-160, a few ulps of the smallest subnormal or 0 at 1e-162
    matrix *= draw(st.sampled_from([1e-162, 1e-160, 1.0, 1e150]))
    num_groups = draw(st.integers(0, n))  # 0: unconstrained; few groups force relaxed slots
    groups = rng.integers(num_groups, size=n) if num_groups else None
    k = draw(st.sampled_from([n, 0]) | st.integers(0, n))
    return matrix, k, draw(st.integers(0, 1000)), groups


def _same_picks(matrix, k, seed, groups):
    rows, relaxed = badge_seeding(matrix, k, seed, groups)
    expected, expected_relaxed = reference_badge_seeding(matrix, k, seed, groups)
    assert rows.tolist() == expected.tolist() and relaxed == expected_relaxed
    return relaxed


class TestBadgePruning:
    @settings(max_examples=400, deadline=None)
    @given(seeding_inputs())
    def test_picks_equal_the_unpruned_loop(self, case):
        _same_picks(*case)

    @pytest.mark.parametrize("scale", [1e-160, 1.0, 1e150])
    def test_named_cases_equal_the_unpruned_loop(self, scale):
        rng = np.random.default_rng(11)
        points = rng.standard_normal((4, 3)) * scale
        duplicates = points[np.arange(60) % 4]  # mass is all zero once every point is picked
        with_zeros = np.vstack([points, np.zeros((5, 3)), rng.standard_normal((20, 3)) * scale])
        groups = np.arange(len(with_zeros)) % 3
        for matrix, k, groups_or_none in [(duplicates, 10, None), (with_zeros, 12, None),
                                          (with_zeros, len(with_zeros), None),
                                          (with_zeros, 7, groups), (duplicates, len(duplicates), None)]:
            for seed in range(5):
                _same_picks(matrix, k, seed, groups_or_none)
        assert _same_picks(with_zeros, 7, 0, groups) == 4

    @pytest.mark.parametrize("matrix, k", [
        # in units of the smallest subnormal, row 1 is 1 from the first pick (row 0) and
        # 0 from the second (row 3), which is 5 from the first: only the floor measures it
        (np.random.default_rng(47).standard_normal((6, 6)) * 1e-162, 3),
        # points on a line: a bound factor of 3.9 instead of 4 changes the picks
        (np.random.default_rng(6).standard_normal((20, 1)), 20),
    ], ids=["underflow", "collinear"])
    def test_rows_at_the_bound_equal_the_unpruned_loop(self, matrix, k):
        _same_picks(matrix, k, 0, None)

    @pytest.mark.parametrize("n", [0, 1, "B-1", "B", "B+1", "2B+7"])
    def test_built_rows_bitwise_equal_to_one_einsum(self, n):
        block = acquisition._BLOCK_ROWS
        n = {"B-1": block - 1, "B": block, "B+1": block + 1, "2B+7": 2 * block + 7}.get(n, n)
        rng = np.random.default_rng(3)
        matrix, center = rng.standard_normal((n, 48)), rng.standard_normal(48)
        diff = matrix - center
        expected = np.einsum("ij,ij->i", diff, diff)
        certificate = acquisition._Certificate(*acquisition._factor_pair(matrix))
        assert certificate.distances(center).tobytes() == expected.tobytes()
        # measure with the center as a last row, and no distance to beat: every row given is built
        rows = rng.permutation(n)[: n // 2 + 1] if n else np.zeros(0, dtype=np.intp)
        with_center = acquisition._Certificate(*acquisition._factor_pair(np.vstack([matrix, center])))
        measured, distances = with_center.measure(n, center, rows, np.full(n + 1, np.inf))
        assert measured.tolist() == rows.tolist()
        assert distances.tobytes() == expected[rows].tobytes()

    @pytest.mark.parametrize("n", [1, "B-1", "B", "B+1", "2B+7"])
    def test_max_norm_row_is_the_first_argmax_of_one_einsum(self, n):
        block = acquisition._BLOCK_ROWS
        n = {"B-1": block - 1, "B": block, "B+1": block + 1, "2B+7": 2 * block + 7}.get(n, n)
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((n, 48))
        matrix[rng.random(matrix.shape) < 0.1] = -0.0
        top = np.argmax(np.einsum("ij,ij->i", matrix, matrix))
        ties = rng.choice(n, size=min(n, 3), replace=False)
        matrix[ties] = matrix[top] * np.where(rng.random(48) < 0.5, -1.0, 1.0)  # sign flips keep the norm's bits
        norms = np.einsum("ij,ij->i", matrix, matrix)
        assert n == 1 or (norms == norms.max()).sum() > 1
        assert acquisition._Certificate(*acquisition._factor_pair(matrix)).max_norm_row() == np.argmax(norms)

    @pytest.mark.parametrize("scale", [1e153, 1e154])
    def test_overflowing_weight_total_is_a_value_error_that_says_so(self, scale):
        # 1e153: each squared distance is finite but their sum is not; 1e154: distances overflow
        rng = np.random.default_rng(8)
        embeddings = {i: row for i, row in enumerate(rng.standard_normal((60, 4)) * scale)}
        with pytest.raises(ValueError, match="squared distances between embeddings overflow float64"):
            select_badge(embeddings, 4, seed=0)

    def test_well_separated_clusters_build_under_an_eighth_of_the_rows(self, monkeypatch):
        # the rows built after the first pick are those measure returns: 9,967 of n (k - 1) = 93,000; a
        # certificate that skipped nothing would build all 19,723 that Elkan's bound keeps
        rng = np.random.default_rng(4)
        centers = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
        matrix = centers[np.arange(3000) % 3] + rng.standard_normal((3000, 3))
        built = []
        measure = acquisition._Certificate.measure

        def counting(certificate, c, center, rows, dist_sq):
            measured, distances = measure(certificate, c, center, rows, dist_sq)
            built.append(len(measured))
            return measured, distances

        monkeypatch.setattr(acquisition._Certificate, "measure", counting)
        k = 32
        rows, _ = badge_seeding(matrix, k, seed=2)
        monkeypatch.undo()
        assert rows.tolist() == reference_badge_seeding(matrix, k, seed=2)[0].tolist()
        assert sum(built) < len(matrix) * (k - 1) / 8

    def test_well_separated_clusters_keep_under_half_the_rows_for_the_certificate(self, monkeypatch):
        # the rows Elkan's bound keeps go to _Certificate.measure, which builds only those it cannot certify
        rng = np.random.default_rng(4)
        centers = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
        matrix = centers[np.arange(3000) % 3] + rng.standard_normal((3000, 3))
        kept = []
        measure = acquisition._Certificate.measure

        def counting(certificate, c, center, rows, dist_sq):
            kept.append(len(rows))
            return measure(certificate, c, center, rows, dist_sq)

        monkeypatch.setattr(acquisition._Certificate, "measure", counting)
        k = 32
        rows, _ = badge_seeding(matrix, k, seed=2)
        monkeypatch.undo()
        assert rows.tolist() == reference_badge_seeding(matrix, k, seed=2)[0].tolist()
        assert len(kept) == k - 1 and sum(kept) < len(matrix) * (k - 1) / 2


def draw_weights(rng, kind, n, u_seed):
    """Sampling weights with a positive total, shaped as the seeding loop can make them."""
    tiny = np.finfo(np.float64).smallest_subnormal
    if kind == "single":
        weights = np.zeros(n)
        weights[rng.integers(n)] = rng.random() + 0.5
    elif kind == "zeros":
        weights = rng.random(n) * (rng.random(n) < 0.2)
    elif kind == "skewed":
        weights = np.exp(rng.standard_normal(n) * 30.0)
    elif kind == "squared-1e-162":  # squared distances of a pool scaled by 1e-162: a few ulps of `tiny`
        weights = rng.integers(0, 6, size=n) * tiny
    elif kind == "subnormal":
        weights = rng.random(n) * 1e-310
    elif kind in ("at-the-draw", "at-a-block-edge"):  # the first draw of seed `u_seed` falls at the CDF step
        weights = rng.random(n) + 0.1  # before row `split`: mid-array, or the first row of a draw block
        u = np.random.default_rng(u_seed).random()
        split = n // 2 + 1 if kind == "at-the-draw" else n // 2 // acquisition._DRAW_BLOCK * acquisition._DRAW_BLOCK
        if n > 2:  # a step with rows on both sides
            weights[split:] *= weights[:split].sum() * (1.0 - u) / u / weights[split:].sum()
    elif kind == "blocks-tail":  # n is whole draw blocks plus 1 row, which holds about a third of the mass
        weights = rng.random(n)
        weights[-1] *= n / 2
    elif kind == "near-overflow":  # a sum overflows iff it was 2**e before the exact scaling by 2**(1024 - e)
        weights = rng.random(n) + 0.1
        e = int(np.ceil(np.log2(weights.sum())))
        weights[rng.integers(n)] += 2.0 ** e - weights.sum()  # the pairwise sum lands on 2**e or an ulp off
        with np.errstate(over="ignore"):  # one row is 2**e itself, and overflows
            weights = np.ldexp(weights, 1024 - e)
    else:
        weights = rng.random(n)
    with np.errstate(over="ignore"):
        if not weights.sum() > 0.0:
            weights[rng.integers(n)] = tiny
    return weights


class _ExactDraws:
    """numpy, as ``acquisition`` sees it, counting the ``np.divide`` only its exact draw makes."""

    def __init__(self):
        self.count = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def divide(self, *args, **kwargs):
        self.count += 1
        return np.divide(*args, **kwargs)


OVERFLOW_MESSAGE = "squared distances between embeddings overflow float64; scale the embeddings down"


class TestBadgeDraw:
    """Oracle for the seeding loop's draw: it restates ``Generator.choice``, so a numpy change fails here."""

    # "at-the-draw" puts a step of the CDF within rounding of the draw, where dropping the CDF's
    # scaling by its last entry changes the index and the certified draw must fall back to the exact one.
    # Each kind names the path of _draw it must reach: totals outside the certified window take the
    # exact draw only; "blocks-tail" spans several draw blocks and a 1-row tail; "at-a-block-edge" is
    # "at-the-draw" with the step before the first row of a draw block.
    @pytest.mark.parametrize("kind, path", [
        ("uniform", "certified"), ("single", "certified"), ("zeros", "certified"), ("skewed", "certified"),
        ("blocks-tail", "certified"), ("squared-1e-162", "exact"), ("subnormal", "exact"),
        ("near-overflow", "exact"), ("at-the-draw", "both"), ("at-a-block-edge", "both"),
    ])
    def test_draw_equals_generator_choice(self, kind, path, monkeypatch):
        exact = _ExactDraws()
        monkeypatch.setattr(acquisition, "np", exact)
        rng = np.random.default_rng(29)
        draws = overflows = block_sum_disagrees = 0
        for case in range(150):
            if kind == "blocks-tail":
                n = int(rng.integers(2, 10)) * acquisition._DRAW_BLOCK + 1
            elif kind == "at-a-block-edge":
                n = int(rng.integers(2 * acquisition._DRAW_BLOCK, 5001))
            else:
                n = [1, 2, 5000][case] if case < 3 else int(rng.integers(1, 5001))
            weights = draw_weights(rng, kind, n, u_seed=case)
            ours, theirs = np.random.default_rng(case), np.random.default_rng(case)
            with np.errstate(over="ignore"):
                total = weights.sum()
                block_total = np.cumsum(np.add.reduceat(weights, np.arange(0, n, acquisition._DRAW_BLOCK)))[-1]
                block_sum_disagrees += (total == np.inf) != (block_total == np.inf)
                if total == np.inf:  # the seeding loop's check: a ValueError before anything is drawn
                    with pytest.raises(ValueError) as raised:
                        acquisition._draw(ours, weights)
                    assert raised.value.args == (OVERFLOW_MESSAGE,)
                    assert ours.bit_generator.state == theirs.bit_generator.state
                    overflows += 1
                    continue
                for _ in range(3):
                    expected = theirs.choice(n, p=weights / total)
                    assert acquisition._draw(ours, weights) == expected
                    assert ours.bit_generator.state == theirs.bit_generator.state
                    draws += 1
        certified = draws - exact.count
        assert {"certified": certified > 0, "exact": certified == 0, "both": certified > 0 < exact.count}[path]
        if kind == "near-overflow":
            assert overflows > 0 < draws and block_sum_disagrees > 0

    def test_all_zero_weights_draw_nothing(self):
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        for n in (1, 2, 3 * acquisition._DRAW_BLOCK + 1):
            assert acquisition._draw(ours, np.zeros(n)) is None
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_a_stress_sized_seeding_falls_back_at_most_once(self, monkeypatch):
        # the stress pool's shape: 47,872 rows of 48 columns, 8 rows per patient, k = 128
        rng = np.random.default_rng(31)
        n = 47872
        centers = rng.standard_normal((40, 48)) * 3.0
        matrix = centers[rng.integers(40, size=n)] + rng.standard_normal((n, 48))
        groups = rng.permutation(np.arange(n) // 8)
        exact = _ExactDraws()
        monkeypatch.setattr(acquisition, "np", exact)
        rows, relaxed = badge_seeding(matrix, 128, seed=5, groups=groups)
        monkeypatch.undo()
        assert exact.count <= 1
        expected, expected_relaxed = reference_badge_seeding(matrix, 128, 5, groups)
        assert rows.tolist() == expected.tolist() and relaxed == expected_relaxed


class TestBadgeLargePool:
    """Parity with the unpruned loop past two distance blocks, where the hypothesis pools (n <= 40) do not reach."""

    @pytest.mark.parametrize("grouping, k, expected_relaxed", [
        ("none", 48, 0),
        ("patients", 48, None),
        ("three", 20, 17),  # 3 groups fill 3 slots; 17 are relaxed and blocked rows are eligible again
    ])
    def test_picks_equal_the_unpruned_loop(self, grouping, k, expected_relaxed):
        rng = np.random.default_rng(17)
        n = 2 * acquisition._BLOCK_ROWS + 300
        centers = rng.standard_normal((6, 12)) * 8.0
        matrix = centers[rng.integers(6, size=n)] + rng.standard_normal((n, 12))
        groups = {
            "none": None,
            "patients": rng.permutation(np.arange(n) // 8),
            "three": rng.integers(3, size=n),
        }[grouping]
        for seed in range(3):
            relaxed = _same_picks(matrix, k, seed, groups)
            if expected_relaxed is not None:
                assert relaxed == expected_relaxed


class _Generators:
    """``np.random.default_rng`` that keeps every generator it makes, so a seeding's final state can be compared."""

    def __init__(self):
        self.made = []
        self.default_rng = np.random.default_rng

    def __call__(self, seed):
        self.made.append(self.default_rng(seed))
        return self.made[-1]


def seeding_outcome(generators, seeding, embeddings, k, seed, groups):
    """Picks, relaxed count and the generator's final state of one seeding, or the ValueError it raised."""
    made = len(generators.made)
    try:
        rows, relaxed = seeding(embeddings, k, seed, groups)
    except ValueError as error:
        return "ValueError", str(error)
    return rows.tolist(), relaxed, [rng.bit_generator.state for rng in generators.made[made:]]


def assert_factors_seed_as_their_matrix(monkeypatch, left, right, k, seed, groups):
    """The factor pair, its einsum matrix and the unpruned loop over that matrix seed alike."""
    generators = _Generators()
    monkeypatch.setattr(np.random, "default_rng", generators)
    with np.errstate(over="ignore", under="ignore"):
        matrix = np.einsum("nc,nj->ncj", left, right).reshape(len(left), -1)
    ours = seeding_outcome(generators, badge_seeding, (left, right), k, seed, groups)
    assert ours == seeding_outcome(generators, badge_seeding, matrix, k, seed, groups)
    if ours[0] != "ValueError":  # the unpruned loop fails on overflow in its own way
        assert ours == seeding_outcome(generators, reference_badge_seeding, matrix, k, seed, groups)
    monkeypatch.undo()
    return ours


def pool_factors(rng, n, hidden_width, scale):
    """``gradient_factors`` of a random model on clustered features, right scaled, some rows confident and some repeated."""
    centers = rng.standard_normal((5, 4)) * 3.0
    features = centers[rng.integers(5, size=n)] + rng.standard_normal((n, 4))
    model = learner.init_model(learner.LearnerConfig(hidden_width=hidden_width), 4, 3, seed=int(rng.integers(100)))
    left, right = learner.gradient_factors(model, features)
    repeated = rng.integers(n, size=n // 4)
    left[repeated], right[repeated] = left[repeated[0]], right[repeated[0]]
    left[rng.random(n) < 0.1] = 0.0  # a confident prediction's residual
    return left, right * scale


@st.composite
def factor_seeding_inputs(draw):
    """Factor pairs of few distinct rows, zero rows on either side, at extreme scales, with or without groups."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, n))
    left = rng.standard_normal((distinct, draw(st.integers(1, 4))))
    right = rng.standard_normal((distinct, draw(st.integers(1, 6))))
    if draw(st.booleans()):  # small integers: ties between distances
        left, right = np.round(2 * left), np.round(2 * right)
    rows = rng.integers(distinct, size=n)
    left, right = left[rows], right[rows]
    left[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    right[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = -0.0
    scale = draw(st.sampled_from([1e-162, 1e-81, 1.0, 1e75, 1e150]))
    if draw(st.booleans()):
        left, right = left * math.sqrt(scale), right * math.sqrt(scale)
    else:
        right = right * scale
    num_groups = draw(st.integers(0, n))
    groups = rng.integers(num_groups, size=n) if num_groups else None
    return left, right, draw(st.integers(0, n)), draw(st.integers(0, 1000)), groups


def shift_ulps(values, ulps):
    """``values`` moved ``ulps`` representable steps up (or down, for negative ``ulps``)."""
    for _ in range(abs(ulps)):
        values = np.nextafter(values, np.inf if ulps > 0 else -np.inf)
    return values


class TestCertificate:
    """``_Certificate.measure`` against a full measurement, where rounding alone decides whether a row moves."""

    @staticmethod
    def measure(left, right, c, dist_sq):
        """``measure`` over every row, with the center the built row ``c``; every row that moves must be measured."""
        center = np.einsum("nc,nj->ncj", left[c:c + 1], right[c:c + 1]).ravel()
        diff = np.einsum("nc,nj->ncj", left, right).reshape(len(left), -1) - center
        with np.errstate(over="ignore", invalid="ignore"):
            full = np.einsum("ij,ij->i", diff, diff)
            measured, distances = acquisition._Certificate(left, right).measure(c, center, np.arange(len(left)),
                                                                                dist_sq(full))
        assert distances.tobytes() == full[measured].tobytes()
        assert set(np.flatnonzero(full < dist_sq(full))) <= set(measured.tolist())
        return measured, full < dist_sq(full)

    @pytest.mark.parametrize("scale", [1e-162, 1e-81, 1.0, 1e75, 1e150])
    @pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2, 64])
    def test_rows_a_few_ulps_from_their_distance(self, scale, ulps):
        # a third of the rows lie close to the center, where the rank-1 estimate cancels: its rounding is
        # many ulps of the distance, so only the margin keeps such a row from being skipped when it moves
        rng = np.random.default_rng(43)
        n = 2 * acquisition._BLOCK_ROWS + 300
        left, right = rng.standard_normal((n, 3)), rng.standard_normal((n, 16))
        close = rng.random(n) < 1 / 3
        left[close] = left[0] + rng.standard_normal((close.sum(), 3)) * 1e-5
        right[close] = right[0] + rng.standard_normal((close.sum(), 16)) * 1e-5
        _, moves = self.measure(left, right * scale, 0, lambda full: shift_ulps(full, ulps))
        assert moves.all() if ulps > 0 else not moves.any()

    def test_rows_whose_norms_sum_past_overflow_are_measured(self):
        # |a|**2 + |c|**2 overflows while 2 a . c and |a - c|**2 are finite: the estimate would read inf
        left = np.array([[1.0, 0.0], [0.8, 0.6], [0.6, 0.8]]) * 1e154
        for right in (np.ones((3, 1)), np.full((3, 2), 0.5 ** 0.5)):
            measured, moves = self.measure(left, right, 1, lambda full: np.where(np.isfinite(full), np.inf, 0.0))
            assert moves.all() and measured.tolist() == [0, 1, 2]


class TestBadgeFactors:
    """Seeding from the two factors of the gradient embedding equals seeding its matrix, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(factor_seeding_inputs())
    def test_small_pools_equal_the_matrix_and_the_unpruned_loop(self, case):
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_factors_seed_as_their_matrix(monkeypatch, *case)

    @pytest.mark.parametrize("scale", [1e-162, 1.0, 1e150])
    @pytest.mark.parametrize("hidden_width", [8, 0], ids=["hidden", "linear"])
    @pytest.mark.parametrize("grouping", ["none", "patients", "three"])
    def test_model_factors_equal_the_matrix_and_the_unpruned_loop(self, monkeypatch, scale, hidden_width, grouping):
        # past two blocks; with the linear model the right factor is the features
        rng = np.random.default_rng(37)
        n = 2 * acquisition._BLOCK_ROWS + 300
        left, right = pool_factors(rng, n, hidden_width, scale)
        groups = {"none": None, "patients": rng.permutation(np.arange(n) // 8), "three": rng.integers(3, size=n)}
        for seed in range(2):
            outcome = assert_factors_seed_as_their_matrix(monkeypatch, left, right, 24, seed, groups[grouping])
            assert outcome[0] != "ValueError"

    def test_gradient_embedding_is_the_einsum_of_gradient_factors(self):
        rng = np.random.default_rng(41)
        features = rng.standard_normal((300, 4)) * 3.0
        for hidden_width in (0, 8):
            model = learner.init_model(learner.LearnerConfig(hidden_width=hidden_width), 4, 3, seed=2)
            left, right = learner.gradient_factors(model, features)
            matrix = gradient_embedding(model, features)
            assert matrix.tobytes() == np.einsum("nc,nj->ncj", left, right).reshape(300, -1).tobytes()
            one_left, one_right = learner.gradient_factors(model, features[7])  # a one-row forward pass
            assert one_left.shape == (3,) and one_right.shape == (hidden_width or 4,)
            assert gradient_embedding(model, features[7]).tobytes() == np.outer(one_left, one_right).ravel().tobytes()

    def test_the_certificate_skips_only_rows_that_do_not_move(self, monkeypatch):
        # the stress pool's shape (48k rows, 3 classes x width 16, 8 rows per patient), k = 128
        split = generate_synthetic(replace(PRESETS["large-uniform"], num_patients=7500), 3)
        pool = split.pool
        model = learner.init_model(learner.LearnerConfig(hidden_width=16), pool.feature_dim, 3, seed=1)
        left, right = learner.gradient_factors(model, pool.features)
        kept_by_elkan = built = 0
        measure = acquisition._Certificate.measure

        def checked(certificate, c, center, rows, dist_sq):
            nonlocal kept_by_elkan, built
            diff = np.einsum("nc,nj->ncj", left[rows], right[rows]).reshape(len(rows), -1) - center
            full = np.einsum("ij,ij->i", diff, diff)
            measured, distances = measure(certificate, c, center, rows, dist_sq)
            assert set(rows[full < dist_sq[rows]]) <= set(measured.tolist())
            assert distances.tobytes() == full[np.searchsorted(rows, measured)].tobytes()
            kept_by_elkan += len(rows)
            built += len(measured)
            return measured, distances

        monkeypatch.setattr(acquisition._Certificate, "measure", checked)
        rows, relaxed = badge_seeding((left, right), 128, seed=5, groups=pool.patient_codes)
        monkeypatch.undo()
        assert built < kept_by_elkan / 2  # measured: about a quarter
        matrix = np.einsum("nc,nj->ncj", left, right).reshape(len(left), -1)
        assert (rows.tolist(), relaxed) == tuple(x.tolist() if hasattr(x, "tolist") else x
                                                 for x in badge_seeding(matrix, 128, 5, pool.patient_codes))

    @pytest.mark.parametrize("strategy", ["badge", "decal_badge"])
    def test_a_stress_sized_selection_never_holds_the_embedding_matrix(self, strategy):
        # the stress pool with a width-128 model: the n x (3 * 128) matrix would take 147 MB
        split = generate_synthetic(replace(PRESETS["large-uniform"], num_patients=7500), 3)
        pool = split.pool
        model = learner.init_model(learner.LearnerConfig(hidden_width=128), pool.feature_dim, 3, seed=1)
        matrix_bytes = len(pool) * 3 * 128 * 8
        _, peak = traced_peak(select_query_batch, strategy, model, pool, np.arange(len(pool)), 128, 5)
        assert peak < matrix_bytes / 2  # measured: 0.43 of it


class TestBadgeSeedingShapes:
    @pytest.mark.parametrize("matrix", [np.ones(5), np.ones((2, 3, 4))], ids=["1-D", "3-D"])
    def test_matrix_must_be_2d(self, matrix):
        with pytest.raises(ValueError, match=re.escape(f"shape {matrix.shape}")):
            badge_seeding(matrix, 1, seed=0)

    @pytest.mark.parametrize("groups", [np.arange(4), np.arange(6), np.zeros((5, 1), dtype=int)],
                             ids=["short", "long", "2-D"])
    def test_groups_need_one_entry_per_row(self, groups):
        message = f"shape {groups.shape} for embeddings of shape (5, 3)"
        for k in (0, 3):
            with pytest.raises(ValueError, match=re.escape(message)):
                badge_seeding(np.arange(15.0).reshape(5, 3), k, seed=0, groups=groups)


    @pytest.mark.parametrize("left, right", [
        (np.ones((5, 3)), np.ones((4, 2))), (np.ones(5), np.ones((5, 2))), (np.ones((5, 3)), np.ones((5, 2, 1))),
    ], ids=["rows", "1-D", "3-D"])
    def test_factors_must_be_2d_with_one_row_per_candidate(self, left, right):
        with pytest.raises(ValueError, match=re.escape(f"got shapes {left.shape} and {right.shape}")):
            badge_seeding((left, right), 1, seed=0)

    @pytest.mark.parametrize("factors", [(np.ones((5, 3)),), (np.ones((5, 3)), np.ones((5, 2)), np.ones((5, 1)))],
                             ids=["1-tuple", "3-tuple"])
    def test_factors_are_a_pair(self, factors):
        shapes = " and ".join(str(factor.shape) for factor in factors)
        with pytest.raises(ValueError, match=re.escape(f"got shapes {shapes}")):
            badge_seeding(factors, 1, seed=0)

    def test_nested_lists_seed_as_their_arrays(self):
        rng = np.random.default_rng(5)
        left, right = rng.standard_normal((40, 3)), rng.standard_normal((40, 4))
        matrix, whole = rng.standard_normal((40, 12)), rng.integers(-3, 4, size=(40, 5))
        groups = rng.integers(10, size=40)
        for embeddings, listed in [(matrix, matrix.tolist()), (whole.astype(float), whole.tolist()),
                                   ((left, right), (left.tolist(), right)), ((left, right), (left, right.tolist()))]:
            rows, relaxed = badge_seeding(embeddings, 12, 3, groups)
            listed_rows, listed_relaxed = badge_seeding(listed, 12, 3, groups.tolist())
            assert (listed_rows.tolist(), listed_relaxed) == (rows.tolist(), relaxed)

    @pytest.mark.parametrize("bad", ["inf-times-zero", "nan", "overflowing-product"])
    def test_factors_whose_rows_are_not_finite_are_refused(self, bad):
        left, right = np.ones((5, 3)), np.ones((5, 2))
        if bad == "inf-times-zero":  # the row holds NaN where inf meets 0
            left[2, 1], right[2] = np.inf, 0.0
        elif bad == "nan":
            right[4, 0] = np.nan
        else:  # finite factors, but their product overflows
            left[1], right[1] = 1e200, 1e200
        for k in (0, 2):
            with pytest.raises(ValueError, match="embeddings must be finite"):
                badge_seeding((left, right), k, seed=0)


class TestMakeRanking:
    """Candidate ranking as every round runs it, through select_query_batch."""

    def test_entropy_composition(self):
        # posteriors: uniform, (0.5, 0.3, 0.2), near-one-hot
        model = linear_model(np.eye(3), np.zeros(3))
        pool = make_sampleset([
            (100, "A", [0.0, 0.0, 0.0], 0),
            (200, "B", np.log([0.5, 0.3, 0.2]), 0),
            (300, "C", [50.0, 0.0, 0.0], 0),
        ])
        batch = select_query_batch("entropy", model, pool, [0, 1, 2], 3, seed=0)
        assert batch_ids(pool, batch) == [100, 200, 300]

    def test_score_strategies_return_full_ranking(self):
        model = linear_model(np.eye(3), np.zeros(3))
        rng = np.random.default_rng(0)
        pool = make_sampleset([(i, f"p{i}", rng.standard_normal(3), 0) for i in (1, 2, 3, 4)])
        for strategy in ("entropy", "margin", "least_confidence"):
            batch = select_query_batch(strategy, model, pool, [0, 1, 2, 3], 4, seed=0)
            assert sorted(batch_ids(pool, batch)) == [1, 2, 3, 4]

    def test_random_permutation(self):
        model = linear_model(np.eye(2), np.zeros(2))
        pool = make_sampleset([(i, f"p{i}", [0.0, 0.0], 0) for i in (4, 5, 6)])
        batch = select_query_batch("random", model, pool, [0, 1, 2], 3, seed=2)
        assert sorted(batch_ids(pool, batch)) == [4, 5, 6]

    def test_badge_k1_is_max_norm_sample(self):
        model = linear_model(np.eye(3), np.zeros(3))
        # the uniform-posterior sample has the largest residual; scale features
        # so penultimate norms dominate
        features = np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]])
        pool = make_sampleset([(1, "A", features[0], 0), (2, "B", features[1], 0)])
        norms = np.linalg.norm(gradient_embedding(model, features), axis=1)
        expected = int(pool.ids[np.argmax(norms)])
        batch = select_query_batch("badge", model, pool, [0, 1], 1, seed=0)
        assert batch_ids(pool, batch) == [expected]

    def test_unknown_strategy(self):
        model = linear_model(np.eye(2), np.zeros(2))
        pool = make_sampleset([(1, "A", [0.0, 0.0], 0)])
        with pytest.raises(ValueError):
            select_query_batch("coreset", model, pool, [0], 1, seed=0)
