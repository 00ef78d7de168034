import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decal.acquisition import score_rows, select_top_k
from decal.data import ImageCountSpec, SampleSet, SyntheticConfig, generate_synthetic
from decal.learner import LearnerConfig, init_model, predict_proba
from decal.patients import (
    STRATEGIES,
    QueryBatch,
    _unique_patient_prefix,
    constrain_unique_patients,
    decal_initialize,
    select_query_batch,
)
from helpers import batch_ids, linear_model, make_sampleset


def best_per_patient_oracle(ranking, patient_of, k):
    """Keep each patient's best-ranked sample, then take the top k of those."""
    best = []
    seen = set()
    for sid in ranking:
        if patient_of[sid] not in seen:
            seen.add(patient_of[sid])
            best.append(sid)
    return best[:k]


class TestConstrainUniquePatients:
    def test_duplicate_patient_skipped(self):
        patient_of = {1: "A", 2: "A", 3: "B"}
        batch = constrain_unique_patients([1, 2, 3], patient_of, 2)
        assert batch.members == (1, 3)
        assert batch.relaxed_count == 0

    def test_all_distinct_takes_prefix(self):
        patient_of = {i: f"p{i}" for i in range(5)}
        batch = constrain_unique_patients([4, 2, 0, 1, 3], patient_of, 3)
        assert batch.members == (4, 2, 0)
        assert batch.relaxed_count == 0

    def test_fallback_fills_with_best_skipped(self):
        patient_of = {1: "A", 2: "A", 3: "B", 4: "B"}
        batch = constrain_unique_patients([1, 2, 3, 4], patient_of, 3)
        assert batch.members == (1, 3, 2)
        assert batch.relaxed_count == 1

    def test_128_unique_patients(self):
        # batch size and per-round unique-patient count used by the method
        patient_of = {i: f"p{i % 150}" for i in range(300)}
        ranking = list(range(300))
        batch = constrain_unique_patients(ranking, patient_of, 128)
        patients = {patient_of[s] for s in batch.members}
        assert len(batch.members) == 128
        assert len(patients) == 128
        assert batch.relaxed_count == 0

    def test_k_larger_than_ranking_rejected(self):
        with pytest.raises(ValueError):
            constrain_unique_patients([1, 2], {1: "A", 2: "B"}, 3)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            constrain_unique_patients([1, 1], {1: "A"}, 1)

    @given(st.data())
    @settings(max_examples=200)
    def test_matches_best_per_patient_oracle(self, data):
        n = data.draw(st.integers(1, 40))
        n_patients = data.draw(st.integers(1, 12))
        patient_of = {
            i: f"p{data.draw(st.integers(0, n_patients - 1))}" for i in range(n)
        }
        ranking = data.draw(st.permutations(list(range(n))))
        distinct = len({patient_of[s] for s in ranking})
        k = data.draw(st.integers(1, max(1, distinct)))
        batch = constrain_unique_patients(ranking, patient_of, k)
        assert list(batch.members) == best_per_patient_oracle(ranking, patient_of, k)
        assert batch.relaxed_count == 0

    @given(st.data())
    @settings(max_examples=200)
    def test_conservation_and_uniqueness(self, data):
        n = data.draw(st.integers(1, 40))
        patient_of = {i: f"p{data.draw(st.integers(0, 5))}" for i in range(n)}
        ranking = data.draw(st.permutations(list(range(n))))
        k = data.draw(st.integers(1, n))
        batch = constrain_unique_patients(ranking, patient_of, k)
        assert len(batch.members) == k
        assert len(set(batch.members)) == k
        assert set(batch.members) <= set(ranking)
        if batch.relaxed_count == 0:
            assert len({patient_of[s] for s in batch.members}) == k


def badge_pool(patients, dim=3, seed=0):
    """One row per entry of ``patients``, with random features; sample ids are not row numbers."""
    rng = np.random.default_rng(seed)
    return make_sampleset([(1000 + i, p, rng.standard_normal(dim), i % 2) for i, p in enumerate(patients)])


def batch_patients(pool, batch):
    return pool.patients_for(batch_ids(pool, batch))


BADGE_MODEL = init_model(LearnerConfig(hidden_width=4), 3, 2, seed=0)


class TestSelectBadgeUniquePatients:
    """decal_badge: BADGE seeding with already-selected patients masked out."""

    def test_one_pick_per_patient(self):
        pool = badge_pool(["A"] * 10 + ["B"] * 10)
        for seed in range(10):
            batch = select_query_batch("decal_badge", BADGE_MODEL, pool, np.arange(20), 2, seed=seed)
            assert set(batch_patients(pool, batch)) == {"A", "B"}
            assert batch.relaxed_count == 0

    def test_single_patient_relaxes(self):
        pool = badge_pool(["only"] * 6, seed=1)
        batch = select_query_batch("decal_badge", BADGE_MODEL, pool, np.arange(6), 2, seed=0)
        assert len(batch.members) == 2
        assert batch.relaxed_count == 1

    def test_all_distinct_patients_equals_unconstrained(self):
        pool = badge_pool([f"p{i}" for i in range(30)], seed=2)
        rows = np.arange(30)
        for seed in range(10):
            constrained = select_query_batch("decal_badge", BADGE_MODEL, pool, rows, 8, seed=seed)
            plain = select_query_batch("badge", BADGE_MODEL, pool, rows, 8, seed=seed)
            assert constrained.members == plain.members
            assert constrained.relaxed_count == 0

    def test_deterministic(self):
        pool = badge_pool([f"p{i % 7}" for i in range(25)], seed=3)
        a = select_query_batch("decal_badge", BADGE_MODEL, pool, np.arange(25), 7, seed=5)
        b = select_query_batch("decal_badge", BADGE_MODEL, pool, np.arange(25), 7, seed=5)
        assert a == b


def patient_pool(n_patients, images_per_patient, dim=2):
    """Sample ids 1000 upwards, so a row number is never mistaken for an id."""
    rows = []
    sid = 0
    for p in range(n_patients):
        for _ in range(images_per_patient):
            rows.append((1000 + sid, f"p{p:04d}", [float(sid)] * dim, p % 2))
            sid += 1
    return make_sampleset(rows)


def reference_decal_initialize(pool, n, seed):
    """decal init as one scalar ``rng.integers`` call per chosen patient, in a Python loop: the oracle."""
    codes = pool.patient_codes
    by_patient = np.argsort(codes, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(codes))))
    n_patients = len(starts) - 1

    rng = np.random.default_rng(seed)
    drawn = min(n, n_patients)
    rows = []
    for code in rng.choice(n_patients, size=drawn, replace=False):
        first, count = int(starts[code]), int(starts[code + 1] - starts[code])
        rows.append(int(by_patient[first + int(rng.integers(count))]))

    relaxed = n - drawn
    if relaxed:
        rest = np.setdiff1d(np.arange(len(pool)), rows)
        rows.extend(rest[rng.choice(len(rest), size=relaxed, replace=False)].tolist())
    return QueryBatch(members=tuple(rows), relaxed_count=relaxed)


class TestInitialization:
    def test_decal_1000_unique_patients(self):
        pool = patient_pool(1005, 2)
        batch = decal_initialize(pool, 1000, seed=0)
        patients = set(batch_patients(pool, batch))
        assert len(batch.members) == 1000
        assert len(patients) == 1000
        assert batch.relaxed_count == 0

    def test_decal_128_unique_patients(self):
        pool = patient_pool(200, 3)
        batch = decal_initialize(pool, 128, seed=1)
        assert len(set(batch_patients(pool, batch))) == 128

    def test_decal_exact_patient_count(self):
        pool = patient_pool(3, 4)
        batch = decal_initialize(pool, 3, seed=2)
        assert len(set(batch_patients(pool, batch))) == 3

    def test_decal_relaxes_beyond_patient_count(self):
        pool = patient_pool(4, 5)
        batch = decal_initialize(pool, 10, seed=3)
        assert len(batch.members) == 10
        assert len(set(batch.members)) == 10
        assert set(batch.members) <= set(range(len(pool)))
        assert batch.relaxed_count == 6

    def test_decal_bounds(self):
        pool = patient_pool(3, 2)
        with pytest.raises(ValueError):
            decal_initialize(pool, 7, seed=0)
        with pytest.raises(ValueError):
            decal_initialize(pool, 0, seed=0)

    def test_decal_deterministic(self):
        pool = patient_pool(50, 3)
        assert decal_initialize(pool, 30, seed=9) == decal_initialize(pool, 30, seed=9)
        assert decal_initialize(pool, 30, seed=9) != decal_initialize(pool, 30, seed=10)

    def test_matches_the_per_patient_loop(self):
        """The array draws give the batch, row for row, that one scalar draw per patient gave."""
        rng = np.random.default_rng(2027)
        relaxed = 0
        for case in range(500):
            n_patients = int(rng.integers(1, 40))
            codes = np.repeat(np.arange(n_patients), rng.integers(1, 7, size=n_patients))
            rng.shuffle(codes)  # a patient's rows are not contiguous
            size = len(codes)
            ids = 1000 + 3 * rng.permutation(size)  # sample ids are never row numbers
            pool = SampleSet(ids, (codes, [f"p{c:03d}" for c in range(n_patients)]),
                             np.zeros((size, 1)), np.zeros(size, dtype=np.int64))
            relax = case % 2 and size > n_patients  # every other pool asks for more images than it has patients
            n = int(rng.integers(n_patients + 1, size + 1) if relax else rng.integers(1, n_patients + 1))
            batch = decal_initialize(pool, n, seed=case)
            assert batch == reference_decal_initialize(pool, n, seed=case)
            relaxed += batch.relaxed_count > 0
        assert relaxed >= 100

    # random init is the "random" strategy over every pool row
    @staticmethod
    def random_init(pool, n, seed):
        return select_query_batch("random", None, pool, np.arange(len(pool)), n, seed)

    def test_random_whole_pool(self):
        pool = patient_pool(5, 2)
        batch = self.random_init(pool, 10, seed=0)
        assert sorted(batch_ids(pool, batch)) == sorted(int(i) for i in pool.ids)
        assert batch.relaxed_count == 0

    def test_random_deterministic(self):
        pool = patient_pool(40, 2)
        batch = self.random_init(pool, 20, seed=4)
        assert batch == self.random_init(pool, 20, seed=4)
        # the first n rows of one seeded permutation of the whole pool
        rows = np.random.default_rng(4).permutation(len(pool))[:20]
        assert list(batch.members) == rows.tolist()

    def test_random_too_large(self):
        pool = patient_pool(4, 2)
        with pytest.raises(ValueError):
            self.random_init(pool, 9, seed=0)


@pytest.fixture(scope="module")
def setup():
    cfg = SyntheticConfig(
        num_classes=3,
        num_patients=40,
        images_per_patient=ImageCountSpec(kind="uniform", low=2, high=4),
        feature_dim=4,
        class_separation=3.0,
        patient_offset_scale=1.0,
        test_fraction_of_patients=0.2,
        noise_scale=0.3,
    )
    split = generate_synthetic(cfg, seed=17)
    model = init_model(LearnerConfig(hidden_width=8), 4, 3, seed=2)
    return split, model


class TestSelectQueryBatch:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_contracts_for_every_strategy(self, setup, strategy):
        split, model = setup
        candidates = np.arange(len(split.pool))
        k = 12
        batch = select_query_batch(strategy, model, split.pool, candidates, k, seed=3)
        assert len(batch.members) == k
        assert len(set(batch.members)) == k
        assert set(batch.members) <= set(candidates.tolist())
        if strategy.startswith("decal_"):
            assert batch.relaxed_count == 0
            assert len(set(batch_patients(split.pool, batch))) == k
        # determinism
        again = select_query_batch(strategy, model, split.pool, candidates, k, seed=3)
        assert again == batch

    def test_decal_score_strategy_matches_constrained_full_ranking(self, setup):
        split, model = setup
        ids = split.pool.ids.tolist()
        scores = score_rows("entropy", predict_proba(model, split.pool.features))
        ranking = select_top_k(dict(zip(ids, scores)), len(ids))
        patient_of = dict(zip(ids, split.pool.patients))
        expected = constrain_unique_patients(ranking, patient_of, 12)
        got = select_query_batch("decal_entropy", model, split.pool, np.arange(len(ids)), 12, seed=0)
        assert QueryBatch(tuple(batch_ids(split.pool, got)), got.relaxed_count) == expected

    def test_unconstrained_score_strategy_is_topk_prefix(self, setup):
        split, model = setup
        ids = split.pool.ids.tolist()
        scores = score_rows("margin", predict_proba(model, split.pool.features))
        ranking = select_top_k(dict(zip(ids, scores)), 12)
        got = select_query_batch("margin", model, split.pool, np.arange(len(ids)), 12, seed=0)
        assert batch_ids(split.pool, got) == ranking

    def test_unknown_strategy_rejected(self, setup):
        split, model = setup
        with pytest.raises(ValueError):
            select_query_batch("decal_coreset", model, split.pool, [0], 1, seed=0)

    @pytest.mark.parametrize("strategy", ["decal_margin", "badge", "random"])
    def test_candidate_order_does_not_matter(self, setup, strategy):
        split, model = setup
        candidates = np.arange(0, len(split.pool), 2)
        shuffled = np.random.default_rng(5).permutation(candidates)
        assert not np.array_equal(shuffled, candidates)
        assert (select_query_batch(strategy, model, split.pool, shuffled, 6, seed=1)
                == select_query_batch(strategy, model, split.pool, candidates, 6, seed=1))

    @pytest.mark.parametrize("candidates", [[3, 1, 3], [0, 0], [5, 2, 9, 2, 7]])
    def test_duplicate_candidates_rejected(self, setup, candidates):
        split, model = setup
        with pytest.raises(ValueError, match="^duplicate candidate rows$"):
            select_query_batch("entropy", model, split.pool, candidates, 1, seed=0)


RANKING_STRATEGIES = tuple(s for s in STRATEGIES if not s.endswith("badge"))


def reference_unique_patient_prefix(ranked_codes, k):
    """Each code's first position found through the sort inside np.unique."""
    _, first = np.unique(ranked_codes, return_index=True)
    kept = np.sort(first)[:k]
    skipped = np.ones(len(ranked_codes), dtype=bool)
    skipped[kept] = False
    fill = np.flatnonzero(skipped)[: k - len(kept)]
    return np.concatenate([kept, fill]), len(fill)


def reference_select_query_batch(strategy, model, pool, candidate_rows, k, seed):
    """A ranking strategy's batch from a full stable argsort of every candidate and np.unique."""
    constrained = strategy.startswith("decal_")
    base = strategy.removeprefix("decal_")
    rows = np.sort(np.asarray(candidate_rows, dtype=np.int64))
    if base == "random":
        order = np.random.default_rng(seed).permutation(len(rows))
    else:
        order = np.argsort(-score_rows(base, predict_proba(model, pool.features[rows])), kind="stable")
    if not constrained:
        return QueryBatch(tuple(rows[order[:k]].tolist()), 0)
    kept, relaxed = reference_unique_patient_prefix(pool.patient_codes[rows][order], k)
    return QueryBatch(tuple(rows[order[kept]].tolist()), relaxed)


# A 3-class linear model over 2 features: quantized features give few distinct posteriors,
# so scores tie in large groups.
TIE_MODEL = linear_model([[1.0, -0.5, 0.0], [0.0, 0.5, -1.0]], [0.0, 0.1, 0.0])


def tie_pool(levels, patients, ids):
    """One row per (feature levels, patient, id); features are the integer levels."""
    return make_sampleset([(i, f"p{p}", lv, 0) for lv, p, i in zip(levels, patients, ids)])


class TestDepthLimitedSelection:
    """Every ranking strategy's batch equals the one a full sort of the candidates gives."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_full_sort_oracle(self, data):
        n = data.draw(st.integers(1, 80))
        level = st.integers(-1, 1) if data.draw(st.booleans()) else st.just(0)  # st.just: one tie group
        levels = data.draw(st.lists(st.tuples(level, level), min_size=n, max_size=n))
        patients = data.draw(st.lists(st.integers(0, data.draw(st.integers(0, 12))), min_size=n, max_size=n))
        ids = data.draw(st.permutations(range(3 * n)))[:n]
        pool = tie_pool(levels, patients, ids)
        candidates = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        k = data.draw(st.sampled_from([1, len(candidates), data.draw(st.integers(1, len(candidates)))]))
        seed = data.draw(st.integers(0, 3))
        for strategy in RANKING_STRATEGIES:
            expected = reference_select_query_batch(strategy, TIE_MODEL, pool, candidates, k, seed)
            assert select_query_batch(strategy, TIE_MODEL, pool, candidates, k, seed) == expected, strategy

    @pytest.mark.parametrize("strategy", [s for s in RANKING_STRATEGIES if s.startswith("decal_")])
    @pytest.mark.parametrize("k", [1, 5, 37, 200])
    def test_few_patients_rank_down_to_a_patient_at_the_bottom(self, strategy, k):
        # 199 rows of two uncertain patients in 5 tie groups, then one confident patient that
        # ranks last: the head must grow to the full ranking to reach it, and the relaxed fill follows
        levels = [(i % 5 / 10, 0) for i in range(199)] + [(9, 0)]
        pool = tie_pool(levels, [i % 2 for i in range(199)] + [2], range(200))
        batch = select_query_batch(strategy, TIE_MODEL, pool, np.arange(200), k, seed=1)
        assert batch == reference_select_query_batch(strategy, TIE_MODEL, pool, np.arange(200), k, seed=1)
        if k >= 3 and strategy != "decal_random":
            assert 199 in batch.members
            assert batch.relaxed_count == k - 3

    def test_grows_past_a_head_of_one_patient(self):
        # the top 64 rows are one patient's; the next patient is 4 heads deeper
        levels = [(0, 0)] * 64 + [(1, 0)] * 200
        patients = [0] * 64 + list(range(1, 201))
        pool = tie_pool(levels, patients, range(264))
        for strategy in ("decal_entropy", "decal_margin", "decal_least_confidence"):
            batch = select_query_batch(strategy, TIE_MODEL, pool, np.arange(264), 16, seed=0)
            assert batch == reference_select_query_batch(strategy, TIE_MODEL, pool, np.arange(264), 16, seed=0)
            assert batch.relaxed_count == 0
            assert len(set(batch_patients(pool, batch))) == 16


class TestUniquePatientPrefix:
    @given(st.lists(st.integers(0, 40), max_size=60), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_np_unique(self, codes, data):
        codes = np.array(codes, dtype=np.int64)  # codes with gaps, as a candidate subset's are
        k = data.draw(st.integers(0, len(codes)))
        kept, relaxed = _unique_patient_prefix(codes, k)
        expected, expected_relaxed = reference_unique_patient_prefix(codes, k)
        np.testing.assert_array_equal(kept, expected)
        assert relaxed == expected_relaxed
