import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decal.acquisition import score_rows, select_top_k
from decal.data import ImageCountSpec, SyntheticConfig, generate_synthetic
from decal.learner import LearnerConfig, init_model, predict_proba
from decal.patients import (
    STRATEGIES,
    constrain_unique_patients,
    decal_initialize,
    random_initialize,
    select_query_batch,
)
from helpers import make_sampleset


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
    """One row per entry of ``patients``, with random features."""
    rng = np.random.default_rng(seed)
    return make_sampleset([(i, p, rng.standard_normal(dim), i % 2) for i, p in enumerate(patients)])


BADGE_MODEL = init_model(LearnerConfig(hidden_width=4), 3, 2, seed=0)


class TestSelectBadgeUniquePatients:
    """decal_badge: BADGE seeding with already-selected patients masked out."""

    def test_one_pick_per_patient(self):
        pool = badge_pool(["A"] * 10 + ["B"] * 10)
        for seed in range(10):
            batch = select_query_batch("decal_badge", BADGE_MODEL, pool, np.arange(20), 2, seed=seed)
            assert set(pool.patients_for(batch.members)) == {"A", "B"}
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
    rows = []
    sid = 0
    for p in range(n_patients):
        for _ in range(images_per_patient):
            rows.append((sid, f"p{p:04d}", [float(sid)] * dim, p % 2))
            sid += 1
    return make_sampleset(rows)


class TestInitialization:
    def test_decal_1000_unique_patients(self):
        pool = patient_pool(1005, 2)
        batch = decal_initialize(pool, 1000, seed=0)
        patients = set(pool.patients_for(batch.members))
        assert len(batch.members) == 1000
        assert len(patients) == 1000
        assert batch.relaxed_count == 0

    def test_decal_128_unique_patients(self):
        pool = patient_pool(200, 3)
        batch = decal_initialize(pool, 128, seed=1)
        assert len(set(pool.patients_for(batch.members))) == 128

    def test_decal_exact_patient_count(self):
        pool = patient_pool(3, 4)
        batch = decal_initialize(pool, 3, seed=2)
        assert len(set(pool.patients_for(batch.members))) == 3

    def test_decal_relaxes_beyond_patient_count(self):
        pool = patient_pool(4, 5)
        batch = decal_initialize(pool, 10, seed=3)
        assert len(batch.members) == 10
        assert len(set(batch.members)) == 10
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

    def test_random_whole_pool(self):
        pool = patient_pool(5, 2)
        batch = random_initialize(pool, 10, seed=0)
        assert sorted(batch.members) == sorted(int(i) for i in pool.ids)

    def test_random_deterministic(self):
        pool = patient_pool(40, 2)
        assert random_initialize(pool, 20, seed=4) == random_initialize(pool, 20, seed=4)

    def test_random_too_large(self):
        pool = patient_pool(4, 2)
        with pytest.raises(ValueError):
            random_initialize(pool, 9, seed=0)


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
        assert set(batch.members) <= set(split.pool.ids.tolist())
        if strategy.startswith("decal_"):
            assert batch.relaxed_count == 0
            assert len(set(split.pool.patients_for(batch.members))) == k
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
        assert got == expected

    def test_unconstrained_score_strategy_is_topk_prefix(self, setup):
        split, model = setup
        ids = split.pool.ids.tolist()
        scores = score_rows("margin", predict_proba(model, split.pool.features))
        ranking = select_top_k(dict(zip(ids, scores)), 12)
        got = select_query_batch("margin", model, split.pool, np.arange(len(ids)), 12, seed=0)
        assert list(got.members) == ranking

    def test_unknown_strategy_rejected(self, setup):
        split, model = setup
        with pytest.raises(ValueError):
            select_query_batch("decal_coreset", model, split.pool, [0], 1, seed=0)
