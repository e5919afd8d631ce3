"""End-to-end behavior on a synthetic benchmark with systematic cognate rules.

Positives follow a fixed transformation inventory and half the negatives
are near-miss corruptions, so surface closeness alone cannot separate
the classes; learning the transformation table has to help.
"""

import pytest

from cognatekit import ShinglerConfig
from cognatekit.evaluation import run_baseline_experiment, run_experiment

from conftest import make_hard_synthetic_pairs

TWO_END = ShinglerConfig((2,), "two_end")
SMALL_GRIDS = {
    "sim_weight": [0.0, 0.2, 0.6, 1.0],
    "power": [0.5, 1.0],
    "mu": [5.0, 10.0],
}


@pytest.fixture(scope="module")
def hard_pairs():
    return make_hard_synthetic_pairs(120, 120)


@pytest.fixture(scope="module")
def with_error_model(hard_pairs):
    return run_experiment(
        hard_pairs, TWO_END, "dirichlet", use_error_model=True, seed=42, grids=SMALL_GRIDS
    )


@pytest.fixture(scope="module")
def without_error_model(hard_pairs):
    return run_experiment(
        hard_pairs, TWO_END, "dirichlet", use_error_model=False, seed=42, grids=SMALL_GRIDS
    )


class TestErrorModelContribution:
    def test_lifts_classification_accuracy(self, with_error_model, without_error_model):
        assert with_error_model.accuracy > without_error_model.accuracy

    def test_lifts_retrieval_mrr(self, with_error_model, without_error_model):
        assert with_error_model.mrr > without_error_model.mrr

    def test_beats_string_baselines_on_hard_negatives(self, hard_pairs, with_error_model):
        for method in ("edit_distance", "normalized_edit_similarity", "lcsr", "xdice"):
            baseline = run_baseline_experiment(hard_pairs, method, seed=42)
            assert with_error_model.accuracy > baseline.accuracy

    def test_ranking_weight_tuned_away_from_classification_weight(self, with_error_model):
        # pure transformation scoring cannot discriminate among candidates
        # sharing the same transformation, so ranking keeps similarity in
        assert with_error_model.hyperparameters["ranking"]["sim_weight"] > 0.0


class TestReportShape:
    def test_ranks_cover_positive_test_pairs(self, hard_pairs, with_error_model):
        positives = sum(
            1 for p in with_error_model.per_query_ranks if p >= 1
        )
        assert positives == len(with_error_model.per_query_ranks) > 0
