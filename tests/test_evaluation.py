"""Dataset handling, splits, tuning, and the experiment harness."""

import itertools
import json
import math
import random

import pytest

import cognatekit.evaluation as evaluation

from cognatekit import (
    AblationCell,
    BaselineSystem,
    ConfigError,
    DataError,
    LabeledPair,
    PipelineSystem,
    ShinglerConfig,
    TrainingError,
    ablation,
    build_index,
    eval_classification,
    eval_mrr,
    fit_pipeline,
    load_dataset,
    rank,
    run_baseline_experiment,
    run_experiment,
    shingle,
    split,
    train_error_model,
    tune,
)
from cognatekit.baselines import BASELINE_METHODS, baseline_similarity
from cognatekit.error_model import ErrorModel
from cognatekit.evaluation import (
    GRID_KEYS,
    _combo_accuracy,
    _combo_mrr,
    _fold_caches,
    _resolve_grids,
    dataset_lexicon,
    format_report_table,
    resolve_hyperparameters,
    stratified_folds,
)
from cognatekit.ranking import RANKING_FUNCTIONS, order_scored, target_rank
from cognatekit.scorer import _blend, _walked_rank

from conftest import make_hard_synthetic_pairs, make_synthetic_pairs, random_word

TWO_END = ShinglerConfig((2,), "two_end")


class RanksFromList:
    """A fake system's target rank: the target's position in its own ``rank`` list."""

    def target_rank(self, query, lexicon, target):
        return [word for word, _ in self.rank(query, lexicon)].index(target) + 1


class IdentitySystem(RanksFromList):
    """Perfect scorer for harness sanity checks."""

    def classify(self, source, target):
        return source == target

    def rank(self, query, lexicon, k=None):
        scored = sorted(
            ((w, 1.0 if w == query else 0.0) for w in lexicon),
            key=lambda item: (-item[1], item[0]),
        )
        return scored if k is None else scored[:k]


class TestLoadDataset:
    def test_parses_and_normalizes(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("Mesia\tMessia\t1\nnoche\tzzz\t0\n", encoding="utf-8")
        pairs = load_dataset(path, "xx-yy")
        assert pairs[0] == LabeledPair("mesia", "messia", True, "xx-yy")
        assert pairs[1].label is False

    def test_bad_column_count_reports_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t1\nbroken line\n", encoding="utf-8")
        with pytest.raises(DataError, match="2"):
            load_dataset(path)

    def test_bad_label_reports_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t2\n", encoding="utf-8")
        with pytest.raises(DataError, match="1"):
            load_dataset(path)

    def test_invalid_word_reports_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t1\nro1marin\tromarin\t1\n", encoding="utf-8")
        with pytest.raises(DataError, match="2"):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_dataset(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(b"\xef\xbb\xbfmesia\tmessia\t1\n")
        assert load_dataset(path) == [LabeledPair("mesia", "messia", True)]


class TestSplit:
    def test_three_to_one_sizes(self):
        pairs = make_synthetic_pairs(200, 200)
        train, test = split(pairs, seed=42)
        assert len(train) == 300
        assert len(test) == 100

    def test_stratified_proportions(self):
        pairs = make_synthetic_pairs(200, 200)
        train, test = split(pairs, seed=42)
        assert sum(p.label for p in test) == 50
        assert sum(p.label for p in train) == 150

    def test_minimal_dataset_keeps_both_labels_in_train(self):
        pairs = [
            LabeledPair("aa", "ab", True),
            LabeledPair("bb", "bc", True),
            LabeledPair("cc", "zz", False),
            LabeledPair("dd", "yy", False),
        ]
        train, test = split(pairs, seed=1)
        assert len(train) == 3 and len(test) == 1
        assert {p.label for p in train} == {True, False}

    def test_deterministic_per_seed(self):
        pairs = make_synthetic_pairs(50, 50)
        assert split(pairs, seed=9) == split(pairs, seed=9)

    def test_different_seeds_differ(self):
        pairs = make_synthetic_pairs(50, 50)
        assert split(pairs, seed=1) != split(pairs, seed=2)

    def test_no_overlap_and_no_loss(self):
        pairs = make_synthetic_pairs(50, 50)
        train, test = split(pairs, seed=3)
        assert len(train) + len(test) == len(pairs)
        assert set(p.identity for p in train).isdisjoint(p.identity for p in test)

    def test_membership_ignores_input_order(self):
        pairs = make_synthetic_pairs(50, 50)
        shuffled = list(pairs)
        random.Random(99).shuffle(shuffled)
        train_a, test_a = split(pairs, seed=5)
        train_b, test_b = split(shuffled, seed=5)
        assert sorted(p.identity for p in test_a) == sorted(p.identity for p in test_b)
        assert sorted(p.identity for p in train_a) == sorted(p.identity for p in train_b)

    def test_too_small_rejected(self):
        with pytest.raises(DataError):
            split([LabeledPair("a", "b", True)], seed=1)


class TestStratifiedFolds:
    def test_partition_covers_everything(self):
        pairs = make_synthetic_pairs(30, 30)
        folds = stratified_folds(pairs, 5, seed=4)
        assert sum(len(f) for f in folds) == len(pairs)
        assert len(folds) == 5

    def test_each_fold_has_both_labels(self):
        pairs = make_synthetic_pairs(30, 30)
        for fold in stratified_folds(pairs, 5, seed=4):
            labels = {p.label for p in fold}
            assert labels == {True, False}

    def test_deterministic(self):
        pairs = make_synthetic_pairs(30, 30)
        assert stratified_folds(pairs, 5, seed=4) == stratified_folds(pairs, 5, seed=4)


class TestEvalClassification:
    def test_perfect_system(self):
        pairs = [LabeledPair("aa", "aa", True), LabeledPair("bb", "cc", False)]
        assert eval_classification(IdentitySystem(), pairs) == 1.0

    def test_counts_mistakes(self):
        pairs = [LabeledPair("aa", "aa", False), LabeledPair("bb", "cc", False)]
        assert eval_classification(IdentitySystem(), pairs) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            eval_classification(IdentitySystem(), [])


class TestEvalMrr:
    def test_perfect_ranker(self):
        pairs = [LabeledPair("aa", "aa", True), LabeledPair("bb", "bb", True)]
        mrr, ranks = eval_mrr(IdentitySystem(), pairs, ["aa", "bb", "cc"])
        assert mrr == 1.0
        assert ranks == [1, 1]

    def test_mean_of_reciprocals(self):
        class FixedRanks(RanksFromList):
            def rank(self, query, lexicon, k=None):
                order = {"aa": ["aa", "bb"], "bb": ["aa", "bb"]}[query]
                return [(w, 1.0 - i) for i, w in enumerate(order)]

        pairs = [LabeledPair("aa", "aa", True), LabeledPair("bb", "bb", True)]
        mrr, ranks = eval_mrr(FixedRanks(), pairs, ["aa", "bb"])
        assert ranks == [1, 2]
        assert mrr == pytest.approx(0.75)

    def test_non_cognates_are_ignored(self):
        pairs = [
            LabeledPair("aa", "aa", True),
            LabeledPair("qq", "zz", False),
        ]
        mrr, ranks = eval_mrr(IdentitySystem(), pairs, ["aa", "zz"])
        assert ranks == [1]

    def test_missing_target_names_the_word(self):
        pairs = [LabeledPair("aa", "missing", True)]
        with pytest.raises(DataError, match="missing"):
            eval_mrr(IdentitySystem(), pairs, ["aa", "bb"])

    def test_sum_is_left_to_right(self):
        # many distinct reciprocals: a compensated sum() would round differently
        lexicon = [chr(97 + i // 26) + chr(97 + i % 26) for i in range(300)]
        rng = random.Random(11)
        wanted = {}

        class PlacesTarget(RanksFromList):
            def rank(self, query, words, k=None):
                order = [w for w in words if w != query]
                order.insert(wanted[query] - 1, query)
                return [(w, -float(i)) for i, w in enumerate(order)]

        pairs = []
        for word in lexicon[:200]:
            wanted[word] = rng.randint(1, len(lexicon))
            pairs.append(LabeledPair(word, word, True))
        mrr, ranks = eval_mrr(PlacesTarget(), pairs, lexicon)
        assert ranks == [wanted[p.source] for p in pairs]
        total = 0.0
        for r in ranks:
            total += 1.0 / r
        assert mrr == total / len(ranks)

    def test_exact_lexicon_with_identity_scorer(self):
        pairs = [LabeledPair(w, w, True) for w in ("aa", "bb", "cc")]
        mrr, _ = eval_mrr(IdentitySystem(), pairs, ["aa", "bb", "cc"])
        assert mrr == 1.0


class TestTune:
    def test_singleton_grids_pass_through(self, synthetic_pairs):
        grids = {key: [value] for key, value in
                 (("sim_weight", 0.4), ("power", 2.0), ("alpha", 1.0),
                  ("mu", 5.0), ("k1", 1.2), ("b", 0.75))}
        resolved = tune(synthetic_pairs, TWO_END, "dirichlet", grids=grids, seed=42)
        assert resolved["sim_weight"] == 0.4
        assert resolved["power"] == 2.0
        assert resolved["mu"] == 5.0

    def test_deterministic_selection(self, synthetic_pairs):
        a = tune(synthetic_pairs, TWO_END, "dirichlet", seed=42)
        b = tune(synthetic_pairs, TWO_END, "dirichlet", seed=42)
        assert a == b

    def test_unknown_grid_key_rejected(self, synthetic_pairs):
        with pytest.raises(ConfigError):
            tune(synthetic_pairs, TWO_END, "dirichlet", grids={"gamma": [1]})

    def test_empty_grid_rejected(self, synthetic_pairs):
        with pytest.raises(ConfigError):
            tune(synthetic_pairs, TWO_END, "dirichlet", grids={"mu": []})

    @pytest.mark.parametrize("folds", [1, 0, -3])
    def test_fewer_than_two_folds_rejected(self, synthetic_pairs, folds):
        # one fold would validate on its own training pairs
        with pytest.raises(ConfigError, match="at least 2 folds"):
            tune(synthetic_pairs, TWO_END, "dirichlet", folds=folds)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_pairs_rejected(self, synthetic_pairs, n):
        with pytest.raises(TrainingError, match="at least 2 training pairs"):
            tune(synthetic_pairs[:n], TWO_END, "dirichlet")

    def test_two_pairs_give_two_folds(self, synthetic_pairs):
        pairs = [p for p in synthetic_pairs if p.label][:2]
        grids = {"sim_weight": [0.5], "mu": [1.0, 10.0]}
        assert tune(pairs, TWO_END, "dirichlet", grids=grids, folds=5)["folds"] == 2

    def test_input_order_does_not_change_tuned_results(self, synthetic_pairs):
        grids = {"sim_weight": [0.0, 0.6, 1.0], "power": [1.0], "mu": [10.0]}
        shuffled = list(synthetic_pairs)
        random.Random(123).shuffle(shuffled)
        a = tune(synthetic_pairs, TWO_END, "dirichlet", grids=grids, seed=42)
        b = tune(shuffled, TWO_END, "dirichlet", grids=grids, seed=42)
        assert a == b

    def test_mrr_objective_runs(self, synthetic_pairs):
        resolved = tune(
            synthetic_pairs[:40],
            TWO_END,
            "dirichlet",
            grids={"sim_weight": [0.5, 1.0], "power": [1.0], "mu": [10.0]},
            objective="mrr",
            seed=42,
        )
        assert resolved["objective"] == "mrr"
        assert 0.0 <= resolved["cv_score"] <= 1.0

    def test_golden_results_on_synthetic_pairs(self, synthetic_pairs):
        # recorded before the tuning caches shared the error-model kernel;
        # cv_score is compared exactly, so summation order is pinned too
        common = {"alpha": 1.0, "k1": 1.2, "b": 0.75, "folds": 5}
        assert tune(synthetic_pairs, TWO_END, "dirichlet", objective="accuracy") == {
            **common, "sim_weight": 0.2, "power": 0.25, "mu": 1.0,
            "cv_score": 1.0, "objective": "accuracy",
        }
        assert tune(synthetic_pairs, TWO_END, "dirichlet", objective="mrr") == {
            **common, "sim_weight": 0.2, "power": 0.25, "mu": 5.0,
            "cv_score": 0.9333333333333333, "objective": "mrr",
        }

    def test_golden_results_on_hard_pairs(self):
        pairs = make_hard_synthetic_pairs(40, 40)
        grids = {"k1": [0.5, 1.2], "b": [0.3, 0.75], "alpha": [0.5, 1.0]}
        assert tune(pairs, TWO_END, "bm25", grids=grids, objective="accuracy") == {
            "sim_weight": 0.2, "power": 1.0, "alpha": 0.5, "mu": 1.0, "k1": 0.5,
            "b": 0.3, "cv_score": 0.75, "objective": "accuracy", "folds": 5,
        }
        assert tune(pairs, TWO_END, "bm25", grids=grids, objective="mrr") == {
            "sim_weight": 0.2, "power": 0.25, "alpha": 0.5, "mu": 1.0, "k1": 1.2,
            "b": 0.75, "cv_score": 0.9166666666666666, "objective": "mrr", "folds": 5,
        }

    def test_fold_scores_equal_a_model_trained_on_the_fold(self):
        pairs = make_hard_synthetic_pairs(20, 20)
        lexicon = build_index(list(dict.fromkeys(p.target for p in pairs)), TWO_END)
        caches = _fold_caches(pairs, TWO_END, "dirichlet", True, 5, 42, lexicon)
        assert len(caches) == 5
        for cache in caches:
            positives = [(p.source, p.target) for p in cache.train if p.label]
            for alpha, power in ((1.0, 1.0), (0.5, 0.25), (2.0, 4.0), (1.0, 0.5)):
                model = train_error_model(positives, TWO_END, alpha, power)
                tr_trans, val_trans = cache.transformation(alpha, power)
                for part, scores in ((cache.train, tr_trans), (cache.val, val_trans)):
                    expected = [model.score_words(p.source, p.target) for p in part]
                    assert scores == expected
                for query, row in zip(cache.queries, cache.trans_rows(alpha, power)):
                    source = shingle(query.source, TWO_END)
                    expected = [model.transformation_score(source, doc) for _, doc in lexicon.docs]
                    assert row == expected

    @staticmethod
    def tune_every_combo(pairs, function, grids, objective):
        """Brute force: score every grid combination, first strict maximum wins."""
        lexicon_index, lex_words = None, []
        if objective == "mrr":
            lex_words = list(dict.fromkeys(p.target for p in pairs))
            lexicon_index = build_index(lex_words, TWO_END)
        caches = _fold_caches(pairs, TWO_END, function, True, 5, 42, lexicon_index)
        merged = _resolve_grids(grids, function, True)
        best_combo, best_score = None, -math.inf
        for values in itertools.product(*(merged[key] for key in GRID_KEYS)):
            combo = dict(zip(GRID_KEYS, values))
            if objective == "accuracy":
                scores = [_combo_accuracy(cache, combo) for cache in caches]
            else:
                scores = [_combo_mrr(cache, combo, lex_words) for cache in caches]
                scores = [score for score in scores if score is not None]
            total = 0.0
            for score in scores:
                total += score
            if total / len(scores) > best_score:
                best_combo, best_score = combo, total / len(scores)
        return {**best_combo, "cv_score": best_score, "objective": objective,
                "folds": len(caches)}

    @pytest.mark.parametrize("objective", ["accuracy", "mrr"])
    def test_skipping_equal_combos_matches_scoring_every_combo(self, objective, monkeypatch):
        pairs = make_hard_synthetic_pairs(30, 30)
        grids = {"sim_weight": [0.0, 0.5, 1.0], "power": [0.25, 1.0, 4.0],
                 "mu": [1.0, 10.0, 100.0]}
        expected = self.tune_every_combo(pairs, "dirichlet", grids, objective)
        combos = []
        scorer = "_combo_accuracy" if objective == "accuracy" else "_combo_mrr"
        real = getattr(evaluation, scorer)

        def counting(cache, combo, *rest):
            combos.append(tuple(combo.values()))
            return real(cache, combo, *rest)

        monkeypatch.setattr(evaluation, scorer, counting)
        assert tune(pairs, TWO_END, "dirichlet", grids=grids, objective=objective) == expected
        # 27 combos: weight 0 reads 3 powers, weight 1 reads 3 mus, 0.5 all 9
        assert len(set(combos)) == 3 + 9 + 3

    @staticmethod
    def full_row_mrr(cache, combo, lex_words):
        """The unpruned MRR: blend every full row and rank the target in it."""
        norm_rows = trans_rows = [[]] * len(cache.queries)
        weight = combo["sim_weight"]
        if weight > 0.0:
            norm_rows = cache.norm_rows(combo["mu"], combo["k1"], combo["b"])
        if weight < 1.0:
            trans_rows = cache.trans_rows(combo["alpha"], combo["power"])
        total = 0.0
        for pair, norms, trans in zip(cache.queries, norm_rows, trans_rows):
            total += 1.0 / target_rank(lex_words, _blend(weight, norms, trans), pair.target)
        return total / len(cache.queries)

    @pytest.mark.parametrize("function", RANKING_FUNCTIONS)
    def test_walked_mrr_equals_full_rows(self, function):
        pairs = make_hard_synthetic_pairs(20, 20)
        lex_words = list(dict.fromkeys(p.target for p in pairs))
        lexicon = build_index(lex_words, TWO_END)
        caches = _fold_caches(pairs, TWO_END, function, True, 5, 42, lexicon)
        for cache in caches:
            for weight in (0.0, 0.2, 0.5, 0.8, 1.0):
                for power in (0.25, 4.0):
                    combo = {"sim_weight": weight, "power": power, "alpha": 1.0,
                             "mu": 5.0, "k1": 1.2, "b": 0.75}
                    expected = self.full_row_mrr(cache, combo, lex_words)
                    assert _combo_mrr(cache, combo, lex_words) == expected

    def test_walked_rank_equals_full_row_on_heavy_ties(self):
        # values on a coarse grid tie often, a row whose target holds the
        # largest transformation score puts an equal-norm document's bound
        # exactly at the target's score, and words repeat, as an index's may
        rng = random.Random(47)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        for trial in range(2000):
            n = rng.randint(1, 12)
            words = [rng.choice("abcde") for _ in range(n)]
            norms = [rng.choice(grid) for _ in range(n)]
            trans = [rng.choice(grid) for _ in range(n)]
            t = rng.randrange(n)
            if trial % 2:
                trans[t] = max(trans)
                norms[rng.randrange(n)] = norms[t]
            weight = rng.choice([0.2, 0.5, 0.75])
            order = sorted(range(n), key=norms.__getitem__, reverse=True)
            expected = target_rank(words, _blend(weight, norms, trans), words[t])
            walked = _walked_rank(
                weight, words, words[t], order, norms.__getitem__, trans.__getitem__, max(trans)
            )
            assert walked == expected

    def test_mrr_tune_builds_no_fold_index(self, monkeypatch):
        built = []
        real_build = evaluation.build_index

        def counting_build(words, config):
            built.append(len(words))
            return real_build(words, config)

        monkeypatch.setattr(evaluation, "build_index", counting_build)
        pairs = make_hard_synthetic_pairs(20, 20)
        tune(pairs, TWO_END, "dirichlet", grids={"sim_weight": [0.0, 0.5, 1.0]}, objective="mrr")
        assert built == [len(set(p.target for p in pairs))]  # the lexicon's alone

    def test_irrelevant_dimensions_collapse(self, synthetic_pairs):
        resolved = resolve_hyperparameters(
            synthetic_pairs,
            TWO_END,
            "jaccard",
            use_error_model=False,
        )
        # nothing left to search: sim-only jaccard has no free parameters
        assert resolved["objective"] == "fixed"
        assert resolved["sim_weight"] == 1.0


class TestExperiments:
    def test_pipeline_beats_chance_on_synthetic_data(self, synthetic_pairs):
        report = run_experiment(
            synthetic_pairs, TWO_END, "dirichlet", use_error_model=True, seed=42
        )
        assert report.accuracy >= 0.8
        assert report.mrr >= 0.5
        assert all(r >= 1 for r in report.per_query_ranks)
        assert report.train_size == 90 and report.test_size == 30

    def test_report_metrics_bounded(self, synthetic_pairs):
        report = run_experiment(
            synthetic_pairs, TWO_END, "tfidf", use_error_model=False, seed=42
        )
        assert 0.0 <= report.accuracy <= 1.0
        assert 0.0 <= report.mrr <= 1.0

    def test_fixed_values_skip_tuning(self, synthetic_pairs):
        report = run_experiment(
            synthetic_pairs,
            TWO_END,
            "dirichlet",
            seed=42,
            fixed={"sim_weight": 0.6, "power": 1.0, "alpha": 1.0, "mu": 10.0},
        )
        assert report.hyperparameters["classification"]["objective"] == "fixed"
        assert report.hyperparameters["classification"]["sim_weight"] == 0.6
        assert report.hyperparameters["ranking"] == report.hyperparameters["classification"]

    def test_each_experiment_tunes_its_own_objective(self, synthetic_pairs):
        report = run_experiment(synthetic_pairs, TWO_END, "dirichlet", seed=42)
        assert report.hyperparameters["classification"]["objective"] == "accuracy"
        assert report.hyperparameters["ranking"]["objective"] == "mrr"

    def test_baseline_experiment(self, synthetic_pairs):
        report = run_baseline_experiment(synthetic_pairs, "edit_distance", seed=42)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.hyperparameters["method"] == "edit_distance"

    def test_report_json_round_trips(self, synthetic_pairs):
        report = run_baseline_experiment(synthetic_pairs, "xdice", seed=42)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["mrr"] == report.mrr
        assert "runtime" not in str(sorted(payload))

    def test_prefit_system_wrapper(self, synthetic_pairs):
        report = run_experiment(synthetic_pairs, TWO_END, "dirichlet", seed=42)
        resolved = report.hyperparameters["classification"]
        train, test = split(synthetic_pairs, seed=42)
        system = PipelineSystem(fit_pipeline(train, TWO_END, "dirichlet", resolved))
        assert system.scorer.config.threshold == report.hyperparameters["threshold"]
        assert eval_classification(system, test) == report.accuracy


class TestAblation:
    def test_runs_requested_cells(self, synthetic_pairs):
        cells = (
            AblationCell("plain", (2,), "tfidf", False),
            AblationCell("two_end", (2,), "tfidf", False),
        )
        reports = ablation(synthetic_pairs, cells, seed=42)
        assert len(reports) == 2
        assert reports[0].label.startswith("2-gram 0-ended")
        assert reports[1].label.startswith("2-gram 2-ended")

    def test_empty_grid_rejected(self, synthetic_pairs):
        with pytest.raises(ConfigError):
            ablation(synthetic_pairs, (), seed=42)

    def test_folds_read_only_when_a_cell_tunes(self, synthetic_pairs):
        untuned = (AblationCell("two_end", (2,), "tfidf", False),)
        assert len(ablation(synthetic_pairs, untuned, seed=42, folds=0)) == 1
        with pytest.raises(ConfigError, match="at least 2 folds"):
            tuned = AblationCell("two_end", (2,), "dirichlet", False)
            ablation(synthetic_pairs, untuned + (tuned,), seed=42, folds=1)

    def test_table_formatting(self, synthetic_pairs):
        cells = (AblationCell("two_end", (2,), "dice", False),)
        reports = ablation(synthetic_pairs, cells, seed=42)
        table = format_report_table(reports)
        assert "configuration" in table
        assert "2-gram 2-ended dice" in table


class TestDatasetLexicon:
    def test_dedups_targets_in_order(self):
        pairs = [
            LabeledPair("a", "xx", True),
            LabeledPair("b", "yy", False),
            LabeledPair("c", "xx", True),
       ]
        assert dataset_lexicon(pairs) == ["xx", "yy"]

    def test_extra_words_appended(self):
        pairs = [LabeledPair("a", "xx", True)]
        assert dataset_lexicon(pairs, ["zz", "xx"]) == ["xx", "zz"]


class TestBaselineSystem:
    def test_fit_then_classify(self, synthetic_pairs):
        train, test = split(synthetic_pairs, seed=42)
        system = BaselineSystem("lcsr", train)
        accuracy = eval_classification(system, test)
        assert accuracy >= 0.6  # separable synthetic data

    def test_rank_uses_shared_tie_rule(self):
        system = BaselineSystem("xdice", [LabeledPair("noche", "noche", True)])
        lexicon = ["zz", "noche", "aa"]
        ranks = [system.target_rank("noche", lexicon, word) for word in ("noche", "aa", "zz")]
        assert ranks == [1, 2, 3]

    def test_unknown_method_rejected(self, synthetic_pairs):
        with pytest.raises(ConfigError):
            BaselineSystem("metaphone", synthetic_pairs)


class TestTargetRank:
    """A system's ``target_rank`` against the target's position in its full ``rank`` list."""

    @staticmethod
    def cases(rng):
        for trial in range(12):
            if trial % 2:
                # heavy ties: a two-letter alphabet, short words, many repeats
                lexicon = [
                    "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
                    for _ in range(rng.randint(1, 40))
                ]
            else:
                words = [random_word(rng, 2, 8) for _ in range(rng.randint(1, 40))]
                lexicon = words + rng.sample(words, rng.randint(0, len(words)))
            for target in rng.sample(lexicon, min(4, len(lexicon))):
                query = rng.choice([target, rng.choice(lexicon), random_word(rng, 1, 6)])
                yield query, lexicon, target

    @staticmethod
    def position(ranking, target):
        return [word for word, _ in ranking].index(target) + 1

    @staticmethod
    def pipeline(pairs, sim_weight, function="dirichlet"):
        resolved = {"sim_weight": sim_weight, "alpha": 1.0, "power": 1.0,
                    "mu": 10.0, "k1": 1.2, "b": 0.75}
        return PipelineSystem(fit_pipeline(pairs, TWO_END, function, resolved))

    @pytest.mark.parametrize("sim_weight", [0.0, 0.4, 1.0])
    def test_pipeline_system(self, synthetic_pairs, sim_weight):
        # the system normalizes per query; its scorer, with trained bounds,
        # walks the same way and is checked too
        for function in RANKING_FUNCTIONS:
            system = self.pipeline(synthetic_pairs, sim_weight, function)
            trained = system.scorer
            per_query = trained.with_config(normalization="per_query_minmax")
            rng = random.Random(f"pipeline{sim_weight}{function}")
            for query, lexicon, target in self.cases(rng):
                index = build_index(lexicon, TWO_END)
                expected = self.position(rank(query, index, scorer=per_query), target)
                assert system.target_rank(query, lexicon, target) == expected
                expected = self.position(rank(query, index, scorer=trained), target)
                assert trained.target_rank(shingle(query, TWO_END), index, target) == expected

    @pytest.mark.parametrize("method", BASELINE_METHODS)
    def test_baseline_system(self, synthetic_pairs, method):
        system = BaselineSystem(method, synthetic_pairs)
        rng = random.Random(method)
        for query, lexicon, target in self.cases(rng):
            scores = [baseline_similarity(method, query, word) for word in lexicon]
            expected = self.position(order_scored(lexicon, scores), target)
            assert system.target_rank(query, lexicon, target) == expected

    def test_pipeline_scores_only_documents_that_can_outrank_the_target(self, monkeypatch):
        pairs = make_hard_synthetic_pairs(60, 60)
        system = self.pipeline(pairs, 0.2)
        lexicon = dataset_lexicon(pairs)
        calls = []
        real_score = ErrorModel.transformation_score

        def counting_score(self, s, t):
            calls.append(t)
            return real_score(self, s, t)

        monkeypatch.setattr(ErrorModel, "transformation_score", counting_score)
        queries = [p for p in pairs if p.label][:10]
        for p in queries:
            system.target_rank(p.source, lexicon, p.target)
        assert len(calls) < len(queries) * len(lexicon) / 2

    def test_missing_target_is_a_data_error(self, synthetic_pairs):
        system = self.pipeline(synthetic_pairs, 0.4)
        with pytest.raises(DataError, match="zz"):
            system.target_rank("aa", ["aa", "bb"], "zz")
