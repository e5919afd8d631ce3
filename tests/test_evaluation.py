"""Dataset handling, splits, tuning, and the experiment harness."""

import itertools
import json
import math
import random
from collections import Counter

import pytest

import cognatekit.evaluation as evaluation

from cognatekit import (
    AblationCell,
    BaselineSystem,
    ConfigError,
    DataError,
    LabeledPair,
    PipelineSystem,
    ShingledPairs,
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
    DEFAULT_GRIDS,
    GRID_KEYS,
    _bounded_rank,
    _effective_key,
    _resolve_grids,
    dataset_lexicon,
    format_report_table,
    stratified_folds,
)
from cognatekit.ranking import RANKING_FUNCTIONS, LexiconIndex, order_scored, target_rank
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
        resolved = tune(ShingledPairs(synthetic_pairs, TWO_END), "dirichlet", grids=grids, seed=42)
        assert resolved["sim_weight"] == 0.4
        assert resolved["power"] == 2.0
        assert resolved["mu"] == 5.0

    def test_deterministic_selection(self, synthetic_pairs):
        a = tune(ShingledPairs(synthetic_pairs, TWO_END), "dirichlet", seed=42)
        b = tune(ShingledPairs(synthetic_pairs, TWO_END), "dirichlet", seed=42)
        assert a == b

    def test_unknown_grid_key_rejected(self, synthetic_pairs):
        with pytest.raises(ConfigError):
            tune(ShingledPairs(synthetic_pairs, TWO_END), "dirichlet", grids={"gamma": [1]})
        with pytest.raises(ConfigError, match="unknown hyperparameter 'threshold'"):
            tune(ShingledPairs(synthetic_pairs, TWO_END), "dirichlet", fixed={"threshold": 0.5})

    @pytest.mark.parametrize("weight", [2.0, -1.0, math.inf, math.nan])
    def test_weight_outside_unit_interval_rejected(self, synthetic_pairs, weight):
        shingled = ShingledPairs(synthetic_pairs, TWO_END)
        with pytest.raises(ConfigError, match=r"similarity weight must be in \[0, 1\]"):
            tune(shingled, "dirichlet", grids={"sim_weight": [weight, 0.5]})
        with pytest.raises(ConfigError, match=r"similarity weight must be in \[0, 1\]"):
            tune(shingled, "dirichlet", fixed={"sim_weight": weight}, folds=0)

    def test_empty_grid_rejected(self, synthetic_pairs):
        with pytest.raises(ConfigError):
            tune(ShingledPairs(synthetic_pairs, TWO_END), "dirichlet", grids={"mu": []})

    @pytest.mark.parametrize("folds", [1, 0, -3])
    def test_fewer_than_two_folds_rejected(self, synthetic_pairs, folds):
        # one fold would validate on its own training pairs
        with pytest.raises(ConfigError, match="at least 2 folds"):
            tune(ShingledPairs(synthetic_pairs, TWO_END), "dirichlet", folds=folds)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_pairs_rejected(self, synthetic_pairs, n):
        with pytest.raises(TrainingError, match="at least 2 training pairs"):
            tune(ShingledPairs(synthetic_pairs[:n], TWO_END), "dirichlet")

    def test_two_pairs_give_two_folds(self, synthetic_pairs):
        pairs = [p for p in synthetic_pairs if p.label][:2]
        grids = {"sim_weight": [0.5], "mu": [1.0, 10.0]}
        assert tune(ShingledPairs(pairs, TWO_END), "dirichlet", grids=grids, folds=5)["folds"] == 2

    def test_input_order_does_not_change_tuned_results(self, synthetic_pairs):
        grids = {"sim_weight": [0.0, 0.6, 1.0], "power": [1.0], "mu": [10.0]}
        shuffled = list(synthetic_pairs)
        random.Random(123).shuffle(shuffled)
        a = tune(ShingledPairs(synthetic_pairs, TWO_END), "dirichlet", grids=grids, seed=42)
        b = tune(ShingledPairs(shuffled, TWO_END), "dirichlet", grids=grids, seed=42)
        assert a == b

    def test_mrr_objective_runs(self, synthetic_pairs):
        resolved = tune(
            ShingledPairs(synthetic_pairs[:40], TWO_END),
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
        assert tune(ShingledPairs(synthetic_pairs, TWO_END), "dirichlet", objective="accuracy") == {
            **common, "sim_weight": 0.2, "power": 0.25, "mu": 1.0,
            "cv_score": 1.0, "objective": "accuracy",
        }
        assert tune(ShingledPairs(synthetic_pairs, TWO_END), "dirichlet", objective="mrr") == {
            **common, "sim_weight": 0.2, "power": 0.25, "mu": 5.0,
            "cv_score": 0.9333333333333333, "objective": "mrr",
        }

    def test_golden_results_on_hard_pairs(self):
        pairs = make_hard_synthetic_pairs(40, 40)
        grids = {"k1": [0.5, 1.2], "b": [0.3, 0.75], "alpha": [0.5, 1.0]}
        assert tune(ShingledPairs(pairs, TWO_END), "bm25", grids=grids, objective="accuracy") == {
            "sim_weight": 0.2, "power": 1.0, "alpha": 0.5, "mu": 1.0, "k1": 0.5,
            "b": 0.3, "cv_score": 0.75, "objective": "accuracy", "folds": 5,
        }
        assert tune(ShingledPairs(pairs, TWO_END), "bm25", grids=grids, objective="mrr") == {
            "sim_weight": 0.2, "power": 0.25, "alpha": 0.5, "mu": 1.0, "k1": 1.2,
            "b": 0.75, "cv_score": 0.9166666666666666, "objective": "mrr", "folds": 5,
        }

    # weights 0 to 1: 20 combos, 17 scored once equal ones are skipped (dirichlet 40, 30)
    ORACLE_GRIDS = {"sim_weight": [0.0, 0.2, 0.5, 0.8, 1.0], "power": [0.25, 4.0],
                    "alpha": [0.5, 1.0], "mu": [1.0, 50.0]}

    @staticmethod
    def recorded(monkeypatch, name):
        """(arguments, scores) of each call tune makes to the per-fold scorer ``name``."""
        calls = []
        real = getattr(evaluation, name)

        def recording(*args):
            scores = real(*args)
            calls.append((args, scores))
            return scores

        monkeypatch.setattr(evaluation, name, recording)
        return calls

    def test_fold_scores_equal_a_model_trained_on_the_fold(self, monkeypatch):
        # accuracy here; test_walked_mrr_equals_full_rows checks the MRR side
        pairs = make_hard_synthetic_pairs(20, 20)
        calls = self.recorded(monkeypatch, "_fold_accuracy")
        for function in RANKING_FUNCTIONS:
            calls.clear()
            tune(ShingledPairs(pairs, TWO_END), function, grids=self.ORACLE_GRIDS)
            assert len(calls) == 5
            for (_, _, _, train, val, combos), scores in calls:
                assert len(scores) == len(combos) >= 17
                for combo, score in zip(combos, scores):
                    scorer = fit_pipeline(ShingledPairs(train, TWO_END), function, combo)
                    system = PipelineSystem(scorer)
                    assert score == eval_classification(system, val)

    @pytest.mark.parametrize("function", RANKING_FUNCTIONS)
    def test_walked_mrr_equals_full_rows(self, function, monkeypatch):
        # each fold's MRR equals that of a pipeline trained on the fold, whose
        # target_rank walks, and that of its full ranking of the lexicon
        pairs = make_hard_synthetic_pairs(20, 20)
        calls = self.recorded(monkeypatch, "_fold_mrr")
        tune(ShingledPairs(pairs, TWO_END), function, grids=self.ORACLE_GRIDS, objective="mrr")
        folds = stratified_folds(pairs, 5, 42)
        assert len(calls) == len(folds) == 5
        for i, ((_, _, _, queries, index, combos), scores) in enumerate(calls):
            assert queries == [p for p in folds[i] if p.label]
            train = [p for j, fold in enumerate(folds) if j != i for p in fold]
            assert len(scores) == len(combos) >= 17
            for combo, score in zip(combos, scores):
                scorer = fit_pipeline(ShingledPairs(train, TWO_END), function, combo)
                assert score == eval_mrr(PipelineSystem(scorer), queries, index.words)[0]
                total = 0.0
                for p in queries:
                    ranked = [word for word, _ in rank(p.source, index, scorer=scorer)]
                    total += 1.0 / (ranked.index(p.target) + 1)
                assert score == total / len(queries)

    @pytest.mark.parametrize("objective", ["accuracy", "mrr"])
    def test_skipping_equal_combos_matches_scoring_every_combo(self, objective, monkeypatch):
        pairs = make_hard_synthetic_pairs(30, 30)
        grids = {"sim_weight": [0.0, 0.5, 1.0], "power": [0.25, 1.0, 4.0],
                 "mu": [1.0, 10.0, 100.0]}
        merged = _resolve_grids(grids, "dirichlet", True)
        every = [dict(zip(GRID_KEYS, values))
                 for values in itertools.product(*(merged[key] for key in GRID_KEYS))]
        name = "_fold_accuracy" if objective == "accuracy" else "_fold_mrr"
        real = getattr(evaluation, name)
        scored, every_scores = [], []

        def also_every_combo(*args):
            scored.append(args[-1])
            every_scores.append(real(*args[:-1], every))
            return real(*args)

        monkeypatch.setattr(evaluation, name, also_every_combo)
        shingled = ShingledPairs(pairs, TWO_END)
        resolved = tune(shingled, "dirichlet", grids=grids, objective=objective)
        # 27 combos: weight 0 reads 3 powers, weight 1 reads 3 mus, 0.5 all 9
        assert [len(combos) for combos in scored] == [3 + 9 + 3] * 5
        folds = [scores for scores in every_scores if scores is not None]
        best_combo, best_score = None, -math.inf
        for i, combo in enumerate(every):
            total = 0.0
            for scores in folds:
                total += scores[i]
            if total / len(folds) > best_score:
                best_combo, best_score = combo, total / len(folds)
        assert resolved == {**best_combo, "cv_score": best_score, "objective": objective,
                            "folds": 5}
        for scores in folds:  # a skipped combo scores what the first equal one does
            first = {}
            for combo, score in zip(every, scores):
                assert first.setdefault(_effective_key(combo), score) == score

    def test_fold_without_positive_training_pair_fails_before_scoring(self, monkeypatch):
        calls = []
        for name in ("_fold_accuracy", "_fold_mrr"):
            monkeypatch.setattr(evaluation, name, lambda *args: calls.append(args))
        pairs = make_hard_synthetic_pairs(1, 9)  # the fold validating the cognate trains on none
        for objective in ("accuracy", "mrr"):
            with pytest.raises(TrainingError, match="no positive training pairs"):
                tune(ShingledPairs(pairs, TWO_END), "dirichlet", objective=objective)
        assert calls == []

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

    def test_bounded_rank_equals_full_row_on_heavy_ties(self):
        # exact scores on a coarse grid tie often; an interval may be a
        # single point, end exactly at another score or be wide, and words
        # repeat, as an index's may
        rng = random.Random(53)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        for _ in range(2000):
            n = rng.randint(1, 12)
            words = [rng.choice("abcde") for _ in range(n)]
            trans = [rng.choice(grid) for _ in range(n)]
            lows = [value - rng.choice([0.0, 0.0, 0.25, 1.0]) for value in trans]
            highs = [value + rng.choice([0.0, 0.0, 0.25, 1.0]) for value in trans]
            target = rng.choice(words)
            expected = target_rank(words, trans, target)
            scored = []

            def exact(i):
                scored.append(i)
                return trans[i]

            assert _bounded_rank(words, target, lows, highs, exact) == expected
            best = max(value for word, value in zip(words, trans) if word == target)
            assert all(words[i] == target or lows[i] <= best <= highs[i] for i in scored)

    def test_mrr_tune_builds_few_count_lists(self, monkeypatch):
        # the histograms decide most ranks: few (query, document) pairs need
        # an exact count list
        pairs = make_hard_synthetic_pairs(40, 40)
        calls = self.recorded(monkeypatch, "_count_seq")
        tune(ShingledPairs(pairs, TWO_END), "dirichlet", objective="mrr")
        queries = sum(p.label for p in pairs)  # each cognate validates once
        documents = len({p.target for p in pairs})
        assert 0 < len(calls) < 0.15 * queries * documents

    def test_mrr_tune_at_weight_one_builds_no_count_list(self, monkeypatch):
        # the sims decide alone: the walk reads no transformation score
        calls = self.recorded(monkeypatch, "_count_seq")
        histograms = self.recorded(monkeypatch, "_count_histograms")
        shingled = ShingledPairs(make_hard_synthetic_pairs(20, 20), TWO_END)
        tuned = tune(shingled, "dirichlet", fixed={"sim_weight": 1.0}, objective="mrr")
        assert tuned["objective"] == "mrr" and tuned["sim_weight"] == 1.0
        assert calls == histograms == []

    @staticmethod
    def counted_orders(monkeypatch):
        """Per ``sim_order`` call tune makes, a one-item list: the ids pulled from its order."""
        pulled = []
        real = evaluation.sim_order

        def counting(query, index, params):
            raws, lo, hi, order = real(query, index, params)
            count = [0]
            pulled.append(count)

            def counted():
                for i in order:
                    count[0] += 1
                    yield i

            return raws, lo, hi, counted()

        monkeypatch.setattr(evaluation, "sim_order", counting)
        return pulled

    @pytest.mark.parametrize("grids", [None, {"sim_weight": [0.0, 0.4, 1.0]}],
                             ids=["weight-1-only", "mixed-weights"])
    def test_mrr_tune_reads_one_lazy_order_per_query_and_mu(self, grids, monkeypatch):
        # every walk of a query replays one order; at weight 1 the walks
        # stop after a few ids, so the order is never read to its end
        pulled = self.counted_orders(monkeypatch)
        pairs = make_hard_synthetic_pairs(40, 40)
        use_error_model = grids is not None
        tune(ShingledPairs(pairs, TWO_END), "dirichlet", use_error_model=use_error_model,
             grids=grids, objective="mrr")
        queries = sum(p.label for p in pairs)  # each cognate validates once
        documents = len({p.target for p in pairs})
        assert len(pulled) == queries * len(DEFAULT_GRIDS["mu"])
        if not use_error_model:
            assert all(0 < count < documents for count, in pulled)

    @staticmethod
    def counted_indexes(monkeypatch):
        """The document count of every LexiconIndex built, however it is built."""
        built = []
        real_init = LexiconIndex.__init__

        def counting_init(self, docs, config):
            built.append(len(docs))
            real_init(self, docs, config)

        monkeypatch.setattr(LexiconIndex, "__init__", counting_init)
        return built

    def test_mrr_tune_builds_no_fold_index(self, monkeypatch):
        built = self.counted_indexes(monkeypatch)
        pairs = make_hard_synthetic_pairs(20, 20)
        pairs += pairs[:3]  # a repeated target is one lexicon word
        grids = {"sim_weight": [0.0, 0.5, 1.0]}
        tune(ShingledPairs(pairs, TWO_END), "dirichlet", grids=grids, objective="mrr")
        assert built == [len(set(p.target for p in pairs))]  # the lexicon's alone

    def test_accuracy_tune_shingles_each_word_once(self, monkeypatch):
        calls = Counter()

        def counting_shingle(word, config):
            calls[word] += 1
            return shingle(word, config)

        for module in ("evaluation", "ranking", "scorer", "error_model"):
            monkeypatch.setattr(f"cognatekit.{module}.shingle", counting_shingle)
        pairs = make_hard_synthetic_pairs(20, 20)
        pairs += pairs[:5]  # a repeated pair is shingled once too
        tune(ShingledPairs(pairs, TWO_END), "dirichlet", grids={"sim_weight": [0.0, 0.5, 1.0]})
        assert calls == Counter({word: 1 for p in pairs for word in (p.source, p.target)})

    def test_every_grid_pinned_returns_the_pinned_values(self, synthetic_pairs, monkeypatch):
        built = self.counted_indexes(monkeypatch)
        fixed = {"sim_weight": 0.4, "power": 2.0, "alpha": 0.5, "mu": 5.0, "k1": 1.0, "b": 0.5}
        for objective in ("accuracy", "mrr", "unread"):
            resolved = tune(ShingledPairs(synthetic_pairs, TWO_END), "dirichlet", fixed=fixed,
                            folds=0, objective=objective)
            assert resolved == {**fixed, "objective": "fixed"}
        assert built == []

    def test_pinned_value_overrides_its_grid(self, synthetic_pairs):
        grids = {"sim_weight": [0.0, 1.0], "mu": [1.0, 50.0], "power": [1.0]}
        shingled = ShingledPairs(synthetic_pairs, TWO_END)
        resolved = tune(shingled, "dirichlet", fixed={"mu": 7.0}, grids=grids)
        assert resolved["mu"] == 7.0
        assert resolved["objective"] == "accuracy"
        resolved = tune(shingled, "dirichlet", fixed={"sim_weight": 0.5, "mu": 7.0},
                        grids=grids, folds=0)
        assert resolved["objective"] == "fixed"
        assert (resolved["sim_weight"], resolved["mu"]) == (0.5, 7.0)

    def test_irrelevant_dimensions_collapse(self, synthetic_pairs):
        resolved = tune(ShingledPairs(synthetic_pairs, TWO_END), "jaccard", use_error_model=False)
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

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -0.1, 1.5])
    def test_pinned_threshold_outside_unit_interval_rejected_first(
        self, threshold, synthetic_pairs, monkeypatch
    ):
        def no_shingling(*args, **kwargs):
            raise AssertionError("shingled before the threshold was checked")

        monkeypatch.setattr(evaluation, "ShingledPairs", no_shingling)
        with pytest.raises(ConfigError, match=r"threshold must be in \[0, 1\]"):
            run_experiment(synthetic_pairs, TWO_END, "dirichlet", fixed={"threshold": threshold})

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
        system = PipelineSystem(fit_pipeline(ShingledPairs(train, TWO_END), "dirichlet", resolved))
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


class TestFitPipeline:
    def test_counts_edges_as_train_error_model(self):
        # per row, not per distinct pair: a repeated cognate counts twice
        pairs = make_hard_synthetic_pairs(20, 20)
        pairs += [p for p in pairs if p.label][:3] + [p for p in pairs if not p.label][:2]
        resolved = {"sim_weight": 0.4, "alpha": 0.5, "power": 2.0,
                    "mu": 10.0, "k1": 1.2, "b": 0.75}
        fitted = fit_pipeline(ShingledPairs(pairs, TWO_END), "dirichlet", resolved).error_model
        cognates = [(p.source, p.target) for p in pairs if p.label]
        trained = train_error_model(cognates, TWO_END, alpha=0.5, power=2.0)
        assert fitted.edge_counts == trained.edge_counts
        assert fitted == trained
        assert trained != train_error_model(list(dict.fromkeys(cognates)), TWO_END, 0.5, 2.0)


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
        return PipelineSystem(fit_pipeline(ShingledPairs(pairs, TWO_END), function, resolved))

    @pytest.mark.parametrize("sim_weight", [0.0, 0.4, 1.0])
    def test_pipeline_system(self, synthetic_pairs, sim_weight):
        # the system ranks with its scorer, which normalizes per query
        for function in RANKING_FUNCTIONS:
            system = self.pipeline(synthetic_pairs, sim_weight, function)
            scorer = system.scorer
            rng = random.Random(f"pipeline{sim_weight}{function}")
            for query, lexicon, target in self.cases(rng):
                index = build_index(lexicon, TWO_END)
                expected = self.position(rank(query, index, scorer=scorer), target)
                assert system.target_rank(query, lexicon, target) == expected
                assert scorer.target_rank(shingle(query, TWO_END), index, target) == expected

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
