"""Blended scoring, normalization modes, and threshold learning."""

import random
from dataclasses import replace

import pytest

import cognatekit.error_model as error_model_module
import cognatekit.scorer as scorer_module

from cognatekit import (
    CombinedScorer,
    ConfigError,
    LabeledPair,
    RankerParams,
    ScoreConfig,
    ShingledPairs,
    ShinglerConfig,
    TrainingError,
    build_index,
    fit_pipeline,
    learn_threshold,
    rank,
    shingle,
    sim,
    train_error_model,
    train_scorer,
)
from cognatekit.error_model import ErrorModel
from cognatekit.ranking import RANKING_FUNCTIONS, sim_all, sim_order
from cognatekit.scorer import NORMALIZATION_MODES, _blend, _normalize

from conftest import random_word, train_on_words

TWO_END = ShinglerConfig((2,), "two_end")


def toy_scorer(sim_weight=0.6, normalization="trained_minmax", threshold=0.5):
    model = train_error_model([("mesia", "messia")], TWO_END)
    index = build_index(["messia"], TWO_END)
    return CombinedScorer(
        ScoreConfig(
            sim_weight=sim_weight,
            ranker=RankerParams("dice"),
            normalization=normalization,
            threshold=threshold,
        ),
        model,
        index,
        sim_min=0.0,
        sim_max=1.0,
    )


def fitted_scorer(rng_seed=31, n=40, function="dirichlet", **kwargs):
    rng = random.Random(rng_seed)
    triples = []
    for i in range(n):
        w = random_word(rng, 3, 8)
        if i % 2 == 0:
            triples.append((w, w + "e", True))
        else:
            triples.append((w, random_word(rng, 3, 8), False))
    return train_on_words(triples, TWO_END, RankerParams(function), **kwargs), triples


class TestCombinedScore:
    def test_weight_one_returns_normalized_sim(self):
        scorer = toy_scorer(sim_weight=1.0)
        s = shingle("mesia", TWO_END)
        t = shingle("messia", TWO_END)
        raw = sim(s, t, scorer.index, scorer.config.ranker)
        assert scorer.combined_score(s, t) == raw  # bounds are [0, 1] already

    def test_weight_zero_returns_transformation_score(self):
        scorer = toy_scorer(sim_weight=0.0)
        s = shingle("mesia", TWO_END)
        t = shingle("messia", TWO_END)
        expected = scorer.error_model.transformation_score(s, t)
        assert scorer.combined_score(s, t) == expected

    def test_blend_arithmetic(self):
        assert _blend(0.6, [0.5], [2 / 3])[0] == pytest.approx(0.5666666666666667, abs=1e-12)

    def test_always_in_unit_interval(self):
        scorer, _ = fitted_scorer()
        rng = random.Random(32)
        for _ in range(300):
            score = scorer.score_pair(random_word(rng, 2, 9), random_word(rng, 2, 9))
            assert 0.0 <= score <= 1.0

    def test_affine_in_weight(self):
        model = train_error_model([("mesia", "messia")], TWO_END)
        index = build_index(["messia", "noche"], TWO_END)
        rng = random.Random(33)
        for _ in range(100):
            s = shingle(random_word(rng, 2, 8), TWO_END)
            t = shingle(random_word(rng, 2, 8), TWO_END)
            values = []
            for w in (0.0, 0.5, 1.0):
                scorer = CombinedScorer(
                    ScoreConfig(sim_weight=w, ranker=RankerParams("dice")),
                    model,
                    index,
                    sim_min=0.0,
                    sim_max=1.0,
                )
                values.append(scorer.combined_score(s, t))
            assert values[1] == pytest.approx((values[0] + values[2]) / 2, abs=1e-12)

    def test_monotone_in_each_part(self):
        assert _blend(0.6, [0.8], [0.3])[0] > _blend(0.6, [0.5], [0.3])[0]
        assert _blend(0.6, [0.5], [0.7])[0] > _blend(0.6, [0.5], [0.3])[0]

    def test_trained_mode_requires_bounds(self):
        model = train_error_model([("mesia", "messia")], TWO_END)
        index = build_index(["messia"], TWO_END)
        scorer = CombinedScorer(ScoreConfig(), model, index)
        with pytest.raises(TrainingError):
            scorer.score_pair("mesia", "messia")
        # also where the similarity is not computed
        with pytest.raises(TrainingError):
            scorer.with_config(sim_weight=0.0).score_pair("mesia", "messia")

    def test_weight_zero_computes_no_similarity(self, monkeypatch):
        scorer, triples = fitted_scorer(sim_weight=0.0)
        pairs = [(shingle(s, TWO_END), shingle(t, TWO_END)) for s, t, _ in triples]
        expected = [scorer.error_model.transformation_score(s, t) for s, t in pairs]
        calls = []
        real_sim = scorer_module.sim

        def counting_sim(*args):
            calls.append(args)
            return real_sim(*args)

        monkeypatch.setattr(scorer_module, "sim", counting_sim)
        assert [scorer.combined_score(s, t) for s, t in pairs] == expected
        assert calls == []
        scorer.with_config(sim_weight=0.4).combined_score(*pairs[0])
        assert len(calls) == 1

    def test_trained_normalization_clamps(self):
        scorer, triples = fitted_scorer()
        # far outside anything seen in training: raw sim clamps into [0, 1]
        assert 0.0 <= scorer.score_pair("zzzzzz", "zzzzzz") <= 1.0

    def test_normalize_with_own_bounds_equals_unclamped_quotient(self):
        # the clamp is a no-op for per-query bounds, bit for bit
        rng = random.Random(37)
        for _ in range(1000):
            n = rng.randint(1, 40)
            pool = [rng.uniform(-60.0, 5.0) for _ in range(rng.randint(1, n))]
            raws = [rng.choice(pool) for _ in range(n)]
            lo, hi = min(raws), max(raws)
            if hi > lo:
                expected = [(r - lo) / (hi - lo) for r in raws]
            else:
                expected = [0.5] * n
            assert _normalize(raws, lo, hi) == expected

    def test_per_query_singleton_comparison_uses_midpoint(self):
        scorer = toy_scorer(sim_weight=0.6, normalization="per_query_minmax")
        s = shingle("mesia", TWO_END)
        t = shingle("messia", TWO_END)
        expected = 0.6 * 0.5 + 0.4 * (2 / 3)
        assert scorer.combined_score(s, t) == pytest.approx(expected, abs=1e-12)


class TestClassify:
    def test_zero_threshold_accepts_everything(self):
        scorer, _ = fitted_scorer(threshold=0.0)
        rng = random.Random(34)
        for _ in range(50):
            assert scorer.classify(random_word(rng, 2, 8), random_word(rng, 2, 8))

    def test_threshold_above_one_rejected(self):
        with pytest.raises(ConfigError):
            ScoreConfig(threshold=1.0 + 1e-9)

    def test_single_pair_trace(self):
        # transformation score 2/3 plus any similarity weight below one
        # clears a 0.5 cutoff even when normalized similarity degenerates
        scorer = toy_scorer(sim_weight=0.6, normalization="per_query_minmax", threshold=0.5)
        assert scorer.score_pair("mesia", "messia") > 0.0
        assert scorer.classify("mesia", "messia")


class TestRankingConsistency:
    def test_weight_one_per_query_matches_raw_ranking(self):
        rng = random.Random(35)
        model = train_error_model([("mesia", "messia")], TWO_END)
        for _ in range(20):
            lexicon = [random_word(rng, 2, 8) for _ in range(rng.randint(2, 30))]
            index = build_index(lexicon, TWO_END)
            scorer = CombinedScorer(
                ScoreConfig(
                    sim_weight=1.0,
                    ranker=RankerParams("bm25"),
                    normalization="per_query_minmax",
                ),
                model,
                index,
            )
            query = random_word(rng, 2, 8)
            blended = [w for w, _ in rank(query, index, scorer=scorer)]
            raw = [w for w, _ in rank(query, index, RankerParams("bm25"))]
            assert blended == raw

    @pytest.mark.parametrize("sim_weight", [0.4, 1.0])
    def test_trained_mode_ranks_like_its_per_query_copy(self, sim_weight):
        # trained bounds classify; every scorer ranks with the row's own min/max
        fitted, triples = fitted_scorer(sim_weight=sim_weight)
        assert fitted.config.normalization == "trained_minmax"
        per_query = fitted.with_config(normalization="per_query_minmax")
        rng = random.Random(f"trained{sim_weight}")
        for lexicon in TestTopK.lexicons(rng):
            index = build_index(lexicon, TWO_END)
            word = rng.choice([rng.choice(lexicon), rng.choice(triples)[0], "ab", "q"])
            query = shingle(word, TWO_END)
            for k in (None, 1, 3, len(index)):
                assert rank(word, index, scorer=fitted, k=k) == rank(
                    word, index, scorer=per_query, k=k
                )
            for target in set(lexicon):
                assert fitted.target_rank(query, index, target) == per_query.target_rank(
                    query, index, target
                )

    def test_mismatched_index_rejected(self):
        scorer = toy_scorer()
        other = build_index(["noche"], ShinglerConfig((2,), "plain"))
        with pytest.raises(ConfigError):
            scorer.score_candidates(shingle("nuit", TWO_END), other)


class FlatModel:
    """A transformation model whose every score equals its ceiling."""

    config = TWO_END

    def transformation_score(self, s, t):
        return 0.25

    def score_ceiling(self, max_tokens):
        return 0.25


class TestTopK:
    """``rank`` with a combined scorer and ``k`` against brute force."""

    @staticmethod
    def lexicons(rng):
        for trial in range(16):
            if trial % 2:
                # heavy ties: a two-letter alphabet, short words, many repeats
                yield [
                    "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
                    for _ in range(rng.randint(1, 40))
                ]
            else:
                words = [random_word(rng, 2, 8) for _ in range(rng.randint(1, 40))]
                yield words + rng.sample(words, rng.randint(0, len(words)))

    @staticmethod
    def expected(scorer, query, index):
        """The full ranking: every document scored, sorted by the tie rule."""
        scores = scorer.score_candidates(shingle(query, TWO_END), index)
        words = [word for word, _ in index.docs]
        order = sorted(range(len(words)), key=lambda i: (-scores[i], words[i], i))
        return [(words[i], scores[i]) for i in order]

    def assert_top_k_and_target_ranks(self, scorer, query, index):
        expected = self.expected(scorer, query, index)
        for k in (1, 3, 10, len(index), len(index) + 5):
            assert rank(query, index, scorer=scorer, k=k) == expected[:k]
        ranked = [word for word, _ in expected]
        for word in set(ranked):
            position = ranked.index(word) + 1
            assert scorer.target_rank(shingle(query, TWO_END), index, word) == position

    @pytest.mark.parametrize("normalization", NORMALIZATION_MODES)
    @pytest.mark.parametrize("sim_weight", [0.0, 0.4, 1.0])
    def test_rank_equals_brute_force(self, normalization, sim_weight):
        # the walk ranks by per-query bounds under either normalization
        for function in RANKING_FUNCTIONS:
            fitted, triples = fitted_scorer(function=function)
            config = replace(fitted.config, sim_weight=sim_weight, normalization=normalization)
            rng = random.Random(f"{normalization}{sim_weight}{function}")
            for lexicon in self.lexicons(rng):
                index = build_index(lexicon, TWO_END)
                scorer = CombinedScorer(
                    config, fitted.error_model, index, fitted.sim_min, fitted.sim_max
                )
                query = rng.choice([rng.choice(lexicon), rng.choice(triples)[0], "ab", "q"])
                self.assert_top_k_and_target_ranks(scorer, query, index)

    @pytest.mark.parametrize("function", RANKING_FUNCTIONS)
    def test_walk_normalizes_by_the_row_min_and_max(self, function):
        # the walk's per-query bounds come from the hits and the blocks,
        # not from the row; they must still be the row's min and max
        fitted, triples = fitted_scorer(function=function)
        config = replace(fitted.config, sim_weight=0.4)
        rng = random.Random(f"walk{function}")
        for lexicon in [*self.lexicons(rng), ["ab", "abc", "a", "b"]]:
            index = build_index(lexicon, TWO_END)
            scorer = CombinedScorer(config, fitted.error_model, index)
            word = rng.choice([rng.choice(lexicon), rng.choice(triples)[0], "ab", "q"])
            query = shingle(word, TWO_END)
            raws = sim_all(query, index, config.ranker)
            _, norm, _, _ = scorer._walk(query, index)
            expected = _normalize(raws, min(raws), max(raws))
            assert [norm(i) for i in range(len(raws))] == expected

    @pytest.mark.parametrize("normalization", NORMALIZATION_MODES)
    def test_short_unshared_document_above_long_shared_ones(self, normalization):
        # Dirichlet's length term: the one-token "q", which shares
        # nothing, outscores every long word sharing "1a" and "2ab"
        fitted, _ = fitted_scorer()
        lexicon = ["abuvwxyzuvwxyz", "abtuvwxyzuvwxy", "q", "zz", "abrstuvwxyzqp"]
        index = build_index(lexicon, TWO_END)
        params = RankerParams("dirichlet", mu=10.0)
        raws = sim_all(shingle("abcdefgh", TWO_END), index, params)
        assert raws[2] > raws[3] > max(raws[0], raws[1], raws[4])
        config = replace(fitted.config, ranker=params, sim_weight=0.9, normalization=normalization)
        scorer = CombinedScorer(config, fitted.error_model, index, fitted.sim_min, fitted.sim_max)
        self.assert_top_k_and_target_ranks(scorer, "abcdefgh", index)

    @pytest.mark.parametrize("function", RANKING_FUNCTIONS)
    def test_query_sharing_no_token(self, function):
        fitted, _ = fitted_scorer(function=function)
        index = build_index(["abc", "bcd", "cdef", "ab", "abc"], TWO_END)
        config = replace(fitted.config, sim_weight=0.4)
        scorer = CombinedScorer(config, fitted.error_model, index)
        self.assert_top_k_and_target_ranks(scorer, "xyz", index)

    def test_duplicate_words(self):
        fitted, _ = fitted_scorer()
        index = build_index(["abc", "abd", "abc", "xy", "abd", "abc"], TWO_END)
        config = replace(fitted.config, sim_weight=0.4)
        scorer = CombinedScorer(config, fitted.error_model, index, fitted.sim_min, fitted.sim_max)
        self.assert_top_k_and_target_ranks(scorer, "abc", index)

    def test_a_bound_equal_to_the_threshold_across_a_block_boundary(self):
        # Dirichlet's length term: the unshared "c", in the first size
        # block after the hit "da", ties it at the row's top, so its bound
        # equals the k-th score; "c" must still be scored and win the tie
        index = build_index(["abb", "da", "c", "cacd", "ad"], TWO_END)
        ranker = RankerParams("dirichlet", mu=1.0)
        query = shingle("ddcd", TWO_END)
        raws, _, _, order = sim_order(query, index, ranker)
        assert raws[1] == raws[2] == max(raws) > max(raws[0], raws[3], raws[4])
        assert list(order)[:2] == [1, 2]  # "da" is the only hit
        scorer = CombinedScorer(ScoreConfig(0.4, ranker), FlatModel(), index)
        scores = scorer.score_candidates(query, index)
        assert scores[1] == scores[2]
        assert rank("ddcd", index, scorer=scorer, k=1) == [("c", scores[2])]
        assert scorer.target_rank(query, index, "c") == 1
        assert scorer.target_rank(query, index, "da") == 2

    def test_a_bound_equal_to_the_kth_score_is_not_pruned(self):
        # a model whose ceiling its scores reach: equal scores then tie on
        # the word, and the later, smaller word must still be scored
        index = build_index(["zz", "aa"], TWO_END)
        scorer = CombinedScorer(ScoreConfig(sim_weight=0.4), FlatModel(), index)
        scores = scorer.score_candidates(shingle("q", TWO_END), index)
        assert scores[0] == scores[1]
        assert rank("q", index, scorer=scorer, k=1) == [("aa", scores[1])]

    def test_a_bound_equal_to_the_target_score_is_not_pruned(self):
        index = build_index(["zz", "aa", "zz"], TWO_END)
        scorer = CombinedScorer(ScoreConfig(sim_weight=0.4), FlatModel(), index)
        query = shingle("q", TWO_END)
        # all three score alike: "aa" precedes "zz" on the word alone
        assert scorer.target_rank(query, index, "zz") == 2
        assert scorer.target_rank(query, index, "aa") == 1

    def test_small_k_scores_few_documents(self, monkeypatch):
        fitted, triples = fitted_scorer()
        rng = random.Random(38)
        index = build_index([random_word(rng, 2, 8) for _ in range(300)], TWO_END)
        scorer = CombinedScorer(
            replace(fitted.config, sim_weight=0.4),
            fitted.error_model,
            index,
        )
        calls = []
        real_score = ErrorModel.transformation_score

        def counting_score(self, s, t):
            calls.append(t)
            return real_score(self, s, t)

        monkeypatch.setattr(ErrorModel, "transformation_score", counting_score)
        for source, _, _ in triples[:10]:
            rank(source, index, scorer=scorer, k=3)
        assert len(calls) < 10 * 300 / 2

    def test_weight_one_walk_prunes_without_transformation_scores(self, monkeypatch):
        # at weight 1 each bound is the document's exact score: the walk
        # stops after the top k, and no transformation score is computed
        fitted, _ = fitted_scorer()
        word = "abcdefghijkl"
        index = build_index([word[:n] for n in range(2, len(word) + 1)], TWO_END)
        query = shingle(word, TWO_END)
        scorer = CombinedScorer(
            ScoreConfig(1.0, RankerParams("dirichlet")),
            fitted.error_model,
            index,
        )
        scores = scorer.score_candidates(query, index)
        assert len(set(scores)) == len(index)
        ranks = [sorted(scores, reverse=True).index(score) + 1 for score in scores]
        calls = []
        real_score = ErrorModel.transformation_score
        real_count_seq = error_model_module._count_seq
        monkeypatch.setattr(
            ErrorModel, "transformation_score", lambda *a: calls.append(a) or real_score(*a)
        )
        monkeypatch.setattr(
            error_model_module, "_count_seq", lambda *a: calls.append(a) or real_count_seq(*a)
        )
        assert len(scorer.score_top(query, index, 3)) < len(index)
        assert [scorer.target_rank(query, index, w) for w in index.words] == ranks
        assert calls == []


class TestLearnThreshold:
    def test_separable_scores(self):
        threshold = learn_threshold([0.2, 0.3, 0.8, 0.9], [False, False, True, True])
        assert threshold == pytest.approx(0.55)

    def test_tie_prefers_smallest(self):
        # both boundaries classify 3 of 4 correctly; the smaller one wins
        threshold = learn_threshold([0.1, 0.4, 0.6, 0.9], [False, True, False, True])
        assert threshold == pytest.approx(0.25)

    def test_single_distinct_score(self):
        assert learn_threshold([0.7, 0.7], [True, True]) == 0.7

    def test_maximizes_accuracy_against_exhaustive_search(self):
        rng = random.Random(36)
        for _ in range(200):
            n = rng.randint(2, 25)
            scores = [round(rng.random(), 2) for _ in range(n)]
            labels = [rng.random() < 0.5 for _ in range(n)]
            threshold = learn_threshold(scores, labels)

            def accuracy(cut):
                return sum((s >= cut) == l for s, l in zip(scores, labels))

            values = sorted(set(scores))
            candidates = [
                (a + b) / 2 for a, b in zip(values, values[1:])
            ] or [values[0]]
            assert accuracy(threshold) == max(accuracy(c) for c in candidates)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(TrainingError):
            learn_threshold([0.5], [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_rejects_non_finite_scores(self, bad, position):
        # wherever it stands, a NaN or infinity is no cutoff to learn from
        scores = [0.2, 0.8, 0.3, 0.9]
        scores[position] = bad
        with pytest.raises(TrainingError, match="finite"):
            learn_threshold(scores, [False, True, False, True])


class TestTrainScorer:
    def test_learns_bounds_and_threshold(self):
        scorer, triples = fitted_scorer()
        assert scorer.sim_min < scorer.sim_max
        assert 0.0 <= scorer.config.threshold <= 1.0

    def test_training_accuracy_is_high_on_separable_data(self):
        scorer, triples = fitted_scorer()
        correct = sum(
            scorer.classify(s, t) == label for s, t, label in triples
        )
        assert correct / len(triples) >= 0.9

    def test_requires_positive_pairs(self):
        # the fit counts the cognates' edges; train_scorer takes a trained model
        resolved = {"sim_weight": 0.6, "alpha": 1.0, "power": 1.0, "mu": 10.0, "k1": 1.2,
                    "b": 0.75}
        pairs = [LabeledPair("a", "b", False), LabeledPair("c", "d", False)]
        shingled = ShingledPairs(pairs, TWO_END)
        with pytest.raises(TrainingError, match="positive"):
            fit_pipeline(shingled, "dice", resolved)

    def test_sets_must_match_the_error_model_config(self):
        model = train_error_model([("mesia", "messia")], TWO_END)
        plain = ShinglerConfig((2,), "plain")
        sets = [(shingle(s, plain), shingle(t, plain), label)
                for s, t, label in [("mesia", "messia", True), ("casa", "lupo", False)]]
        for weight in (0.0, 1.0):
            with pytest.raises(ConfigError, match="error model's shingler config"):
                train_scorer(sets, model, RankerParams("dice"), sim_weight=weight)

    def test_requires_pairs(self):
        model = train_error_model([("mesia", "messia")], TWO_END)
        with pytest.raises(TrainingError):
            train_scorer([], model, RankerParams("dice"))

    @pytest.mark.parametrize("sim_weight", [0.0, 0.4, 1.0])
    def test_threshold_learned_from_the_scoring_formula(self, sim_weight):
        scorer, triples = fitted_scorer(sim_weight=sim_weight)
        sets = [(shingle(s, TWO_END), shingle(t, TWO_END), label) for s, t, label in triples]
        scores = [scorer.combined_score(s, t) for s, t, _ in sets]
        expected = learn_threshold(scores, [label for _, _, label in sets])
        assert scorer.config.threshold == expected

    def test_explicit_threshold_respected(self):
        scorer, _ = fitted_scorer(threshold=0.25)
        assert scorer.config.threshold == 0.25


class TestScoreConfig:
    def test_rejects_bad_weight(self):
        with pytest.raises(ConfigError):
            ScoreConfig(sim_weight=1.2)

    def test_rejects_bad_normalization(self):
        with pytest.raises(ConfigError):
            ScoreConfig(normalization="zscore")

    def test_scorer_rejects_inverted_bounds(self):
        model = train_error_model([("mesia", "messia")], TWO_END)
        index = build_index(["messia"], TWO_END)
        with pytest.raises(TrainingError):
            CombinedScorer(ScoreConfig(), model, index, sim_min=1.0, sim_max=1.0)
        for bounds in ((float("nan"), 1.0), (0.0, float("inf")), (float("-inf"), 0.0)):
            with pytest.raises(TrainingError):
                CombinedScorer(ScoreConfig(), model, index, *bounds)
