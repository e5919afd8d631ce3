"""Index statistics, similarity formulas against oracles, and ranked retrieval."""

import math
import random
from collections import Counter

import pytest

from cognatekit import (
    ConfigError,
    DataError,
    RankerParams,
    ShinglerConfig,
    build_index,
    load_lexicon,
    rank,
    shingle,
    sim,
)
from cognatekit.ranking import (
    MAX_K1,
    MIN_MU,
    extended_bigram_tokens,
    order_scored,
    sim_all,
    sim_order,
    target_rank,
)

from conftest import random_word

PLAIN2 = ShinglerConfig((2,), "plain")
TWO_END = ShinglerConfig((2,), "two_end")
ALL_FUNCTIONS = ("intersection", "jaccard", "dice", "xdice", "tfidf", "bm25", "dirichlet")


def oracle_sim(query, doc, index, params):
    """Formula-level re-implementation used to cross-check sim()."""
    q, d = set(query.tokens), set(doc.tokens)
    inter = q & d
    f = params.function
    if f == "intersection":
        return float(len(inter))
    if f == "jaccard":
        return len(inter) / len(q | d)
    if f == "dice":
        return 2 * len(inter) / (len(q) + len(d))
    if f == "xdice":
        a = extended_bigram_tokens(query.source_word)
        b = extended_bigram_tokens(doc.source_word)
        return 2 * len(a & b) / (len(a) + len(b))
    n = index.doc_count
    if f == "tfidf":
        return sum(math.log(1 + n / index.df[t]) for t in sorted(inter))
    if f == "bm25":
        total = 0.0
        for t in sorted(inter):
            idf = math.log(1 + (n - index.df[t] + 0.5) / (index.df[t] + 0.5))
            total += idf * (params.k1 + 1) / (
                1 + params.k1 * (1 - params.b + params.b * len(d) / index.avgdl)
            )
        return total
    if f == "dirichlet":
        # collection frequencies counted here, not read from the index
        cf = Counter(t for _, doc in index.docs for t in doc.tokens)
        total = len(q) * math.log(params.mu / (params.mu + len(d)))
        for t in sorted(inter):
            p = (cf[t] + 1) / (sum(cf.values()) + len(cf) + 1)
            total += math.log(1 + 1 / (params.mu * p))
        return total
    raise AssertionError(f)


class TestIndex:
    def test_single_word_stats(self):
        index = build_index(["noche"], PLAIN2)
        assert index.doc_count == 1
        assert index.avgdl == 6
        assert index.df["no"] == 1

    def test_duplicate_documents_kept(self):
        index = build_index(["noche", "noche"], PLAIN2)
        assert index.doc_count == 2
        assert all(index.df[t] == 2 for t in shingle("noche", PLAIN2).tokens)

    def test_document_frequencies_over_two_words(self):
        index = build_index(["rosmarin", "romarin"], TWO_END)
        assert index.df["1r"] == 2
        assert index.df["3os"] == 1

    def test_collection_totals(self):
        index = build_index(["noche", "nacht", "notte"], PLAIN2)
        cf = Counter(t for _, doc in index.docs for t in doc.tokens)
        assert index.total_len == sum(cf.values())
        assert index.avgdl == pytest.approx(6.0)
        assert index.vocabulary_size == 13

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ConfigError):
            build_index([], PLAIN2)


class TestSim:
    def test_jaccard_on_overlapping_pair(self):
        index = build_index(["rosmarin", "romarin"], TWO_END)
        q = shingle("rosmarin", TWO_END)
        d = shingle("romarin", TWO_END)
        assert sim(q, d, index, RankerParams("jaccard")) == pytest.approx(6 / 11)

    def test_dice_identity(self):
        index = build_index(["noche"], TWO_END)
        x = shingle("noche", TWO_END)
        assert sim(x, x, index, RankerParams("dice")) == 1.0

    def test_bm25_matches_hand_computed_sum(self):
        index = build_index(["rosmarin", "romarin"], TWO_END)
        q = shingle("rosmarin", TWO_END)
        d = shingle("romarin", TWO_END)
        value = sim(q, d, index, RankerParams("bm25", k1=1.2, b=0.75))
        assert value == pytest.approx(1.1209029409469429, abs=1e-12)

    def test_xdice_uses_extended_grams(self):
        index = build_index(["nacht"], PLAIN2)
        q = shingle("night", PLAIN2)
        d = shingle("nacht", PLAIN2)
        assert sim(q, d, index, RankerParams("xdice")) == pytest.approx(1 / 3)

    def test_all_functions_match_oracle(self):
        rng = random.Random(21)
        for _ in range(40):
            words = [random_word(rng, 2, 8) for _ in range(rng.randint(2, 12))]
            index = build_index(words, TWO_END)
            query = shingle(random_word(rng, 2, 8), TWO_END)
            for name in ALL_FUNCTIONS:
                params = RankerParams(name)
                for _, doc in index.docs:
                    assert sim(query, doc, index, params) == pytest.approx(
                        oracle_sim(query, doc, index, params), abs=1e-9
                    )

    def test_set_measures_bounded(self):
        rng = random.Random(22)
        index = build_index([random_word(rng, 2, 8) for _ in range(10)], TWO_END)
        for _ in range(100):
            q = shingle(random_word(rng, 2, 8), TWO_END)
            for _, doc in index.docs:
                for name in ("jaccard", "dice", "xdice"):
                    assert 0.0 <= sim(q, doc, index, RankerParams(name)) <= 1.0
                inter = sim(q, doc, index, RankerParams("intersection"))
                assert 0 <= inter <= min(len(q), len(doc))

    def test_bm25_terms_non_negative(self):
        rng = random.Random(23)
        for _ in range(50):
            words = [random_word(rng, 2, 8) for _ in range(rng.randint(1, 8))]
            index = build_index(words, TWO_END)
            q = shingle(words[0], TWO_END)
            for _, doc in index.docs:
                assert sim(q, doc, index, RankerParams("bm25")) >= 0.0

    def test_dirichlet_shared_token_never_hurts(self):
        # scoring the same doc with one extra matching query token
        index = build_index(["noche", "nacht"], PLAIN2)
        doc = index.docs[0][1]
        params = RankerParams("dirichlet")
        q_small = shingle("nu", PLAIN2)  # shares 'n'
        q_large = shingle("no", PLAIN2)  # shares 'n' and 'no'
        gain_small = sim(q_small, doc, index, params) - len(q_small) * math.log(
            params.mu / (params.mu + len(doc))
        )
        gain_large = sim(q_large, doc, index, params) - len(q_large) * math.log(
            params.mu / (params.mu + len(doc))
        )
        assert gain_large > gain_small

    def test_params_validated(self):
        with pytest.raises(ConfigError):
            RankerParams("cosine")
        with pytest.raises(ConfigError):
            RankerParams("bm25", k1=-1)
        with pytest.raises(ConfigError):
            RankerParams("bm25", b=1.5)
        with pytest.raises(ConfigError):
            RankerParams("dirichlet", mu=0)
        for name in ("k1", "b", "mu"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ConfigError):
                    RankerParams("bm25", **{name: value})
        # subnormal or below the floor: log(0) or an infinite token weight
        for mu in (5e-324, 1e-310, MIN_MU / 2):
            with pytest.raises(ConfigError, match="mu"):
                RankerParams("dirichlet", mu=mu)
        index = build_index(["noche", "nacht", "notte", "n"], PLAIN2)
        query = shingle("nuitnacht", PLAIN2)
        scores = sim_all(query, index, RankerParams("dirichlet", mu=MIN_MU))
        assert all(math.isfinite(score) for score in scores)

    def test_k1_at_most_its_maximum(self):
        # idf * (k1 + 1) overflows near the largest float: inf at b = 0, nan at b = 1
        for k1 in (math.nextafter(MAX_K1, math.inf), 1.7e308):
            with pytest.raises(ConfigError, match="k1"):
                RankerParams("bm25", k1=k1)
        index = build_index(["abc", "abd", "zz", "abcabc"], PLAIN2)
        query = shingle("abc", PLAIN2)
        for b in (0.0, 0.5, 1.0):
            params = RankerParams("bm25", k1=MAX_K1, b=b)
            assert all(map(math.isfinite, sim_all(query, index, params)))
            assert all(math.isfinite(score) for _, score in rank("abc", index, params))


class TestSimAll:
    @pytest.mark.parametrize("mode", ("plain", "one_end", "two_end"))
    @pytest.mark.parametrize("sizes", ((2,), (2, 3)))
    def test_equals_sim_per_document(self, mode, sizes):
        # bit for bit (float.hex also rejects an int), duplicate words,
        # queries with tokens absent from the index
        config = ShinglerConfig(sizes, mode)
        rng = random.Random(f"{mode}{sizes}")
        for _ in range(25):
            words = [random_word(rng, 1, 8) for _ in range(rng.randint(1, 30))]
            words += rng.sample(words, rng.randint(0, len(words)))
            rng.shuffle(words)
            index = build_index(words, config)
            query = shingle(rng.choice([rng.choice(words), random_word(rng, 1, 12)]), config)
            for name in ALL_FUNCTIONS:
                params = RankerParams(
                    name, k1=rng.uniform(0.0, 3.0), b=rng.random(), mu=rng.uniform(0.5, 100.0)
                )
                expected = [sim(query, doc, index, params).hex() for _, doc in index.docs]
                assert [score.hex() for score in sim_all(query, index, params)] == expected


class TestSimOrder:
    @pytest.mark.parametrize("mode", ("plain", "two_end"))
    def test_every_id_once_in_non_increasing_raw_score(self, mode):
        # duplicate words, words sharing nothing with the query, and
        # queries sharing no token at all
        config = ShinglerConfig((2,), mode)
        rng = random.Random(f"order{mode}")
        for _ in range(40):
            words = [random_word(rng, 1, 9) for _ in range(rng.randint(1, 40))]
            words += rng.sample(words, rng.randint(0, len(words)))
            index = build_index(words, config)
            query = shingle(rng.choice([rng.choice(words), random_word(rng, 1, 6), "q"]), config)
            for name in ALL_FUNCTIONS:
                params = RankerParams(name, mu=rng.choice([0.5, 10.0, 100.0]))
                raws, _, _, order = sim_order(query, index, params)
                order = list(order)
                assert sorted(order) == list(range(len(words)))
                walked = [raws[i] for i in order]
                assert walked == sorted(raws, reverse=True)

    def test_short_unshared_documents_precede_long_shared_ones(self):
        index = build_index(["abuvwxyzuvwxyz", "q", "abrstuvwxyzqp", "zz"], TWO_END)
        params = RankerParams("dirichlet", mu=10.0)
        query = shingle("abcdefgh", TWO_END)
        _, _, _, order = sim_order(query, index, params)
        assert list(order) == [1, 3, 0, 2]


class TestMicroCorpus:
    """Frozen expected values computed independently from the formulas."""

    INDEX_WORDS = ["noche", "nacht", "notte"]
    QUERY = "nuit"
    BM25_EXPECTED = {
        "noche": 0.13353139262452257,
        "nacht": 1.114360645636249,
        "notte": 0.13353139262452257,
    }
    DIRICHLET_EXPECTED = {
        "noche": -1.762231481326559,
        "nacht": -0.8067200362991226,
        "notte": -1.762231481326559,
    }

    def test_bm25_values(self):
        index = build_index(self.INDEX_WORDS, PLAIN2)
        q = shingle(self.QUERY, PLAIN2)
        params = RankerParams("bm25", k1=1.2, b=0.75)
        for word, doc in index.docs:
            assert sim(q, doc, index, params) == pytest.approx(
                self.BM25_EXPECTED[word], abs=1e-9
            )

    def test_dirichlet_values(self):
        index = build_index(self.INDEX_WORDS, PLAIN2)
        q = shingle(self.QUERY, PLAIN2)
        params = RankerParams("dirichlet", mu=10.0)
        for word, doc in index.docs:
            assert sim(q, doc, index, params) == pytest.approx(
                self.DIRICHLET_EXPECTED[word], abs=1e-9
            )


def brute_force_rank(query, index, params, k=None):
    scored = [
        (word, sim(shingle(query, index.config), doc, index, params))
        for word, doc in index.docs
    ]
    decorated = [
        (-score, word, i, (word, score)) for i, (word, score) in enumerate(scored)
    ]
    decorated.sort()
    out = [entry for _, _, _, entry in decorated]
    return out if k is None else out[:k]


class TestRank:
    def test_self_match_ranks_first(self):
        index = build_index(["rosmarin", "romarin"], TWO_END)
        assert rank("rosmarin", index, RankerParams("dice"))[0][0] == "rosmarin"

    def test_matches_brute_force_on_toy_index(self):
        index = build_index(["noche", "nacht", "notte"], PLAIN2)
        for name in ALL_FUNCTIONS:
            params = RankerParams(name)
            assert rank("nuit", index, params) == brute_force_rank("nuit", index, params)

    def test_cutoff_truncates(self):
        index = build_index(["noche", "nacht", "notte"], PLAIN2)
        top = rank("nuit", index, RankerParams("bm25"), k=1)
        assert len(top) == 1
        assert top[0][0] == "nacht"

    def test_ties_break_lexicographically_then_by_insertion(self):
        index = build_index(["zzz", "bbb", "aaa", "bbb"], PLAIN2)
        ranked = rank("qqq", index, RankerParams("intersection"))
        assert [word for word, _ in ranked] == ["aaa", "bbb", "bbb", "zzz"]

    def test_oracle_equivalence_random_instances(self):
        rng = random.Random(24)
        for _ in range(30):
            lexicon = [random_word(rng, 2, 8) for _ in range(rng.randint(2, 60))]
            index = build_index(lexicon, TWO_END)
            query = random_word(rng, 2, 8)
            for name in ALL_FUNCTIONS:
                params = RankerParams(name)
                assert rank(query, index, params) == brute_force_rank(query, index, params)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        index = build_index(["noche", "nacht", "notte"], PLAIN2)
        with pytest.raises(ConfigError):
            rank("nuit", index, RankerParams("bm25"), k=k)
        with pytest.raises(ConfigError):
            order_scored(["noche", "nacht"], [1.0, 0.5], k)

    def test_needs_params_or_scorer(self):
        index = build_index(["noche"], PLAIN2)
        with pytest.raises(ConfigError):
            rank("nuit", index)


def hex_ranking(ranked):
    return [(word, score.hex()) for word, score in ranked]


class TestRawTopK:
    """Raw ``rank`` with ``k`` and ``sim_order``'s bounds against brute force."""

    @staticmethod
    def cases(rng):
        """(lexicon, query) pairs: random words with repeats, two-letter
        words with heavy ties, and queries sharing no token."""
        for trial in range(30):
            if trial % 3 == 1:
                words = [
                    "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
                    for _ in range(rng.randint(1, 40))
                ]
            else:
                words = [random_word(rng, 1, 8) for _ in range(rng.randint(1, 40))]
                words += rng.sample(words, rng.randint(0, len(words)))
                rng.shuffle(words)
            query = rng.choice([rng.choice(words), random_word(rng, 1, 8), "q"])
            yield words, query
            yield words, "ωψ"  # outside the alphabet: shares no token

    @staticmethod
    def assert_top_k(index, query, params, ks=None):
        expected = hex_ranking(brute_force_rank(query, index, params))
        for k in ks or (1, 3, 10, len(index), len(index) + 5):
            assert hex_ranking(rank(query, index, params, k=k)) == expected[:k], (query, k)

    @staticmethod
    def assert_bounds(index, query, params):
        query_set = shingle(query, index.config)
        expected = sim_all(query_set, index, params)
        raws, lo, hi, _ = sim_order(query_set, index, params)
        assert [r.hex() for r in raws] == [r.hex() for r in expected]
        assert (lo, hi) == (min(expected), max(expected))

    def test_random_lexicons(self):
        rng = random.Random(41)
        for words, query in self.cases(rng):
            index = build_index(words, TWO_END)
            for name in ALL_FUNCTIONS:
                params = RankerParams(name, mu=rng.choice([0.5, 10.0, 100.0]))
                self.assert_top_k(index, query, params)
                self.assert_bounds(index, query, params)

    def test_a_block_of_unshared_words_ties_at_the_kth_score(self):
        # Dirichlet's length term puts the one-letter words first; q, w, x
        # and y share no token with the query and tie, so the k-th score
        # falls inside their block and the word decides
        words = ["abuvwxyzuvwxyz", "y", "abtuvwxyzuvwxy", "q", "x", "abrstuvwxyzqp", "w", "a"]
        index = build_index(words, TWO_END)
        params = RankerParams("dirichlet", mu=10.0)
        top = rank("abcdefgh", index, params, k=3)
        assert [word for word, _ in top] == ["a", "q", "w"]
        assert top[1][1] == top[2][1]
        self.assert_top_k(index, "abcdefgh", params, range(1, len(words) + 2))
        self.assert_bounds(index, "abcdefgh", params)

    def test_a_size_whose_every_word_is_a_hit(self):
        # "a", "a" and "ab" fill their sizes with hits, and their unshared
        # scores sit above the k-th score from k = 4 on; every word of
        # the second lexicon is a hit, so no size's unshared score is a bound
        params = RankerParams("dirichlet", mu=10.0)
        index = build_index(["xyzuvwrst", "a", "abcxyzuvw", "a", "xyzuvwrsq", "ab"], TWO_END)
        self.assert_top_k(index, "abcdefgh", params, range(1, len(index) + 2))
        index = build_index(["ab", "abc", "abd", "a", "abcdefgh"], TWO_END)
        for name in ALL_FUNCTIONS:
            params = RankerParams(name, mu=10.0)
            self.assert_top_k(index, "abcdefgh", params, range(1, len(index) + 2))
            self.assert_bounds(index, "abcdefgh", params)

    def test_start_rows_cached_across_parameters_and_query_sizes(self):
        words = [random_word(random.Random(i), 1, 9) for i in range(60)]
        reused = build_index(words, TWO_END)
        for mu in (1.0, 10.0, 1.0):
            params = RankerParams("dirichlet", mu=mu)
            for query in ("a", "abc", "abcdefgh", "ab"):
                fresh = build_index(words, TWO_END)
                for k in (None, 5):
                    expected = hex_ranking(rank(query, fresh, params, k=k))
                    assert hex_ranking(rank(query, reused, params, k=k)) == expected


class TestOrderScored:
    def test_top_k_equals_full_sort_truncated(self):
        # ties at the k-th score and signed zeros; repr tells -0.0 from 0.0
        rng = random.Random(27)
        vocabulary = ["ab", "ba", "bb", "ca", "cb", "aa"]
        values = [-0.0, 0.0, 0.0, -0.0, 0.25, 0.5, 1.0, -1.0]
        for _ in range(1000):
            words = [rng.choice(vocabulary) for _ in range(rng.randint(1, 25))]
            scores = [rng.choice(values) for _ in words]
            order = sorted(range(len(words)), key=lambda i: (-scores[i], words[i], i))
            full = [(words[i], repr(scores[i])) for i in order]
            for k in (1, 2, 3, len(words), len(words) + 1):
                top = order_scored(words, scores, k)
                assert [(w, repr(score)) for w, score in top] == full[:k]


class TestTargetRank:
    def test_matches_position_in_full_ranking(self):
        rng = random.Random(25)
        for _ in range(100):
            words = [random_word(rng, 2, 6) for _ in range(rng.randint(2, 30))]
            scores = [rng.choice([0.0, 0.5, 1.0]) for _ in words]
            target = rng.choice(words)
            ranked = order_scored(words, scores)
            expected = next(i for i, (w, _) in enumerate(ranked) if w == target) + 1
            assert target_rank(words, scores, target) == expected

    def test_repeated_targets_heavy_ties_and_signed_zeros(self):
        rng = random.Random(26)
        vocabulary = ["ab", "ba", "bb", "ca", "cb", "aa"]
        values = [-0.0, 0.0, 0.0, -0.0, 0.25, 0.5, 1.0, -1.0]
        for _ in range(1000):
            words = [rng.choice(vocabulary) for _ in range(rng.randint(1, 25))]
            scores = [rng.choice(values) for _ in words]
            target = rng.choice(words)
            ranked = order_scored(words, scores)
            expected = next(i for i, (w, _) in enumerate(ranked) if w == target) + 1
            assert target_rank(words, scores, target) == expected

    def test_missing_target_is_a_data_error(self):
        with pytest.raises(DataError):
            target_rank(["a", "b"], [1.0, 0.5], "c")


class TestLexiconFile:
    def test_loads_words_skipping_comments(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("# header\nnoche\n\nNACHT\n  # indented comment\nnotte\n")
        assert load_lexicon(path) == ["noche", "nacht", "notte"]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_bytes(b"\xef\xbb\xbfnoche\nnacht\n")
        assert load_lexicon(path) == ["noche", "nacht"]

    def test_file_without_words_is_a_data_error(self, tmp_path):
        path = tmp_path / "empty-lexicon.txt"
        for text in ("", "# only a comment\n\n"):
            path.write_text(text)
            with pytest.raises(DataError, match="empty-lexicon.txt"):
                load_lexicon(path)

    def test_invalid_word_reports_line(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("noche\nro1marin\n")
        with pytest.raises(DataError, match="2"):
            load_lexicon(path)
