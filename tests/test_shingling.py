"""Shingling: golden split sets, normalization rules, and set invariants."""

import math
import random
import re

import pytest

from cognatekit import (
    ConfigError,
    InvalidWordError,
    ShinglerConfig,
    normalize_word,
    shingle,
)

from conftest import random_word

DIGITS = "0123456789"


def split_k(word, k, mode):
    """``shingle`` with a single gram size."""
    return shingle(word, ShinglerConfig((k,), mode))


def position(token):
    """A token's anchor number: its leading or trailing digits (words have none)."""
    left, _, right = re.fullmatch(r"(\d*)(\D+)(\d*)", token).groups()
    return int(left or right)


def brute_force_plain_grams(word, k):
    """Independent padder: slide over '<' * (k-1) + word + '>' * (k-1)."""
    padded = "<" * (k - 1) + word + ">" * (k - 1)
    grams = []
    for i in range(len(padded) - k + 1):
        gram = padded[i : i + k].replace("<", "").replace(">", "")
        if gram:
            grams.append(gram)
    out = []
    for gram in grams:
        if gram not in out:
            out.append(gram)
    return out


class TestNormalizeWord:
    def test_lowercases(self):
        assert normalize_word("RosMarin") == "rosmarin"

    def test_keeps_diacritics(self):
        assert normalize_word("Șarpe") == "șarpe"

    def test_rejects_empty(self):
        with pytest.raises(InvalidWordError):
            normalize_word("")

    def test_rejects_whitespace(self):
        with pytest.raises(InvalidWordError):
            normalize_word("two words")

    def test_rejects_digits(self):
        with pytest.raises(InvalidWordError):
            normalize_word("ro1marin")

    def test_rejects_sentinel_character(self):
        with pytest.raises(InvalidWordError):
            normalize_word("a\x00b")


class TestPlain:
    def test_rosmarin_bigrams(self):
        assert split_k("rosmarin", 2, "plain").tokens == (
            "r", "ro", "os", "sm", "ma", "ar", "ri", "in", "n",
        )

    def test_single_letter_collapses(self):
        assert split_k("a", 2, "plain").tokens == ("a",)

    def test_noche_trigrams(self):
        assert split_k("noche", 3, "plain").tokens == (
            "n", "no", "noc", "och", "che", "he", "e",
        )

    def test_matches_brute_force_padder(self):
        rng = random.Random(101)
        for _ in range(300):
            word = random_word(rng)
            k = rng.randint(2, 4)
            assert list(split_k(word, k, "plain").tokens) == brute_force_plain_grams(word, k)

    def test_gram_size_at_or_beyond_the_word_length(self):
        rng = random.Random(102)
        for _ in range(200):
            word = random_word(rng, 2, 6)
            for k in range(len(word), len(word) + 4):
                assert list(split_k(word, k, "plain").tokens) == brute_force_plain_grams(word, k)
        # a huge size yields the word-length tokens and pads nothing to reach it
        for mode in ("plain", "one_end", "two_end"):
            assert split_k("rosmarin", 10**12, mode).tokens == split_k("rosmarin", 8, mode).tokens

    def test_bigram_count_is_length_plus_one_before_dedup(self):
        # distinct-gram words show the raw count directly
        assert len(split_k("rosmarin", 2, "plain")) == len("rosmarin") + 1

    def test_rejects_gram_size_below_two(self):
        with pytest.raises(ConfigError):
            split_k("rosmarin", 1, "plain")


class TestOneEnd:
    def test_rosmarin(self):
        assert split_k("rosmarin", 2, "one_end").tokens == (
            "1r", "2ro", "3os", "4sm", "5ma", "6ar", "7ri", "8in", "9n",
        )

    def test_romarin(self):
        assert split_k("romarin", 2, "one_end").tokens == (
            "1r", "2ro", "3om", "4ma", "5ar", "6ri", "7in", "8n",
        )

    def test_single_gram_gets_position_one(self):
        assert split_k("a", 2, "one_end").tokens == ("1a",)


    def test_repeated_gram_keeps_its_first_position(self):
        # "ab" occurs twice; positions number the distinct grams
        assert shingle("abab", ShinglerConfig((2,), "one_end")).tokens == ("1a", "2ab", "3ba", "4b")


class TestTwoEnd:
    def test_romarin(self):
        assert split_k("romarin", 2, "two_end").tokens == (
            "1r", "2ro", "3om", "4ma", "ar4", "ri3", "in2", "n1",
        )

    def test_rosmarin_middle_gram_takes_left_position(self):
        assert split_k("rosmarin", 2, "two_end").tokens == (
            "1r", "2ro", "3os", "4sm", "5ma", "ar4", "ri3", "in2", "n1",
        )

    def test_single_gram(self):
        assert split_k("a", 2, "two_end").tokens == ("1a",)

    def test_anchor_balance(self):
        rng = random.Random(202)
        for _ in range(300):
            word = random_word(rng)
            result = split_k(word, 2, "two_end").tokens
            m = len(result)
            lefts = sum(token[0].isdigit() for token in result)
            rights = sum(token[-1].isdigit() for token in result)
            assert lefts == math.ceil(m / 2)
            assert rights == m // 2

    def test_position_bounds(self):
        rng = random.Random(203)
        for _ in range(300):
            word = random_word(rng)
            two = split_k(word, 2, "two_end").tokens
            m = len(two)
            assert all(1 <= position(t) <= math.ceil(m / 2) for t in two)
            one = split_k(word, 2, "one_end").tokens
            assert all(1 <= position(t) <= len(one) for t in one)


    def test_repeated_gram_keeps_its_first_position(self):
        assert shingle("abab", ShinglerConfig((2,), "two_end")).tokens == ("1a", "2ab", "ba2", "b1")


class TestDispatch:
    def test_two_end_pair_of_letters(self):
        result = shingle("ab", ShinglerConfig((2,), "two_end"))
        assert result.tokens == ("1a", "2ab", "b1")

    def test_plain_dispatch_matches_variant(self):
        config = ShinglerConfig((2,), "plain")
        expected = tuple(brute_force_plain_grams("rosmarin", 2))
        assert shingle("rosmarin", config).tokens == expected

    def test_multi_size_union_is_superset(self):
        config = ShinglerConfig((2, 3), "two_end")
        merged = shingle("rosmarin", config)
        bigram_only = set(split_k("rosmarin", 2, "two_end").tokens)
        assert bigram_only <= set(merged.tokens)

    def test_multi_size_union_matches_brute_force(self):
        rng = random.Random(303)
        config = ShinglerConfig((2, 3), "two_end")
        for _ in range(200):
            word = random_word(rng)
            merged = shingle(word, config)
            expected = []
            for k in (2, 3):
                for token in split_k(word, k, "two_end").tokens:
                    if token not in expected:
                        expected.append(token)
            assert list(merged.tokens) == expected

    def test_normalizes_input(self):
        config = ShinglerConfig((2,), "plain")
        assert shingle("ROSMARIN", config) == shingle("rosmarin", config)


def intersect(a, b):
    """The tokens of ``a`` that ``b`` holds, in ``a``'s order."""
    return tuple(t for t in a.tokens if t in b.token_set)


class TestIntersect:
    def test_two_end_overlap(self):
        a = split_k("rosmarin", 2, "two_end")
        b = split_k("romarin", 2, "two_end")
        assert intersect(a, b) == ("1r", "2ro", "ar4", "ri3", "in2", "n1")

    def test_one_end_overlap_is_smaller(self):
        a = split_k("rosmarin", 2, "one_end")
        b = split_k("romarin", 2, "one_end")
        assert intersect(a, b) == ("1r", "2ro")

    def test_idempotent(self):
        x = split_k("noche", 2, "two_end")
        assert intersect(x, x) == x.tokens

    def test_two_end_at_least_as_robust_on_shifted_pair(self):
        pair = ("rosmarin", "romarin")
        two = len(intersect(*(split_k(word, 2, "two_end") for word in pair)))
        one = len(intersect(*(split_k(word, 2, "one_end") for word in pair)))
        assert two >= one


class TestInvariants:
    def test_position_strip_recovers_plain(self):
        rng = random.Random(404)
        for _ in range(500):
            word = random_word(rng)
            k = rng.randint(2, 3)
            plain = list(split_k(word, k, "plain").tokens)
            for mode in ("one_end", "two_end"):
                grams = [t.strip(DIGITS) for t in split_k(word, k, mode).tokens]
                deduped = list(dict.fromkeys(grams))
                assert deduped == plain

    def test_determinism(self):
        config = ShinglerConfig((2, 3), "two_end")
        rng = random.Random(505)
        for _ in range(100):
            word = random_word(rng)
            assert shingle(word, config).tokens == shingle(word, config).tokens


class TestTypes:
    def test_tokens_are_unique(self):
        rng = random.Random(606)
        for _ in range(200):
            word = random_word(rng)
            result = shingle(word, ShinglerConfig((2,), "two_end"))
            assert len(set(result.tokens)) == len(result.tokens)

    def test_config_sorts_and_dedups_sizes(self):
        assert ShinglerConfig((3, 2, 2), "plain").gram_sizes == (2, 3)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ShinglerConfig((), "plain")
        with pytest.raises(ConfigError):
            ShinglerConfig((1,), "plain")
        with pytest.raises(ConfigError):
            ShinglerConfig((2,), "sideways")
