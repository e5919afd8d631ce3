"""Edit distance, LCS ratio, and extended-bigram dice."""

import random

import pytest

from cognatekit import (
    ConfigError,
    baseline_similarity,
    edit_distance,
    lcsr,
    normalized_edit_similarity,
    xdice_words,
)
from cognatekit.baselines import lcs_length

from conftest import random_word


def dp_edit_distance(a, b):
    """Full-matrix oracle."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[m][n]


def dp_lcs(a, b):
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[m][n]


class TestEditDistance:
    def test_single_insertion(self):
        assert edit_distance("mesia", "messia") == 1

    def test_identity(self):
        assert edit_distance("noche", "noche") == 0

    def test_single_deletion(self):
        assert edit_distance("rosmarin", "romarin") == 1

    def test_empty_side_costs_full_length(self):
        assert edit_distance("", "noche") == 5
        assert edit_distance("noche", "") == 5

    def test_matches_full_matrix_oracle(self):
        rng = random.Random(41)
        for _ in range(300):
            a = random_word(rng, 0, 8) if rng.random() < 0.1 else random_word(rng, 1, 8)
            b = random_word(rng, 0, 8) if rng.random() < 0.1 else random_word(rng, 1, 8)
            assert edit_distance(a, b) == dp_edit_distance(a, b)

    def test_metric_axioms(self):
        rng = random.Random(42)
        for _ in range(300):
            a, b, c = (random_word(rng, 1, 7) for _ in range(3))
            assert edit_distance(a, b) == edit_distance(b, a)
            assert (edit_distance(a, b) == 0) == (a == b)
            assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    def test_bounded_by_longer_word(self):
        rng = random.Random(43)
        for _ in range(200):
            a, b = random_word(rng, 1, 8), random_word(rng, 1, 8)
            assert 0 <= edit_distance(a, b) <= max(len(a), len(b))


class TestLcsr:
    def test_shifted_pair(self):
        assert lcsr("rosmarin", "romarin") == pytest.approx(7 / 8)

    def test_identity(self):
        assert lcsr("noche", "noche") == 1.0

    def test_disjoint_alphabets(self):
        assert lcsr("abc", "xyz") == 0.0

    def test_matches_full_matrix_oracle(self):
        rng = random.Random(44)
        for _ in range(300):
            a, b = random_word(rng, 1, 8), random_word(rng, 1, 8)
            assert lcs_length(a, b) == dp_lcs(a, b)

    def test_symmetric_and_bounded(self):
        rng = random.Random(45)
        for _ in range(200):
            a, b = random_word(rng, 1, 8), random_word(rng, 1, 8)
            assert lcsr(a, b) == lcsr(b, a)
            assert 0.0 <= lcsr(a, b) <= 1.0


class TestXdice:
    def test_identity(self):
        assert xdice_words("noche", "noche") == 1.0

    def test_hand_enumerated_pair(self):
        # night: {n, ni, ig, gh, ht, t} + {ng, ih, gt}
        # nacht: {n, na, ac, ch, ht, t} + {nc, ah, ct}
        # shared {n, ht, t} of 9 + 9 tokens
        assert xdice_words("night", "nacht") == pytest.approx(1 / 3)

    def test_disjoint_single_characters(self):
        assert xdice_words("a", "b") == 0.0

    def test_symmetric_and_bounded(self):
        rng = random.Random(46)
        for _ in range(200):
            a, b = random_word(rng, 1, 8), random_word(rng, 1, 8)
            assert xdice_words(a, b) == xdice_words(b, a)
            assert 0.0 <= xdice_words(a, b) <= 1.0


class TestSimilarityScale:
    def test_edit_distance_is_negated(self):
        assert baseline_similarity("edit_distance", "mesia", "messia") == -1.0

    def test_all_methods_prefer_identical_words(self):
        for method in ("edit_distance", "normalized_edit_similarity", "lcsr", "xdice"):
            same = baseline_similarity(method, "noche", "noche")
            different = baseline_similarity(method, "noche", "zzz")
            assert same > different

    def test_normalized_edit_similarity_range(self):
        rng = random.Random(47)
        for _ in range(200):
            a, b = random_word(rng, 1, 8), random_word(rng, 1, 8)
            assert 0.0 <= normalized_edit_similarity(a, b) <= 1.0

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            baseline_similarity("soundex", "a", "b")
