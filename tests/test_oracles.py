"""Brute-force oracles for the threshold search, batched sims and count histograms.

Floats are compared by ``float.hex``, so 0.0 and -0.0 differ.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from cognatekit import (  # noqa: E402
    LexiconIndex,
    RankerParams,
    ShinglerConfig,
    learn_threshold,
    shingle,
    sim,
)
from cognatekit.error_model import (  # noqa: E402
    _count_histograms,
    _count_seq,
    _mean_bounds,
    _mean_score,
    _power_table,
    train_error_model,
)
from cognatekit.evaluation import DEFAULT_GRIDS  # noqa: E402
from cognatekit.ranking import (  # noqa: E402
    _WEIGHTED,
    RANKING_FUNCTIONS,
    _length_term,
    _sims,
    _term_weight,
)

ORACLE = settings(max_examples=400, derandomize=True, deadline=None, database=None)

# few distinct values, so ties are heavy; both zeros; two adjacent floats,
# whose midpoint rounds onto one of them
TIED = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, math.nextafter(1.0, 2.0), 3.0])
FINITE = st.floats(allow_nan=False, allow_infinity=False)
LABEL = st.one_of(st.booleans(), st.integers(0, 1))


def brute_force_threshold(scores, labels):
    """The first best midpoint of adjacent distinct values; one distinct value is itself.

    A midpoint between ``left`` and ``right`` calls every score above
    ``left`` a cognate.
    """
    values = sorted(set(scores))
    if len(values) == 1:
        return scores[0]
    best, best_correct = None, -1
    for left, right in zip(values, values[1:]):
        correct = sum((score > left) == bool(label) for score, label in zip(scores, labels))
        if correct > best_correct:
            middle = (left + right) / 2.0
            if not math.isfinite(middle):  # left + right overflows
                middle = left / 2.0 + right / 2.0
            best, best_correct = middle, correct
    return best


@st.composite
def scored_labels(draw, scores=st.one_of(TIED, FINITE), labels=LABEL):
    n = draw(st.integers(1, 40))
    return (draw(st.lists(scores, min_size=n, max_size=n)),
            draw(st.lists(labels, min_size=n, max_size=n)))


class TestLearnThresholdOracle:
    @ORACLE
    @given(case=st.one_of(
        scored_labels(), scored_labels(TIED), scored_labels(labels=st.integers(0, 1))
    ))
    @example(case=([0.7, 0.7, 0.7], [True, False, True]))
    @example(case=([-0.0, 0.0], [False, True]))
    @example(case=([0.0, -0.0, 0.0], [1, 0, 1]))
    @example(case=([0.5, -0.0, 0.0, 0.5], [0, 0, 1, 1]))
    @example(case=([0.1, 0.4, 0.4, 0.9], [True, True, True, True]))
    @example(case=([0.1, 0.4, 0.4, 0.9], [False, False, False, False]))
    @example(case=([1e308, 1.7e308], [False, True]))
    @example(case=([-1.7e308, -1e308, 1.7e308], [False, True, True]))
    def test_equals_brute_force(self, case):
        scores, labels = case
        expected = brute_force_threshold(scores, labels)
        assert learn_threshold(scores, labels).hex() == expected.hex()

    @ORACLE
    @given(case=scored_labels(st.sampled_from([-0.0, 0.0])))
    def test_one_distinct_value_is_the_first_score(self, case):
        scores, labels = case
        assert learn_threshold(scores, labels).hex() == scores[0].hex()


WORD = st.text(alphabet="abcdeo", min_size=1, max_size=9)
CONFIG = st.sampled_from([
    ShinglerConfig((2,), "two_end"),
    ShinglerConfig((2, 3), "one_end"),
    ShinglerConfig((2, 3), "plain"),
])
PARAMS = st.builds(
    RankerParams,
    function=st.sampled_from(RANKING_FUNCTIONS),
    k1=st.sampled_from([0.0, 1.2, 2.0]),
    b=st.sampled_from([0.0, 0.75, 1.0]),
    mu=st.sampled_from([1e-6, 0.5, 10.0, 100.0]),
)


def fresh_weighted_sim(query, doc, index, params):
    """A weighted score from scratch: length term, then each shared token in query order."""
    score = _length_term(len(query), len(doc), params)
    for token in query.tokens:
        if token in doc.token_set:
            score += _term_weight(token, len(doc), index, params)
    return score


class TestBatchedSimOracle:
    @ORACLE
    @given(
        config=CONFIG,
        params=PARAMS,
        lexicon=st.lists(WORD, min_size=1, max_size=12),
        outside=st.lists(WORD, max_size=4),
        picks=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), min_size=1, max_size=30),
    )
    @example(  # bm25 over documents of three sizes, and two documents outside the index
        config=ShinglerConfig((2,), "two_end"),
        params=RankerParams("bm25"),
        lexicon=["ba", "bade", "badeoca", "cade", "bade"],
        outside=["eee", "badd"],
        picks=[(0, 1), (1, 2), (2, 1), (1, 5), (1, 6), (3, 1), (6, 6), (2, 4)],
    )
    def test_equals_one_sim_per_pair(self, config, params, lexicon, outside, picks):
        sets = [shingle(word, config) for word in lexicon + outside]
        index = LexiconIndex(sets[:len(lexicon)], config)
        pairs = [(sets[q % len(sets)], sets[d % len(sets)]) for q, d in picks]
        batched = [score.hex() for score in _sims(pairs, index, params)]
        assert batched == [sim(q, d, index, params).hex() for q, d in pairs]
        if params.function in _WEIGHTED:
            assert batched == [fresh_weighted_sim(q, d, index, params).hex() for q, d in pairs]


HISTOGRAM_CONFIG = st.sampled_from([
    ShinglerConfig(sizes, mode)
    for mode in ("plain", "one_end", "two_end") for sizes in ((2,), (2, 3))
])
SHORT = st.text(alphabet="abc", min_size=1, max_size=6)


class TestCountHistogramOracle:
    """``_count_histograms`` against the nonzero counts and length of ``_count_seq``."""

    @ORACLE
    @given(
        config=HISTOGRAM_CONFIG,
        # an identical pair counts the (∅, ∅) edge
        training=st.lists(st.one_of(st.tuples(SHORT, SHORT), SHORT.map(lambda w: (w, w))),
                          min_size=1, max_size=15),
        lexicon=st.lists(SHORT, min_size=1, max_size=10),
        outside=st.lists(SHORT, max_size=3),
        picks=st.lists(st.integers(0, 99), min_size=1, max_size=4),
    )
    @example(  # identical words, each side left empty, both kinds of placeholder rows
        config=ShinglerConfig((2,), "plain"),
        training=[("ab", "ab"), ("ab", "abc"), ("abc", "ab"), ("ab", "b"), ("cab", "ca")],
        lexicon=["ab", "abc", "b", "ca", "cab", "abcab"],
        outside=["cb"],
        picks=[0, 1, 2, 4, 6],
    )
    @example(
        config=ShinglerConfig((2, 3), "two_end"),
        training=[("aa", "aa"), ("aab", "ab"), ("ab", "aab"), ("ba", "bab")],
        lexicon=["aa", "aab", "ab", "bab"],
        outside=["ba"],
        picks=[0, 1, 2, 3, 4],
    )
    def test_equals_nonzero_counts_of_the_count_list(
        self, config, training, lexicon, outside, picks
    ):
        nested = train_error_model(training, config)._nested
        index = LexiconIndex([shingle(word, config) for word in lexicon], config)
        words = lexicon + outside
        queries = [shingle(words[i % len(words)], config) for i in picks]
        rows = list(_count_histograms(queries, index, nested))
        assert len(rows) == len(queries)
        for query, histograms in zip(queries, rows):
            assert len(histograms) == len(index.docs)
            for (_, doc), (edges, counts) in zip(index.docs, histograms):
                seq = _count_seq(query, doc, nested)
                assert edges == len(seq)
                assert list(counts) == sorted(count for count in seq if count)


class TestMeanBoundsOracle:
    """``_mean_bounds`` holds ``_mean_score`` of the count list at every grid point."""

    @ORACLE
    @given(
        # few distinct counts, so values repeat and the loop's rounding accumulates
        seq=st.lists(st.sampled_from([0, 0, 1, 1, 2, 3, 40]), min_size=1, max_size=150),
        total=st.integers(0, 2000),
        distinct=st.integers(1, 40),
        order=st.randoms(use_true_random=False),
    )
    @example(  # without slack the loop's sum lands outside [lo, hi]
        seq=[5, 1, 3, 5, 0, 3, 2, 0, 3, 5, 3, 1, 0, 5, 0, 0, 0, 0, 40, 1, 3, 3, 3, 1, 0, 1,
             1, 3, 8, 2, 3],
        total=50, distinct=18, order=None,
    )
    def test_bounds_hold_the_mean_at_every_grid_point(self, seq, total, distinct, order):
        if order is not None:
            order.shuffle(seq)
        total = max(total, *seq)  # a model's total is at least each of its counts
        tables = [
            _power_table({0, *seq}, total, distinct, alpha, power)
            for alpha in DEFAULT_GRIDS["alpha"] for power in DEFAULT_GRIDS["power"]
        ]
        columns = {count: tuple(table[count] for table in tables) for count in tables[0]}
        bounds = _mean_bounds(len(seq), sorted(count for count in seq if count), columns)
        assert len(bounds) == 2 * len(tables)
        for j, table in enumerate(tables):
            assert bounds[j] <= _mean_score(seq, table) <= bounds[len(tables) + j]
