"""Brute-force oracles for the threshold search and batched sims, compared bit for bit.

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
            best, best_correct = (left + right) / 2.0, correct
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
