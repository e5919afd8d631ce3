"""Inverted shingle index over a lexicon plus similarity and ranking functions.

Every lexicon word is shingled once and treated as a tiny document of
tokens.  Because shingle sets contain no duplicates, term frequency is
binary and the classic formulas specialize accordingly:

* ``intersection``  |Q ∩ D|
* ``jaccard``       |Q ∩ D| / |Q ∪ D|
* ``dice``          2 |Q ∩ D| / (|Q| + |D|)
* ``xdice``         dice over extended bigram sets of the raw words
* ``tfidf``         sum over shared tokens of ln(1 + N / df)
* ``bm25``          sum of ln(1 + (N - df + 0.5) / (df + 0.5)) * (k1 + 1)
                    / (1 + k1 * (1 - b + b * |D| / avgdl))
* ``dirichlet``     |Q| * ln(mu / (mu + |D|)) + sum over shared tokens of
                    ln(1 + 1 / (mu * p(t|C))) with add-one collection
                    smoothing p(t|C) = (cf + 1) / (sum of |D| + |V| + 1),
                    where cf = df because term frequency is binary

Scores add left to right from 0.0 in explicit loops: ``sum()`` over
floats is compensated from Python 3.12, tying scores to the version.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ConfigError, DataError, InvalidWordError
from .shingling import ShinglerConfig, ShingleSet, normalize_word, shingle

RANKING_FUNCTIONS = (
    "intersection",
    "jaccard",
    "dice",
    "xdice",
    "tfidf",
    "bm25",
    "dirichlet",
)


@dataclass(frozen=True)
class RankerParams:
    """Ranking-function choice and its parameters."""

    function: str = "dirichlet"
    k1: float = 1.2
    b: float = 0.75
    mu: float = 10.0

    def __post_init__(self) -> None:
        if self.function not in RANKING_FUNCTIONS:
            raise ConfigError(
                f"unknown ranking function {self.function!r}; expected one of {RANKING_FUNCTIONS}"
            )
        if not 0.0 <= self.k1 < math.inf:
            raise ConfigError(f"k1 must be finite and >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ConfigError(f"b must be in [0, 1], got {self.b}")
        if not 0.0 < self.mu < math.inf:
            raise ConfigError(f"mu must be finite and > 0, got {self.mu}")


class LexiconIndex:
    """Inverted index with document and collection statistics.

    Duplicate words are kept as distinct documents; statistics reflect
    the list as given.
    """

    def __init__(self, lexicon: Sequence[str], config: ShinglerConfig):
        if not lexicon:
            raise ConfigError("lexicon must contain at least one word")
        self.config = config
        self.docs: list[tuple[str, ShingleSet]] = []
        df: Counter = Counter()
        total_len = 0
        for word in lexicon:
            doc = shingle(word, config)
            self.docs.append((doc.source_word, doc))
            total_len += len(doc)
            df.update(doc.tokens)
        self.doc_count = len(self.docs)
        self.df = dict(df)
        self.total_len = total_len
        self.avgdl = total_len / self.doc_count
        self.vocabulary_size = len(df)

    def __len__(self) -> int:
        return self.doc_count

    def background_prob(self, token: str) -> float:
        """Add-one smoothed collection probability of a token."""
        return (self.df.get(token, 0) + 1) / (self.total_len + self.vocabulary_size + 1)


def build_index(lexicon: Sequence[str], config: ShinglerConfig) -> LexiconIndex:
    return LexiconIndex(lexicon, config)


_PLAIN_BIGRAMS = ShinglerConfig((2,), "plain")


def extended_bigram_tokens(word: str) -> frozenset[str]:
    """Plain bigram shingles plus trigrams with the middle character removed."""
    bigrams = shingle(word, _PLAIN_BIGRAMS)
    word = bigrams.source_word
    tokens = set(bigrams.tokens)
    tokens.update(word[i] + word[i + 2] for i in range(len(word) - 2))
    return frozenset(tokens)


def _dice(a: frozenset[str], b: frozenset[str]) -> float:
    denom = len(a) + len(b)
    if denom == 0:
        return 1.0 if a == b else 0.0
    return 2.0 * len(a & b) / denom


def sim(
    query: ShingleSet,
    doc: ShingleSet,
    index: LexiconIndex,
    params: RankerParams,
) -> float:
    """Raw similarity of a query shingle set against one document."""
    function = params.function
    if function == "xdice":
        return _dice(
            extended_bigram_tokens(query.source_word),
            extended_bigram_tokens(doc.source_word),
        )
    # shared tokens in query generation order: summation order must not
    # depend on set iteration, or scores drift across processes
    shared = [t for t in query.tokens if t in doc.token_set]
    if function == "intersection":
        return float(len(shared))
    if function == "jaccard":
        union = len(query.token_set | doc.token_set)
        return len(shared) / union if union else 0.0
    if function == "dice":
        return _dice(query.token_set, doc.token_set)
    if function == "tfidf":
        n = index.doc_count
        # df can only be 0 for a document outside the index; score such
        # tokens like the rarest indexable ones instead of diverging.
        score = 0.0
        for token in shared:
            score += math.log(1.0 + n / max(index.df.get(token, 0), 1))
        return score
    if function == "bm25":
        n = index.doc_count
        norm = 1.0 + params.k1 * (1.0 - params.b + params.b * len(doc) / index.avgdl)
        score = 0.0
        for token in shared:
            df = index.df.get(token, 0)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            score += idf * (params.k1 + 1.0) / norm
        return score
    if function == "dirichlet":
        mu = params.mu
        score = len(query) * math.log(mu / (mu + len(doc)))
        for token in shared:
            score += math.log(1.0 + 1.0 / (mu * index.background_prob(token)))
        return score
    raise ConfigError(f"unknown ranking function {function!r}")


def order_scored(
    words: Sequence[str],
    scores: Sequence[float],
    k: Optional[int] = None,
) -> list[tuple[str, float]]:
    """Apply the shared ordering rule to scored words.

    Descending score; ties broken by ascending word, then by original
    position.  ``k`` truncates the result.
    """
    order = sorted(range(len(words)), key=lambda i: (-scores[i], words[i], i))
    if k is not None:
        order = order[:k]
    return [(words[i], scores[i]) for i in order]


def target_rank(words: Sequence[str], scores: Sequence[float], target: str) -> int:
    """1-based rank the target word receives under the shared tie rule.

    Equivalent to its position in :func:`order_scored` output (best
    occurrence when the word repeats) but computed without sorting:
    count the scores above the target's best score, and walk the
    (word, position) tie rule only when that score is shared.
    """
    try:
        best = scores[words.index(target)]
    except ValueError:
        raise DataError(f"target word {target!r} is not among the candidates") from None
    if words.count(target) > 1:
        best = max(score for word, score in zip(words, scores) if word == target)
    ahead = sum(1 for score in scores if score > best)
    if scores.count(best) > 1:
        # equal scores order by word; the target's own best occurrence
        # precedes its later duplicates, so only smaller words go ahead
        ahead += sum(1 for word, score in zip(words, scores) if score == best and word < target)
    return ahead + 1


def rank(
    query: str,
    index: LexiconIndex,
    params: Optional[RankerParams] = None,
    scorer=None,
    k: Optional[int] = None,
) -> list[tuple[str, float]]:
    """Score every indexed word against ``query`` and sort.

    With a plain :class:`RankerParams` the raw similarity is used; with a
    combined scorer (see :mod:`cognatekit.scorer`) the blended score is.
    """
    query_set = shingle(query, index.config)
    if scorer is not None:
        scores = scorer.score_candidates(query_set, index)
    elif params is not None:
        scores = [sim(query_set, doc, index, params) for _, doc in index.docs]
    else:
        raise ConfigError("rank needs ranker params or a combined scorer")
    words = [word for word, _ in index.docs]
    return order_scored(words, scores, k)


def load_lexicon(path) -> list[str]:
    """Read a one-word-per-line UTF-8 lexicon.

    Blank lines and lines starting with '#' are ignored.  Invalid words
    raise :class:`DataError` with their line number.
    """
    words = []
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read lexicon file {path}: {exc}") from exc
    with handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                words.append(normalize_word(line))
            except InvalidWordError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return words
