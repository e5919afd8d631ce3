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

Scores add left to right in explicit loops: ``sum()`` over floats is
compensated from Python 3.12, tying scores to the version.

The index keeps postings: each token's document ids, in document order.
One walk over the postings of the query's tokens scores a query against
every document.  Each weighted score is a length term (Dirichlet's
``|Q| * ln(mu / (mu + |D|))``, else ``0.0``), computed once per distinct
``|D|``, plus one weight per shared token, computed once per query token
(bm25's, which reads ``|D|``, once per token and distinct ``|D|``); the
set measures count shared tokens, and score once per (shared count,
size).  Tokens are visited in query order, so each document takes its
weights in the order :func:`sim` adds them, from the same start: the
summation order is unchanged and the floats equal ``sim``'s.  xdice gets postings over extended bigram tokens
on its first query.

The walk also yields the *hits*, the documents sharing a token with the
query.  Every other document scores what its size alone gives, its
size's *start*, so the non-hits form one *block* per size.  The start
row is built whole when every size starts at the same float, bit for
bit (bm25, tfidf and the set measures); otherwise (Dirichlet) the index
caches it per ranker parameters and query size, and each query copies
it.  Top-k consumers read only the hits and one start per block, never
all documents: :func:`rank` with ``k`` finds the k-th largest score
among the hits and k documents of each block, and :func:`sim_order`
sorts the hits and merges them with the blocks, lazily, for the combined
scorer's pruned rankings.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import filterfalse, islice
from typing import Collection, Iterable, Iterator, Optional, Sequence

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


# Smallest Dirichlet mu.  With mu >= 1e-6, mu / (mu + |D|) stays far above
# the smallest positive float, so ln(mu / (mu + |D|)) is finite, and
# 1 / (mu * p(t|C)) <= 1e6 * (sum of |D| + |V| + 1) cannot overflow.  A
# subnormal mu would make the first log(0) and the second inf.
MIN_MU = 1e-6

# Largest BM25 k1.  A token's idf is at most ln(2N + 2) < 50, and
# |D| / avgdl <= |D| * N < 1e20 (avgdl >= 1 / N once any document holds a
# token) for any N documents and word of |D| tokens that fit in memory.
# So with k1 <= 1e100, idf * (k1 + 1) and k1 * (1 - b + b * |D| / avgdl)
# stay below 1e122, and so does a query's sum of weights, far inside the
# float range.  A k1 near the largest float overflows them: a score of
# inf, or inf / inf = nan.
MAX_K1 = 1e100


@dataclass(frozen=True)
class RankerParams:
    """Ranking-function choice and its parameters.

    ``k1`` is in [0, :data:`MAX_K1`] and ``mu`` is at least :data:`MIN_MU`.
    """

    function: str = "dirichlet"
    k1: float = 1.2
    b: float = 0.75
    mu: float = 10.0

    def __post_init__(self) -> None:
        if self.function not in RANKING_FUNCTIONS:
            raise ConfigError(
                f"unknown ranking function {self.function!r}; expected one of {RANKING_FUNCTIONS}"
            )
        if not 0.0 <= self.k1 <= MAX_K1:
            raise ConfigError(f"k1 must be in [0, {MAX_K1}], got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ConfigError(f"b must be in [0, 1], got {self.b}")
        if not MIN_MU <= self.mu < math.inf:
            raise ConfigError(f"mu must be finite and >= {MIN_MU}, got {self.mu}")


# a token's ids, each set's size, and the ids of each size
_Postings = tuple[dict[str, list[int]], list[int], dict[int, list[int]]]


class LexiconIndex:
    """Inverted index with document and collection statistics.

    ``postings`` maps each token to the ids (positions in ``docs``) of
    the documents holding it, in document order; ``df`` is their count.
    ``words`` and ``doc_lens`` give each document's word and token count,
    and ``size_ids`` the ids of each token count.
    Documents are shingle sets made with ``config``, so callers that
    already hold them index without shingling again; :func:`build_index`
    shingles words.  Duplicate words are kept as distinct documents;
    statistics reflect the list as given.
    """

    def __init__(self, docs: Sequence[ShingleSet], config: ShinglerConfig):
        if not docs:
            raise ConfigError("lexicon must contain at least one word")
        self.config = config
        self.docs: list[tuple[str, ShingleSet]] = [(doc.source_word, doc) for doc in docs]
        self.words = [word for word, _ in self.docs]
        self.postings, self.doc_lens, self.size_ids = _postings(
            doc.tokens for _, doc in self.docs
        )
        self.df = {token: len(ids) for token, ids in self.postings.items()}
        self.doc_count = len(self.docs)
        self.total_len = sum(self.doc_lens)
        self.avgdl = self.total_len / self.doc_count
        self.vocabulary_size = len(self.postings)
        self._xdice: Optional[_Postings] = None
        self._start_rows: dict[tuple, list[float]] = {}

    def __len__(self) -> int:
        return self.doc_count

    def background_prob(self, token: str) -> float:
        """Add-one smoothed collection probability of a token."""
        return (self.df.get(token, 0) + 1) / (self.total_len + self.vocabulary_size + 1)

    def xdice_postings(self) -> _Postings:
        """Postings, sizes and ids by size over extended bigram tokens, built on first use."""
        if self._xdice is None:
            self._xdice = _postings(extended_bigram_tokens(word) for word in self.words)
        return self._xdice


def _postings(token_sets: Iterable[Collection[str]]) -> _Postings:
    """Each token's ids (positions in ``token_sets``), each set's size, each size's ids.

    Id lists are ascending.
    """
    postings: defaultdict[str, list[int]] = defaultdict(list)
    size_ids: defaultdict[int, list[int]] = defaultdict(list)
    sizes = []
    for i, tokens in enumerate(token_sets):
        sizes.append(len(tokens))
        size_ids[len(tokens)].append(i)
        for token in tokens:
            postings[token].append(i)
    return dict(postings), sizes, dict(size_ids)


def build_index(lexicon: Sequence[str], config: ShinglerConfig) -> LexiconIndex:
    return LexiconIndex([shingle(word, config) for word in lexicon], config)


_PLAIN_BIGRAMS = ShinglerConfig((2,), "plain")


def extended_bigram_tokens(word: str) -> frozenset[str]:
    """Plain bigram shingles plus trigrams with the middle character removed."""
    bigrams = shingle(word, _PLAIN_BIGRAMS)
    word = bigrams.source_word
    tokens = set(bigrams.tokens)
    tokens.update(word[i] + word[i + 2] for i in range(len(word) - 2))
    return frozenset(tokens)


# functions that weigh each shared token; the others count shared tokens
_WEIGHTED = ("tfidf", "bm25", "dirichlet")


def _count_score(function: str, shared: int, query_len: int, doc_len: int) -> float:
    """Score of a set measure from the shared-token count and both set sizes."""
    if function == "intersection":
        return float(shared)
    if function == "jaccard":
        union = query_len + doc_len - shared
        return shared / union if union else 0.0
    # dice and xdice; two empty sets are equal
    denom = query_len + doc_len
    return 2.0 * shared / denom if denom else 1.0


def _dice(a: frozenset[str], b: frozenset[str]) -> float:
    return _count_score("dice", len(a & b), len(a), len(b))


def _length_term(query_len: int, doc_len: int, params: RankerParams) -> float:
    """A weighted score before any shared token: it depends on the lengths only."""
    if params.function == "dirichlet":
        mu = params.mu
        return query_len * math.log(mu / (mu + doc_len))
    return 0.0


def _term_weight(token: str, doc_len: int, index: LexiconIndex, params: RankerParams) -> float:
    """What one shared token adds to a weighted score."""
    function = params.function
    n = index.doc_count
    if function == "tfidf":
        # df can only be 0 for a document outside the index; score such
        # tokens like the rarest indexable ones instead of diverging.
        return math.log(1.0 + n / max(index.df.get(token, 0), 1))
    if function == "bm25":
        df = index.df.get(token, 0)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        norm = 1.0 + params.k1 * (1.0 - params.b + params.b * doc_len / index.avgdl)
        return idf * (params.k1 + 1.0) / norm
    return math.log(1.0 + 1.0 / (params.mu * index.background_prob(token)))


def sim(
    query: ShingleSet,
    doc: ShingleSet,
    index: LexiconIndex,
    params: RankerParams,
) -> float:
    """Raw similarity of a query shingle set against one document."""
    return _sims([(query, doc)], index, params)[0]


def _sims(
    pairs: Iterable[tuple[ShingleSet, ShingleSet]], index: LexiconIndex, params: RankerParams
) -> list[float]:
    """:func:`sim` of each (query, document) pair, in order.

    A weighted score starts at its length term and adds its shared
    tokens' weights in query token order (not set order, which differs
    across processes).  Each token's weight is computed once per call
    (bm25's, which reads the document's size, once per token and size)
    and each length term once per (|Q|, |D|): both are pure functions of
    those keys, so every pair sums the same floats in the same order as
    a call of its own, bit for bit.
    """
    function = params.function
    if function == "xdice":
        return [
            _dice(extended_bigram_tokens(q.source_word), extended_bigram_tokens(d.source_word))
            for q, d in pairs
        ]
    if function not in _WEIGHTED:
        return [
            _count_score(function, sum(map(d.token_set.__contains__, q.tokens)), len(q), len(d))
            for q, d in pairs
        ]
    by_size = function == "bm25"
    weights: dict = {}
    starts: dict[tuple[int, int], float] = {}
    scores = []
    for query, doc in pairs:
        doc_len = len(doc)
        lens = (len(query), doc_len)
        score = starts.get(lens)
        if score is None:
            score = starts[lens] = _length_term(*lens, params)
        for token in filter(doc.token_set.__contains__, query.tokens):
            key = (token, doc_len) if by_size else token
            weight = weights.get(key)
            if weight is None:
                weight = weights[key] = _term_weight(token, doc_len, index, params)
            score += weight
        scores.append(score)
    return scores


def _query_postings(query: ShingleSet, index: LexiconIndex, function: str):
    """The postings, document sizes, ids by size and query tokens ``function`` walks."""
    if function == "xdice":
        return (*index.xdice_postings(), extended_bigram_tokens(query.source_word))
    return index.postings, index.doc_lens, index.size_ids, query.tokens


def _unshared_score(function: str, query_len: int, doc_len: int, params: RankerParams) -> float:
    """Raw score of a document that shares no token with the query: it depends on sizes only."""
    if function in _WEIGHTED:
        return _length_term(query_len, doc_len, params)
    return _count_score(function, 0, query_len, doc_len)


# the most start rows an index keeps; each is one float per document
_START_ROWS = 64


def _start_row(
    index: LexiconIndex, key: tuple, lens: Sequence[int], start: dict[int, float]
) -> list[float]:
    """A fresh row of each document's ``start`` score, in document order.

    A row whose sizes all start at the same float (the same bits: 0.0 is
    not -0.0) is built whole; any other row is built once per ``key``,
    kept on ``index`` and copied.
    """
    values = list(start.values())
    if len({value.hex() for value in values}) == 1:
        return [values[0]] * len(lens)
    rows = index._start_rows
    row = rows.get(key)
    if row is None:
        if len(rows) >= _START_ROWS:
            rows.clear()
        row = rows[key] = list(map(start.__getitem__, lens))
    return row.copy()


def _scored(query: ShingleSet, index: LexiconIndex, params: RankerParams):
    """One walk over the query's postings: ``raws, hits, size_ids, start``.

    ``raws`` is :func:`sim_all`'s row; ``hits`` holds the ids of the
    documents sharing a token with the query (a set, or for the set
    measures a counter of shared tokens); ``size_ids`` maps each
    document size to its ids, and ``start`` each size to the score of
    its documents outside the hits.
    """
    function = params.function
    postings, lens, size_ids, tokens = _query_postings(query, index, function)
    q = len(tokens)
    start = {n: _unshared_score(function, q, n, params) for n in size_ids}
    raws = _start_row(index, (params, q), lens, start)
    if function in _WEIGHTED:
        hits: set[int] = set()
        for token in tokens:
            ids = postings.get(token)
            if ids is None:
                continue
            hits.update(ids)
            if function == "bm25":  # the only weight that reads the document's size
                weight = {n: _term_weight(token, n, index, params) for n in start}
                for i in ids:
                    raws[i] += weight[lens[i]]
            else:
                token_weight = _term_weight(token, 0, index, params)
                for i in ids:
                    raws[i] += token_weight
        return raws, hits, size_ids, start
    shared: Counter[int] = Counter()
    for token in tokens:
        shared.update(postings.get(token, ()))
    score_of: dict[tuple[int, int], float] = {}
    for i, count in shared.items():
        key = (count, lens[i])
        score = score_of.get(key)
        if score is None:
            score = score_of[key] = _count_score(function, count, q, lens[i])
        raws[i] = score
    return raws, shared, size_ids, start


def sim_all(query: ShingleSet, index: LexiconIndex, params: RankerParams) -> list[float]:
    """:func:`sim` of ``query`` against every document, in document order.

    Walks the postings of the query's tokens only.  Each document starts
    at its length term and takes its shared tokens' weights in query
    token order, as in :func:`sim`, so the floats are the same.
    """
    return _scored(query, index, params)[0]


def sim_order(
    query: ShingleSet, index: LexiconIndex, params: RankerParams
) -> tuple[list[float], float, float, Iterator[int]]:
    """The query's :func:`sim_all` row, its min and max, and every id once by raw score.

    The ids come in non-increasing raw score.  The hits are sorted by
    raw score; every other document scores its size's start, so the
    others form one block per size, ordered by that score, and a block's
    ids are read only when the walk reaches it.  The min and max come
    from the sorted hits' ends and the starts of the blocks that hold a
    document.  Consumers stop early, so a walk costs the sort of the hits
    plus the ids it yields.
    """
    raws, hits, size_ids, start = _scored(query, index, params)
    score = raws.__getitem__
    ranked = sorted(hits, key=score, reverse=True)
    ends = [score(ranked[0]), score(ranked[-1])] if ranked else []
    ends += [start[n] for n, ids in size_ids.items() if not all(map(hits.__contains__, ids))]
    sizes = sorted(size_ids, key=start.__getitem__, reverse=True)
    rest = (i for n in sizes for i in size_ids[n] if i not in hits)
    return raws, min(ends), max(ends), heapq.merge(ranked, rest, key=score, reverse=True)


def _top_candidates(raws, hits, size_ids, start, k: int) -> list[int]:
    """Ids of the documents whose raw score reaches the k-th largest; k is below their count.

    Reads :func:`_scored`'s output.  The k-th largest is found among the
    hits and up to k documents of each block: a block's other documents
    only repeat its start.
    """
    is_hit = hits.__contains__
    pool = [raws[i] for i in hits]
    for n, ids in size_ids.items():
        pool += [start[n]] * len(list(islice(filterfalse(is_hit, ids), k)))
    kth = heapq.nlargest(k, pool)[-1]
    reaching = [i for i in hits if raws[i] >= kth]
    for n, ids in size_ids.items():
        if start[n] >= kth:
            reaching += filterfalse(is_hit, ids)
    return reaching


def _check_top(k: Optional[int]) -> None:
    if k is not None and k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")


def order_scored(
    words: Sequence[str],
    scores: Sequence[float],
    k: Optional[int] = None,
) -> list[tuple[str, float]]:
    """Apply the shared ordering rule to scored words.

    Descending score; ties broken by ascending word, then by original
    position.  ``k`` (at least 1) keeps the first k: only the scores that
    reach the k-th largest are sorted.
    """
    _check_top(k)
    ids = range(len(words))
    if k is not None and k < len(words):
        kth = heapq.nlargest(k, scores)[-1]
        ids = [i for i in ids if scores[i] >= kth]
    order = sorted(ids, key=lambda i: (-scores[i], words[i], i))[:k]
    return [(words[i], scores[i]) for i in order]


def _position(words: Sequence[str], target: str) -> int:
    """Index of the target's first occurrence among the candidate words."""
    try:
        return words.index(target)
    except ValueError:
        raise DataError(f"target word {target!r} is not among the candidates") from None


def target_rank(words: Sequence[str], scores: Sequence[float], target: str) -> int:
    """1-based rank the target word receives under the shared tie rule.

    Equivalent to its position in :func:`order_scored` output (best
    occurrence when the word repeats) but computed without sorting:
    count the scores above the target's best score, and walk the
    (word, position) tie rule only when that score is shared.
    """
    best = scores[_position(words, target)]
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
    """Score the indexed words against ``query`` and sort.

    With a plain :class:`RankerParams` the raw similarity is used, and
    with ``k`` only the documents reaching the k-th largest are sorted.
    With a combined scorer (see :mod:`cognatekit.scorer`) the blended
    score is, and with ``k`` only the documents that can still reach the
    top k get a transformation score.
    """
    _check_top(k)
    query_set = shingle(query, index.config)
    words = index.words
    if scorer is not None:
        if k is None:
            return order_scored(words, scorer.score_candidates(query_set, index))
        scored = scorer.score_top(query_set, index, k)
    elif params is not None:
        raws, hits, size_ids, start = _scored(query_set, index, params)
        if k is None or k >= len(raws):
            return order_scored(words, raws, k)
        scored = {i: raws[i] for i in _top_candidates(raws, hits, size_ids, start, k)}
    else:
        raise ConfigError("rank needs ranker params or a combined scorer")
    ids = sorted(scored)
    return order_scored([words[i] for i in ids], [scored[i] for i in ids], k)


def _read_lines(path, kind: str) -> list[str]:
    """The lines of a UTF-8 text file, a leading byte-order mark dropped.

    An unreadable or undecodable file is a DataError.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.readlines()
    except OSError as exc:
        raise DataError(f"cannot read {kind} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{kind} file {path} is not valid UTF-8: {exc}") from exc


def load_lexicon(path) -> list[str]:
    """Read a one-word-per-line UTF-8 lexicon.

    Blank lines and lines starting with '#' are ignored; a leading
    byte-order mark is dropped.  Invalid words
    raise :class:`DataError` with their line number; a file that holds
    no word or is not UTF-8 raises it too.
    """
    words = []
    for lineno, raw in enumerate(_read_lines(path, "lexicon"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            words.append(normalize_word(line))
        except InvalidWordError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    if not words:
        raise DataError(f"lexicon file {path} holds no word")
    return words
