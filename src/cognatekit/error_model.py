"""Bipartite transformation graphs and the trained edge-frequency model.

For a word pair the tokens left over after removing the shared shingles
form two ordered sides, ``top`` (source) and ``bottom`` (target).  Empty
sides receive a placeholder token, the shorter side is padded with
placeholders inserted into its middle until the sides match, and every
top token is connected to every bottom token.  An edge such as
``(None, '4ss')`` reads "insert ss at position 4 of the source word".

Edge frequencies counted over known cognate pairs, with additive
smoothing, estimate how probable each transformation is; the mean of
the smoothed edge probabilities (raised to a strength exponent) scores
how plausibly one word transforms into the other.  Every model, trained
on words, fitted on a training split or built per cross-validation fold,
counts its graphs' edges with :func:`_edge_model`.  A model holds only
its edge counts and settings: it derives the total count and the
distinct edges plus one unseen class from the counts itself, so the two
can never disagree.

Every transformation score, whether from a trained :class:`ErrorModel`
or from cross-validated tuning, goes through one kernel: the graph's
edges are mapped, in edge order, to their counts, and the per-count
values ``((c + alpha) / (total + alpha * distinct)) ** power`` are added
left to right, starting from ``0.0``, in an explicit loop, then divided
by the number of edges.  The loop is deliberate: from Python 3.12
``sum()`` adds floats with compensated summation, which would make
scores, and the thresholds learned from them, depend on the interpreter
version.

Scoring builds no edge tuples.  Counts are kept nested, ``{top token:
{bottom token: count}}``, and :func:`_count_seq` reads them side by
side: for each top token in order, the counts of every bottom token in
order, which is the order of ``itertools.product(top, bottom)`` and so
of ``build_graph(s, t).edges``.  A top token that heads no counted edge
contributes ``len(bottom)`` zeros.  The count sequence therefore equals
``[counts.get(edge, 0) for edge in build_graph(s, t).edges]`` element
for element, and the score's summation order is unchanged.

Count histograms bound a score; they never become one.  The MRR tune
reads, through an index's postings, each document's edge count and
sorted nonzero counts (:func:`_count_histograms`), and turns each
distinct histogram into a certified interval around the loop's mean
(:func:`_mean_bounds`).  A rank reads the intervals and scores exactly,
with the loop above, only the documents whose interval it cannot
decide, so every float it compares is the kernel's.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import ConfigError, DataError, TrainingError
from .shingling import ShinglerConfig, ShingleSet, shingle

# Placeholder for an absent token; edges from/to it model pure
# insertions and deletions.  An edge is a (top token, bottom token)
# pair where either side may be the placeholder.
EMPTY_TOKEN: Optional[str] = None


def format_token(token: Optional[str]) -> str:
    return "∅" if token is None else token


@dataclass(frozen=True)
class ErrorGraph:
    """Complete directed bipartite graph for one word pair."""

    top: tuple
    bottom: tuple
    edges: tuple

    def __repr__(self) -> str:
        shown = ", ".join(f"{format_token(u)}→{format_token(v)}" for u, v in self.edges)
        return f"ErrorGraph({shown})"


def _sides(s: ShingleSet, t: ShingleSet) -> tuple[list, list]:
    """Top and bottom tokens of the pair's graph: unshared tokens, padded to one length."""
    if s.config != t.config:
        raise ConfigError(
            f"shingle sets built with different configs: {s.config} vs {t.config}"
        )
    common = s.token_set & t.token_set
    top: list = [tok for tok in s.tokens if tok not in common]
    bottom: list = [tok for tok in t.tokens if tok not in common]
    if not top:
        top.append(EMPTY_TOKEN)
    if not bottom:
        bottom.append(EMPTY_TOKEN)
    while len(top) < len(bottom):
        top.insert(len(top) // 2, EMPTY_TOKEN)
    while len(bottom) < len(top):
        bottom.insert(len(bottom) // 2, EMPTY_TOKEN)
    return top, bottom


def build_graph(s: ShingleSet, t: ShingleSet) -> ErrorGraph:
    """Construct the transformation graph between two shingle sets.

    Both sets must come from the same shingler configuration.  The
    returned graph always has at least one edge: identical words reduce
    to a single placeholder-to-placeholder edge.
    """
    top, bottom = _sides(s, t)
    return ErrorGraph(tuple(top), tuple(bottom), tuple(product(top, bottom)))


def _nest(edge_counts: Mapping) -> dict:
    """``{top token: {bottom token: count}}`` from counts keyed by edge."""
    nested: dict = {}
    for (u, v), count in edge_counts.items():
        nested.setdefault(u, {})[v] = count
    return nested


_NO_COUNTS: Mapping = {}  # the row of a top token that heads no counted edge


def _count_seq(s: ShingleSet, t: ShingleSet, nested: Mapping) -> list[int]:
    """Counts of the pair's graph edges, in edge order, read from nested counts."""
    top, bottom = _sides(s, t)
    rows = [nested.get(u, _NO_COUNTS) for u in top]
    return [row.get(v, 0) for row in rows for v in bottom]


def _power_table(
    counts: Iterable[int], total: int, distinct: int, alpha: float, power: float
) -> dict[int, float]:
    """Per-count memo of the powered smoothed probability of an edge."""
    denom = total + alpha * distinct
    return {c: ((c + alpha) / denom) ** power for c in counts}


def _mean_score(counts: Sequence[int], table: Mapping[int, float]) -> float:
    """Mean of ``table`` over a graph's edge counts, summed in edge order."""
    total = 0.0
    for c in counts:
        total += table[c]
    return total / len(counts)


def _mean_ceiling(table: Mapping[int, float], edges: int) -> float:
    """Upper bound on ``_mean_score`` over at most ``edges`` counts.

    The additions and the division each round up by at most a factor
    (1 + 2**-53); (1 + 2**-53) ** edges <= 1 + edges * 2**-52, a float
    held exactly, and ``nextafter`` covers rounding the product.
    """
    return math.nextafter(max(table.values()) * (1.0 + edges * 2.0**-52), math.inf)


def _count_histograms(queries: Iterable[ShingleSet], index, nested: Mapping) -> Iterator[list]:
    """Per query, ``(E, counts)`` of its graph with each document of ``index``.

    E is the edge count and ``counts`` the nonzero counts of the edges,
    sorted, with multiplicities: ``len`` and the nonzero ``Counter`` of
    ``_count_seq(query, doc, nested)``, read from the index's postings.
    With s shared tokens, a = |Q| - s and b = |D| - s real tokens on the
    two sides, and m = max(a, b, 1), each side is padded to m tokens, so
    E = m * m.  The counted edges are a real pair (u, v), found through
    ``postings[v]`` for each v in the row of a query token u, skipping
    documents that hold u (u is shared there) and any v in the query (a
    shared token, or one the document lacks); (u, ∅) for each real u,
    m - b times; (∅, v) for each real v, m - a times; and (∅, ∅), (m -
    a) * (m - b) times, which is nonzero only for identical token sets.
    """
    postings = index.postings
    insertions = nested.get(EMPTY_TOKEN, _NO_COUNTS)
    both_empty = insertions.get(EMPTY_TOKEN, 0)
    # the (∅, v) counts of a document that shares no token with the query
    inserted = [[insertions[v] for v in doc.tokens if v in insertions] for _, doc in index.docs]
    for query in queries:
        query_set = query.token_set
        shared: Counter = Counter()
        for token in query.tokens:
            shared.update(postings.get(token, ()))
        real: dict[int, list[int]] = {}
        deletions = []  # (u, count of (u, ∅)) for the query's tokens
        for u in query.tokens:
            row = nested.get(u)
            if row is None:
                continue
            holders = set(postings.get(u, ()))
            for v, count in row.items():
                if v is EMPTY_TOKEN:
                    deletions.append((u, count))
                elif v not in query_set:
                    for d in postings.get(v, ()):
                        if d not in holders:
                            real.setdefault(d, []).append(count)
        deleted = [count for _, count in deletions]  # those of a document sharing no token
        size = len(query)
        histograms = []
        for d, ((_, doc), length) in enumerate(zip(index.docs, index.doc_lens)):
            s = shared.get(d, 0)
            a, b = size - s, length - s
            counts = real.get(d, [])
            if a > b:
                if s:
                    held = doc.token_set
                    counts = counts + [c for u, c in deletions if u not in held] * (a - b)
                else:
                    counts = counts + deleted * (a - b)
            elif b > a:
                if s:
                    counts = counts + [
                        insertions[v] for v in doc.tokens if v in insertions and v not in query_set
                    ] * (b - a)
                else:
                    counts = counts + inserted[d] * (b - a)
            elif not a and both_empty:
                counts = counts + [both_empty]
            m = max(a, b, 1)
            histograms.append((m * m, tuple(sorted(counts))))
        yield histograms


def _mean_bounds(edges: int, counts: Sequence[int], columns: Mapping[int, tuple]) -> tuple:
    """Bounds on ``_mean_score`` of any ``edges`` counts whose nonzero ones are ``counts``.

    ``columns[c]`` holds the value of count c in each of k tables, in
    [0, 1]; the result holds k lower bounds, then k upper bounds, one
    per table.  Let u = 2**-53, E = ``edges``, S the exact sum of the E
    values and ŝ the loop's float sum.  Each of its E - 1 additions of
    nonnegative floats rounds by a factor within [1 - u, 1 + u] (a sum
    below the normal range is exact), so S * (1 - u)**(E-1) <= ŝ <=
    S * (1 + u)**(E-1): the gamma_E bound of recursive summation
    (Higham 2002, §4.2).  P, the ``fsum`` of the nonzero counts' values
    and of the product (number of zeros) * (value of 0), estimates S:
    the product rounds by a factor within [1 - u, 1 + u] (or is exact
    below the normal range, where every float is a multiple of
    2**-1074), and ``fsum`` rounds correctly, so S * (1 - u)**2 <= P <=
    S * (1 + u)**2.  Hence ŝ / P lies between (1 - u)**(E-1) / (1 + u)**2
    >= 1 - (E + 1) * u and (1 + u)**(E-1) / (1 - u)**2 <= 1 + 2 * (E +
    1) * u, as E * u <= 1/2, so within 1 ± f for f = (E + 2) * 2**-52.
    1 ± f is a float held exactly, and ``nextafter`` covers rounding the
    product by it.  Rounding is monotone, so the score, ŝ / E rounded,
    lies between the bounds on ŝ divided by E and rounded the same way,
    underflow included.
    """
    zeros = edges - len(counts)
    totals = [
        math.fsum(values)
        for values in zip(*map(columns.__getitem__, counts), [zeros * v for v in columns[0]])
    ]
    slack = (edges + 2) * 2.0**-52
    down, up = 1.0 - slack, 1.0 + slack
    return (
        *[math.nextafter(total * down, -math.inf) / edges for total in totals],
        *[math.nextafter(total * up, math.inf) / edges for total in totals],
    )


def _encode_edge(edge) -> str:
    u, v = edge
    return f"{u or ''}\t{v or ''}"


def _decode_edge(text: str):
    u, _, v = text.partition("\t")
    return (u or None, v or None)


@dataclass(frozen=True)
class ErrorModel:
    """Edge-frequency table with additive smoothing.

    ``total_count`` (the sum of the counts) and ``distinct_edges`` (the
    observed distinct edges plus one aggregate class for everything
    unseen, so unseen edges receive the smoothing floor without
    enumerating the edge universe) are derived from ``edge_counts``.
    ``power`` is the strength exponent applied to each edge probability
    before averaging.
    """

    config: ShinglerConfig
    edge_counts: Mapping
    alpha: float = 1.0
    power: float = 1.0
    total_count: int = field(init=False, compare=False)
    distinct_edges: int = field(init=False, compare=False)
    _table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ConfigError(f"smoothing pseudo-count must be finite and > 0, got {self.alpha}")
        if not 0 < self.power < math.inf:
            raise ConfigError(f"strength exponent must be finite and > 0, got {self.power}")
        if any(count < 0 for count in self.edge_counts.values()):
            raise ConfigError("edge counts must not be negative")
        object.__setattr__(self, "total_count", sum(self.edge_counts.values()))
        object.__setattr__(self, "distinct_edges", len(self.edge_counts) + 1)
        counts = set(self.edge_counts.values()) | {0}
        table = _power_table(counts, self.total_count, self.distinct_edges, self.alpha, self.power)
        object.__setattr__(self, "_table", table)

    @cached_property
    def _nested(self) -> dict:
        """The counts nested, built on first use: a tune's per-grid-point copies never read it."""
        return _nest(self.edge_counts)

    def transformation_score(self, s: ShingleSet, t: ShingleSet) -> float:
        """Mean of smoothed edge probabilities (each raised to ``power``)."""
        if s.config != self.config or t.config != self.config:
            raise ConfigError("shingle sets do not match the model's shingler config")
        return _mean_score(_count_seq(s, t, self._nested), self._table)

    def score_ceiling(self, max_tokens: int) -> float:
        """Upper bound on ``transformation_score`` of sets with at most ``max_tokens`` tokens.

        A graph has at most ``max_tokens ** 2`` edges, and as ``power`` > 0
        the largest count has the largest value.
        """
        return _mean_ceiling(self._table, max_tokens * max_tokens)

    def score_words(self, source: str, target: str) -> float:
        return self.transformation_score(
            shingle(source, self.config), shingle(target, self.config)
        )

    def to_dict(self) -> dict:
        """JSON-ready representation; lossless round-trip via :func:`model_from_dict`."""
        return {
            "edge_counts": {
                _encode_edge(edge): count
                for edge, count in sorted(
                    self.edge_counts.items(), key=lambda item: _encode_edge(item[0])
                )
            },
            "total_count": self.total_count,
            "distinct_edges": self.distinct_edges,
            "alpha": self.alpha,
            "q": self.power,
            "shingler_config": {
                "gram_sizes": list(self.config.gram_sizes),
                "mode": self.config.mode,
            },
        }


def _json_number(value, name: str) -> float:
    """A JSON number read as a float; a bool, a string or null is a DataError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"{name} must be a number, got {value!r}")
    return float(value)


def _json_int(value, name: str) -> int:
    """A JSON integer; a fraction, a bool, a string or null is a DataError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{name} must be an integer, got {value!r}")
    return value


def model_from_dict(payload: dict) -> ErrorModel:
    """Rebuild an :class:`ErrorModel` from its JSON representation.

    Counts must be JSON integers and ``alpha`` and ``q`` JSON numbers;
    ``total_count`` and ``distinct_edges`` must equal the values the
    counts give.
    """
    try:
        config = ShinglerConfig(
            tuple(payload["shingler_config"]["gram_sizes"]),
            payload["shingler_config"]["mode"],
        )
        if not isinstance(payload["edge_counts"], dict):
            raise DataError("edge_counts must be a JSON object")
        counts = {
            _decode_edge(key): _json_int(count, "an edge count")
            for key, count in payload["edge_counts"].items()
        }
        model = ErrorModel(
            config,
            counts,
            alpha=_json_number(payload["alpha"], "alpha"),
            power=_json_number(payload["q"], "q"),
        )
        for name in ("total_count", "distinct_edges"):
            derived = getattr(model, name)
            if _json_int(payload[name], name) != derived:
                raise DataError(f"{name} is {payload[name]}, but the edge counts give {derived}")
        return model
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed error-model document: {exc}") from exc


def _edge_model(
    config: ShinglerConfig, graphs: Iterable[Sequence], alpha: float = 1.0, power: float = 1.0
) -> ErrorModel:
    """A model counting every edge of ``graphs``, each an edge sequence, once per graph given."""
    counts: Counter = Counter()
    for edges in graphs:
        counts.update(edges)
    return ErrorModel(config, dict(counts), alpha, power)


def train_error_model(
    pairs: Sequence,
    config: ShinglerConfig,
    alpha: float = 1.0,
    power: float = 1.0,
) -> ErrorModel:
    """Count graph edges over cognate (source, target) word pairs.

    Only known-positive pairs belong here; the counts are insensitive to
    pair order.
    """
    if not pairs:
        raise TrainingError("training requires at least one cognate pair")
    graphs = (build_graph(shingle(s, config), shingle(t, config)).edges for s, t in pairs)
    return _edge_model(config, graphs, alpha, power)
