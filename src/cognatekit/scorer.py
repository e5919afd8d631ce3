"""Weighted blend of retrieval similarity and the transformation score.

The raw retrieval similarity is unbounded, so it is first mapped into
[0, 1]: per query over the candidate set when ranking, or with min/max
bounds learned from training pairs when classifying single pairs.  The
blended score is

    sim_weight * normalized_similarity + (1 - sim_weight) * transformation_score

and a pair is called a cognate when the blend reaches the decision
threshold.

``_normalize`` and ``_blend`` are the only implementations of the two
formulas; the scorer, :func:`train_scorer` and CV tuning call them.  The
clamp in ``_normalize`` acts only on trained bounds: per-query bounds
have lo <= r <= hi, and rounding is monotone, so 0 <= r - lo <= hi - lo.

Pruned rankings walk documents in non-increasing normalized similarity.
A document's bound blends its normalized similarity with a ceiling on
the transformation score; both formulas are monotone in each input, and
so is rounding, so bounds never increase along the walk and no exact
score exceeds its bound.  The walk stops at the first bound strictly
below the threshold: no later document can pass it, and one that ties
is still scored, so the word tie rule decides.  The threshold is the
k-th best exact score so far in ``score_top``, and the target's exact
score in ``_walked_rank``, the one rank walk, which serves both
``target_rank`` and the MRR tune of :mod:`cognatekit.evaluation`.  This
is Fagin's Threshold Algorithm (Fagin, Lotem & Naor, JCSS 2003).  At
weight 1 a bound is the exact score, so no transformation score is read;
at weight 0 every bound is the ceiling, so callers blend the full row.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate, compress, islice
from operator import add, itemgetter, ne, sub
from typing import Optional, Sequence

from .errors import ConfigError, TrainingError
from .error_model import ErrorModel
from .ranking import (
    LexiconIndex,
    RankerParams,
    _position,
    _sims,
    sim,
    sim_all,
    sim_order,
    target_rank,
)
from .shingling import ShinglerConfig, ShingleSet, shingle

NORMALIZATION_MODES = ("per_query_minmax", "trained_minmax")


def _normalize(raws: Sequence[float], lo: float, hi: float) -> list[float]:
    """Min/max-scale raw sims into [0, 1]; bounds with hi <= lo carry no signal: 0.5."""
    if not hi > lo:
        return [0.5] * len(raws)
    span = hi - lo
    # min(1.0, max(0.0, x)) without two calls per element
    return [(x if x < 1.0 else 1.0) if x > 0.0 else 0.0 for x in [(r - lo) / span for r in raws]]


def _blend(weight: float, norms: Sequence[float], trans: Sequence[float]) -> Sequence[float]:
    """Elementwise weight * norm + (1 - weight) * trans; weights 1 and 0 read one side."""
    if weight == 1.0:
        return norms
    if weight == 0.0:
        return trans
    rest = 1.0 - weight
    return [weight * n + rest * t for n, t in zip(norms, trans)]


def _check_sim_weight(weight: float) -> None:
    """Reject a blend weight outside [0, 1], NaN included."""
    if not 0.0 <= weight <= 1.0:
        raise ConfigError(f"similarity weight must be in [0, 1], got {weight}")


def _check_threshold(threshold: float) -> None:
    """Reject a decision threshold outside [0, 1], NaN included."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must be in [0, 1], got {threshold}")


@dataclass(frozen=True)
class ScoreConfig:
    """Blend weight, ranking function, normalization mode, and threshold."""

    sim_weight: float = 0.6
    ranker: RankerParams = field(default_factory=RankerParams)
    normalization: str = "trained_minmax"
    threshold: float = 0.5

    def __post_init__(self) -> None:
        _check_sim_weight(self.sim_weight)
        _check_threshold(self.threshold)
        if self.normalization not in NORMALIZATION_MODES:
            raise ConfigError(
                f"unknown normalization {self.normalization!r}; "
                f"expected one of {NORMALIZATION_MODES}"
            )


class CombinedScorer:
    """Immutable scorer pairing a trained transformation model with an index."""

    def __init__(
        self,
        config: ScoreConfig,
        error_model: ErrorModel,
        index: LexiconIndex,
        sim_min: Optional[float] = None,
        sim_max: Optional[float] = None,
    ):
        if error_model.config != index.config:
            raise ConfigError("error model and index use different shingler configs")
        if (sim_min is None) != (sim_max is None):
            raise TrainingError("normalization bounds need both min and max, or neither")
        if sim_min is not None and sim_max is not None and not (
            math.isfinite(sim_min) and math.isfinite(sim_max) and sim_min < sim_max
        ):
            raise TrainingError(
                f"normalization bounds must be finite with min < max, got [{sim_min}, {sim_max}]"
            )
        self.config = config
        self.error_model = error_model
        self.index = index
        self.sim_min = sim_min
        self.sim_max = sim_max

    @property
    def shingler_config(self) -> ShinglerConfig:
        return self.error_model.config

    def with_config(self, **changes) -> "CombinedScorer":
        return CombinedScorer(
            replace(self.config, **changes),
            self.error_model,
            self.index,
            self.sim_min,
            self.sim_max,
        )

    def _trained_bounds(self) -> tuple[float, float]:
        if self.sim_min is None or self.sim_max is None:
            raise TrainingError("normalization bounds were never learned")
        return self.sim_min, self.sim_max

    def combined_score(self, s: ShingleSet, t: ShingleSet) -> float:
        """Blended score of a single pair, in [0, 1].

        Under per-query normalization a lone pair is its own candidate
        set, so its bounds coincide, its normalized similarity is 0.5
        and the transformation score decides.
        """
        w = self.config.sim_weight
        norms = [0.5]
        if self.config.normalization == "trained_minmax":
            bounds = self._trained_bounds()
            if w > 0.0:
                norms = _normalize([sim(s, t, self.index, self.config.ranker)], *bounds)
        trans = [] if w == 1.0 else [self.error_model.transformation_score(s, t)]
        return _blend(w, norms, trans)[0]

    def score_pair(self, source: str, target: str) -> float:
        cfg = self.shingler_config
        return self.combined_score(shingle(source, cfg), shingle(target, cfg))

    def classify(self, source: str, target: str) -> bool:
        """True when the pair's blended score reaches the threshold."""
        return self.score_pair(source, target) >= self.config.threshold

    def _check_index(self, index: LexiconIndex) -> None:
        if index.config != self.shingler_config:
            raise ConfigError("index does not match the scorer's shingler config")

    def _sim_bounds(self, raws: Sequence[float]) -> tuple[float, float]:
        """The (lo, hi) that normalize ``raws``: their own min/max, or the trained bounds."""
        if self.config.normalization == "per_query_minmax":
            return min(raws), max(raws)
        return self._trained_bounds()

    def score_candidates(self, query: ShingleSet, index: LexiconIndex) -> list[float]:
        """Blended scores for every document of ``index``, in document order."""
        self._check_index(index)
        w = self.config.sim_weight
        norms = trans = []
        if w > 0.0:
            raws = sim_all(query, index, self.config.ranker)
            norms = _normalize(raws, *self._sim_bounds(raws))
        if w < 1.0:
            trans = [self.error_model.transformation_score(query, doc) for _, doc in index.docs]
        return _blend(w, norms, trans)

    def _walk(self, query: ShingleSet, index: LexiconIndex):
        """``_walked_rank``'s ``order, norm, trans, ceiling`` for ``query`` over ``index``.

        Ids come in non-increasing raw similarity, from the same postings
        pass that gives the per-query bounds, and only the documents a
        walk reaches are normalized and scored.
        """
        raws, lo, hi, order = sim_order(query, index, self.config.ranker)
        if self.config.normalization == "trained_minmax":
            lo, hi = self._trained_bounds()
        model = self.error_model

        def norm(i: int) -> float:
            return _normalize([raws[i]], lo, hi)[0]

        def trans(i: int) -> float:
            return model.transformation_score(query, index.docs[i][1])

        ceiling = model.score_ceiling(max(len(query), max(index.size_ids)))
        return order, norm, trans, ceiling

    def score_top(self, query: ShingleSet, index: LexiconIndex, k: int) -> dict[int, float]:
        """Blended scores, by document id, of documents that include the best ``k``.

        The walk's threshold is the k-th best exact score so far.
        """
        self._check_index(index)
        w = self.config.sim_weight
        if w == 0.0:  # every bound is the ceiling: no bound to prune with
            return dict(enumerate(self.score_candidates(query, index)))
        order, norm, trans, ceiling = self._walk(query, index)
        bound_trans = [ceiling]
        scored: dict[int, float] = {}
        top: list[float] = []  # min-heap of the k best exact scores so far
        for i in order:
            n = [norm(i)]
            if len(top) == k and _blend(w, n, bound_trans)[0] < top[0]:
                break
            score = scored[i] = _blend(w, n, [] if w == 1.0 else [trans(i)])[0]
            if len(top) < k:
                heapq.heappush(top, score)
            elif score > top[0]:
                heapq.heapreplace(top, score)
        return scored

    def target_rank(self, query: ShingleSet, index: LexiconIndex, target: str) -> int:
        """1-based rank of ``target`` among the blended scores of ``index``'s documents.

        Equal to its position in the full ranking; see :func:`_walked_rank`.
        """
        self._check_index(index)
        w = self.config.sim_weight
        if w == 0.0:  # every bound is the ceiling: no bound to prune with
            return target_rank(index.words, self.score_candidates(query, index), target)
        return _walked_rank(w, index.words, target, *self._walk(query, index))


def _walked_rank(weight, words, target, order, norm, trans, ceiling) -> int:
    """1-based rank of ``target`` among the blended scores of ``words``, walked by bound.

    ``order`` yields every id once, in non-increasing ``norm(i)``;
    ``norm(i)`` and ``trans(i)`` are one document's parts, and no
    ``trans(i)`` exceeds ``ceiling``.  The walk stops at the first bound
    strictly below the target's exact score.  At weight 1 neither
    ``trans`` nor ``ceiling`` is read.
    """
    t = _position(words, target)
    target_trans = [] if weight == 1.0 else [trans(t)]
    best = _blend(weight, [norm(t)], target_trans)[0]
    bound_trans = [ceiling]
    ids: list[int] = []
    norms: list[float] = []
    for i in order:
        n = norm(i)
        if _blend(weight, [n], bound_trans)[0] < best:
            break
        ids.append(i)
        norms.append(n)
    walked = [] if weight == 1.0 else [target_trans[0] if i == t else trans(i) for i in ids]
    return target_rank([words[i] for i in ids], _blend(weight, norms, walked), target)


def learn_threshold(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Accuracy-maximizing cutoff over midpoints of adjacent distinct scores.

    Classification is ``score >= threshold``; ties between candidates go
    to the smallest threshold.  A single distinct score is its own
    candidate, returned as ``scores[0]``.  Scores must be finite.

    One stable sort of the ids by score, then one scan of the boundaries
    between unequal neighbours.  At the boundary below the ``j``-th
    lowest score, correct = j - 2 * (positives among the j lowest) + all
    positives, so the best boundary is the first maximum of ``j - 2 *
    positives``.  Equal scores are one run (0.0 == -0.0), and a midpoint
    ``(left + right) / 2.0`` does not depend on which equal float stands
    for its run (x + 0.0 == x + -0.0 for x != 0), so the result equals
    that of a search over the distinct values, bit for bit.  Where
    ``left + right`` overflows, the midpoint is ``left / 2.0 + right /
    2.0``: halving a value that large is exact, so it lies between them.
    """
    n = len(scores)
    if not n or n != len(labels):
        raise TrainingError("threshold search needs one label per score")
    if not all(map(math.isfinite, scores)):
        raise TrainingError("threshold search needs finite scores")
    ranked = sorted(range(n), key=scores.__getitem__)
    values = list(map(scores.__getitem__, ranked))
    positive = list(map(bool, map(labels.__getitem__, ranked)))
    # j - 2 * positives among the j lowest, for j = 1 .. n - 1
    gains = map(sub, range(1, n), accumulate(map(add, positive, positive)))
    boundaries = map(ne, values, islice(values, 1, None))
    best = max(compress(zip(gains, range(1, n)), boundaries), key=itemgetter(0), default=None)
    if best is None:
        return scores[0]
    left, right = values[best[1] - 1], values[best[1]]
    middle = (left + right) / 2.0
    return middle if math.isfinite(middle) else left / 2.0 + right / 2.0


def train_scorer(
    sets: Sequence[tuple[ShingleSet, ShingleSet, bool]],
    error_model: ErrorModel,
    ranker: RankerParams,
    sim_weight: float = 0.6,
    threshold: Optional[float] = None,
) -> CombinedScorer:
    """Fit a classification-mode scorer on labeled (source set, target set, label) triples.

    ``error_model`` is the trained transformation model, its shingler
    config the sets'.  The similarity bounds come from raw sims of all
    training pairs against an index over the training targets; the
    threshold, unless given, is learned on the blended training scores
    of those same raw sims.
    """
    _check_sim_weight(sim_weight)
    if not sets:
        raise TrainingError("training requires at least one labeled pair")
    if any(s.config != error_model.config or t.config != error_model.config for s, t, _ in sets):
        raise ConfigError("shingle sets do not match the error model's shingler config")
    index = LexiconIndex([t for _, t, _ in sets], error_model.config)
    raws = _sims([(s, t) for s, t, _ in sets], index, ranker)
    sim_min, sim_max = min(raws), max(raws)
    if not sim_min < sim_max:
        raise TrainingError(
            "all training pairs have identical raw similarity; cannot learn bounds"
        )
    if threshold is None:
        trans = []
        if sim_weight < 1.0:
            trans = [error_model.transformation_score(s, t) for s, t, _ in sets]
        scores = _blend(sim_weight, _normalize(raws, sim_min, sim_max), trans)
        threshold = learn_threshold(scores, [label for _, _, label in sets])
    config = ScoreConfig(sim_weight, ranker, "trained_minmax", threshold)
    return CombinedScorer(config, error_model, index, sim_min, sim_max)
