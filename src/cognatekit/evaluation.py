"""Experiment harness: datasets, splits, tuning, and the two experiments.

Experiment 1 (classification): decide cognate / non-cognate for held-out
labeled pairs and report accuracy.  Experiment 2 (retrieval): rank a
target-language lexicon for each held-out cognate's source word and
report the mean reciprocal rank of the true target.

Hyperparameters are chosen by :func:`tune`, a k-fold cross-validated
grid search on the training split; pinned values replace their grids,
and nothing is searched once every grid holds one value.  All
randomness flows from one seed and splits are keyed to stable pair
identity, so results do not depend on input file order.

MRR cost: only the true target's rank is read.  ``eval_mrr`` asks the
system for ``target_rank``, and the pipeline answers with the
bound-ordered walk of :mod:`cognatekit.scorer`, never sorting.

Training words are shingled, and cognate graphs built, once per run:
:func:`run_experiment` and ``cognatekit train`` make one
:class:`ShingledPairs` of the training split, which holds each distinct
word's set and each distinct cognate's edges, and both tunes and both
fits read it.  Test words are shingled when they are classified or
ranked.  Tuning runs fold by fold: each fold fits its error model,
builds the rows its grid points read (sims per (mu, k1, b),
transformation scores per (alpha, power)), scores every grid
combination and is dropped, so one fold's rows are alive at a time.
A combination that reads the same parameter values as an earlier one
(weight 0 ignores mu/k1/b, weight 1 ignores alpha/power) is skipped, as
it could only tie.  The accuracy tune scores a count sequence per pair,
once per distinct sequence and (alpha, power).  The MRR tune ranks
each validation cognate's target among all training targets, so it
reads count histograms from the postings instead: one certified
interval per distinct histogram and (alpha, power) decides most ranks,
and a document's count sequence is built, once, only where an interval
cannot (at weight 0, where it reaches the target's score; above weight
0, where the walk ``eval_mrr`` uses reaches, bounded by the largest
interval end; at weight 1 the walk reads none).  Every float compared is
computed by the same expressions in the same order as a model trained
on the fold, so results are equal.

A system is anything with the two methods the experiments read:
``classify(source, target) -> bool`` and ``target_rank(query, lexicon,
target) -> int``, the 1-based position of ``target`` in the ranking of
``lexicon`` for ``query``.  :class:`PipelineSystem` views a trained
:class:`~cognatekit.scorer.CombinedScorer` this way and
:class:`BaselineSystem` a string-similarity baseline.  The harness and
``cognatekit train`` train every scorer with :func:`fit_pipeline`, and
every report is built by :func:`evaluate`.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import asdict, dataclass, replace
from operator import itemgetter
from typing import Optional, Sequence

from .baselines import baseline_similarity
from .errors import ConfigError, DataError, InvalidWordError, TrainingError
from .error_model import (
    ErrorModel,
    _count_histograms,
    _count_seq,
    _edge_model,
    _mean_bounds,
    _mean_score,
    build_graph,
)
from .ranking import (
    LexiconIndex,
    RankerParams,
    _position,
    _read_lines,
    _sims,
    build_index,
    sim_all,
    target_rank,
)
from .scorer import (
    CombinedScorer,
    _blend,
    _check_sim_weight,
    _check_threshold,
    _normalize,
    _walked_rank,
    learn_threshold,
    train_scorer,
)
from .shingling import ShinglerConfig, normalize_word, shingle


@dataclass(frozen=True)
class LabeledPair:
    source: str
    target: str
    label: bool
    language_pair: str = ""

    @property
    def identity(self) -> tuple:
        return (self.source, self.target, self.label, self.language_pair)


def load_dataset(path, language_pair: str = "") -> list[LabeledPair]:
    """Read a UTF-8 TSV dataset of ``source<TAB>target<TAB>label`` lines.

    Labels are 0/1; blank lines are skipped; a leading byte-order mark
    is dropped.  Any malformed line raises :class:`DataError` with its
    line number, and so does a file that is not UTF-8.
    """
    pairs = []
    for lineno, raw in enumerate(_read_lines(path, "dataset"), 1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
        source, target, label = fields
        if label not in ("0", "1"):
            raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {label!r}")
        try:
            pairs.append(
                LabeledPair(
                    normalize_word(source.strip()),
                    normalize_word(target.strip()),
                    label == "1",
                    language_pair,
                )
            )
        except InvalidWordError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    if not pairs:
        raise DataError(f"{path}: dataset is empty")
    return pairs


class ShingledPairs:
    """Labeled pairs with each distinct word shingled and each distinct cognate graphed once.

    ``sets`` maps every word of ``pairs`` to its shingle set under
    ``config``, and ``edges`` each distinct cognate (source, target) to
    its graph's edges.  :func:`tune` and :func:`fit_pipeline` read them.
    """

    def __init__(self, pairs: Sequence[LabeledPair], config: ShinglerConfig):
        self.pairs = list(pairs)
        self.config = config
        words = dict.fromkeys(word for p in self.pairs for word in (p.source, p.target))
        self.sets = {word: shingle(word, config) for word in words}
        cognates = dict.fromkeys((p.source, p.target) for p in self.pairs if p.label)
        self.edges = {(s, t): build_graph(self.sets[s], self.sets[t]).edges for s, t in cognates}

    def error_model(
        self, pairs: Sequence[LabeledPair], alpha: float = 1.0, power: float = 1.0
    ) -> ErrorModel:
        """The edges of the cognates among ``pairs``, counted once per row."""
        graphs = (self.edges[p.source, p.target] for p in pairs if p.label)
        return _edge_model(self.config, graphs, alpha, power)


def _label_groups(pairs: Sequence[LabeledPair]) -> list[list[LabeledPair]]:
    """Cognates first, then non-cognates, each sorted by stable identity."""
    groups = []
    for wanted in (True, False):
        group = sorted((p for p in pairs if p.label == wanted), key=lambda p: p.identity)
        if group:
            groups.append(group)
    return groups


def split(
    pairs: Sequence[LabeledPair], seed: int = 42
) -> tuple[list[LabeledPair], list[LabeledPair]]:
    """Deterministic stratified 3:1 train/test split.

    The test side gets floor(n / 4) pairs, allocated across labels by
    largest remainder.  Membership depends only on the pairs'
    identities and the seed, never on input order.
    """
    n = len(pairs)
    if n < 4:
        raise DataError(f"need at least 4 labeled pairs to split, got {n}")
    rng = random.Random(seed)
    groups = _label_groups(pairs)
    for group in groups:
        rng.shuffle(group)
    test_fraction = 0.25
    test_total = int(n * test_fraction)
    quotas = [len(g) * test_fraction for g in groups]
    base = [int(q) for q in quotas]
    leftover = test_total - sum(base)
    by_remainder = sorted(
        range(len(groups)), key=lambda i: (-(quotas[i] - base[i]), i)
    )
    for i in by_remainder[:leftover]:
        base[i] += 1
    train: list[LabeledPair] = []
    test: list[LabeledPair] = []
    for group, take in zip(groups, base):
        test.extend(group[:take])
        train.extend(group[take:])
    return train, test


def stratified_folds(
    pairs: Sequence[LabeledPair], folds: int, seed: int
) -> list[list[LabeledPair]]:
    """Assign pairs to folds round-robin within shuffled label groups."""
    k = max(1, min(folds, len(pairs)))
    rng = random.Random(seed)
    assigned: list[list[LabeledPair]] = [[] for _ in range(k)]
    counter = 0
    for group in _label_groups(pairs):
        rng.shuffle(group)
        for pair in group:
            assigned[counter % k].append(pair)
            counter += 1
    return [fold for fold in assigned if fold]


def eval_classification(system, pairs: Sequence[LabeledPair]) -> float:
    """Fraction of pairs whose predicted label matches the truth."""
    if not pairs:
        raise DataError("cannot evaluate classification on an empty pair list")
    correct = sum(system.classify(p.source, p.target) == p.label for p in pairs)
    return correct / len(pairs)


def eval_mrr(
    system,
    pairs: Sequence[LabeledPair],
    lexicon: Sequence[str],
) -> tuple[float, list[int]]:
    """Mean reciprocal rank of the true targets over the positive pairs.

    Every true target must be present in the lexicon; a missing one is a
    data error naming the word.
    """
    queries = [p for p in pairs if p.label]
    if not queries:
        raise DataError("no positive pairs to rank")
    words = [normalize_word(w) for w in lexicon]
    available = set(words)
    for pair in queries:
        if pair.target not in available:
            raise DataError(f"true target {pair.target!r} is missing from the lexicon")
    ranks = [system.target_rank(pair.source, words, pair.target) for pair in queries]
    return _mean([1.0 / r for r in ranks]), ranks


def _mean(values: Sequence[float]) -> float:
    """Mean summed left to right from 0.0: sum() over floats is compensated from 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


class PipelineSystem:
    """A trained :class:`CombinedScorer` as an experiment system.

    ``classify`` uses the scorer's trained bounds and threshold;
    ``target_rank`` normalizes per query over the lexicon, whose index
    is built once per lexicon.
    """

    def __init__(self, scorer: CombinedScorer):
        self.scorer = scorer
        self._per_query = scorer.with_config(normalization="per_query_minmax")
        self._indexes: dict[tuple, LexiconIndex] = {}

    def classify(self, source: str, target: str) -> bool:
        return self.scorer.classify(source, target)

    def target_rank(self, query: str, lexicon: Sequence[str], target: str) -> int:
        """1-based position of ``target`` in the ranking of ``lexicon`` for ``query``."""
        config = self.scorer.shingler_config
        key = tuple(lexicon)
        index = self._indexes.get(key)
        if index is None:
            index = self._indexes[key] = build_index(lexicon, config)
        return self._per_query.target_rank(shingle(query, config), index, target)


class BaselineSystem:
    """A string-similarity baseline, its threshold learned on ``train_pairs``."""

    def __init__(self, method: str, train_pairs: Sequence[LabeledPair]):
        self.method = method
        self.threshold = learn_threshold(
            [baseline_similarity(method, p.source, p.target) for p in train_pairs],
            [p.label for p in train_pairs],
        )

    def classify(self, source: str, target: str) -> bool:
        return baseline_similarity(self.method, source, target) >= self.threshold

    def target_rank(self, query: str, lexicon: Sequence[str], target: str) -> int:
        """1-based position of ``target`` in the ranking of ``lexicon`` for ``query``."""
        words = list(lexicon)
        scores = [baseline_similarity(self.method, query, word) for word in words]
        return target_rank(words, scores, target)


DEFAULT_GRIDS = {
    "sim_weight": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
    "power": [0.25, 0.5, 1.0, 2.0, 4.0],
    "alpha": [1.0],
    "mu": [1.0, 5.0, 10.0, 50.0, 100.0],
    "k1": [1.2],
    "b": [0.75],
}
GRID_KEYS = ("sim_weight", "power", "alpha", "mu", "k1", "b")


def _resolve_grids(
    grids: Optional[dict], function: str, use_error_model: bool
) -> dict[str, list]:
    merged = {key: list(values) for key, values in DEFAULT_GRIDS.items()}
    if grids:
        for key, values in grids.items():
            if key not in merged:
                raise ConfigError(f"unknown grid parameter {key!r}")
            merged[key] = list(values)
    for weight in merged["sim_weight"]:
        _check_sim_weight(weight)
    # Irrelevant dimensions collapse to their first value so the search
    # space only covers parameters the configuration can feel.
    if function != "dirichlet":
        merged["mu"] = merged["mu"][:1]
    if function != "bm25":
        merged["k1"] = merged["k1"][:1]
        merged["b"] = merged["b"][:1]
    if not use_error_model:
        merged["sim_weight"] = [1.0]
        merged["power"] = merged["power"][:1]
        merged["alpha"] = merged["alpha"][:1]
    for key, values in merged.items():
        if not values:
            raise ConfigError(f"grid for {key!r} is empty")
    return merged


def _effective_key(combo: dict) -> tuple:
    """The grid values a combo's scores read: _blend reads one side at weights 0 and 1."""
    weight = combo["sim_weight"]
    if weight == 0.0:
        return (0.0, combo["power"], combo["alpha"])
    if weight == 1.0:
        return (1.0, combo["mu"], combo["k1"], combo["b"])
    return tuple(combo[key] for key in GRID_KEYS)


def _sim_keys(combos: Sequence[dict], wanted) -> list[tuple]:
    """The distinct (mu, k1, b) of the combos whose weight ``wanted`` accepts."""
    return list(dict.fromkeys(
        (c["mu"], c["k1"], c["b"]) for c in combos if wanted(c["sim_weight"])
    ))


def _trans_rows(model, rows, combos: Sequence[dict]) -> dict[tuple, list[list[float]]]:
    """Rows of count sequences scored at each (alpha, power) a combo below weight 1 reads.

    ``rows`` is consumed only if some combo reads it.  Each distinct
    sequence is scored once per grid point with ``model``'s table there,
    so tuning and a model trained on the same positives agree.
    """
    points = dict.fromkeys((c["alpha"], c["power"]) for c in combos if c["sim_weight"] < 1.0)
    if not points:
        return {}
    ids: dict[tuple, int] = {}
    id_rows = [[ids.setdefault(tuple(seq), len(ids)) for seq in row] for row in rows]
    scored = {}
    for alpha, power in points:
        table = replace(model, alpha=alpha, power=power)._table
        values = [_mean_score(seq, table) for seq in ids]
        scored[alpha, power] = [[values[i] for i in row] for row in id_rows]
    return scored


def _fold_accuracy(sets, model, function, train, val, combos) -> list[float]:
    """Each combo's accuracy on ``val``, sims normalized and threshold learned on ``train``.

    ``sets`` maps each word of the pairs to its shingle set.
    """
    keys = _sim_keys(combos, lambda weight: weight > 0.0)
    if keys:
        index = LexiconIndex([sets[p.target] for p in train], model.config)
        both = [(sets[p.source], sets[p.target]) for part in (train, val) for p in part]
    norms = {}
    for mu, k1, b in keys:
        raws = _sims(both, index, RankerParams(function, k1=k1, b=b, mu=mu))
        tr_raw, val_raw = raws[:len(train)], raws[len(train):]
        lo, hi = min(tr_raw), max(tr_raw)
        norms[mu, k1, b] = (_normalize(tr_raw, lo, hi), _normalize(val_raw, lo, hi))
    trans = _trans_rows(
        model,
        ([_count_seq(sets[p.source], sets[p.target], model._nested) for p in part]
         for part in (train, val)),
        combos,
    )
    labels = [p.label for p in train]
    scores = []
    for combo in combos:
        # _blend reads only the norms at weight 1 and only the trans at weight 0
        weight = combo["sim_weight"]
        tr_norm, val_norm = norms.get((combo["mu"], combo["k1"], combo["b"]), ([], []))
        tr_trans, val_trans = trans.get((combo["alpha"], combo["power"]), ([], []))
        threshold = learn_threshold(_blend(weight, tr_norm, tr_trans), labels)
        correct = sum(
            (score >= threshold) == pair.label
            for score, pair in zip(_blend(weight, val_norm, val_trans), val)
        )
        scores.append(correct / len(val))
    return scores


def _bounded_rank(words, target, lows, highs, trans) -> int:
    """1-based rank of ``target`` among the scores ``trans(i)`` of ``words``, read from bounds.

    ``lows[i] <= trans(i) <= highs[i]``.  A word whose interval lies
    above the target's exact score t outranks it and one whose interval
    lies below does not; only those whose interval reaches t are scored,
    and ranked among themselves with the word tie rule.  Equal to
    ``target_rank(words, [trans(i) ...], target)``.
    """
    t = trans(_position(words, target))
    if words.count(target) > 1:
        t = max(trans(i) for i, word in enumerate(words) if word == target)
    reaching = list(itertools.compress(range(len(highs)), map(t.__le__, highs)))
    near = [i for i in reaching if lows[i] <= t]
    ahead = len(reaching) - len(near)  # lows[i] > t
    return ahead + target_rank([words[i] for i in near], [trans(i) for i in near], target)


def _fold_mrr(sets, model, function, queries, index, combos) -> Optional[list[float]]:
    """Each combo's MRR of the validation cognates ``queries`` over ``index``.

    ``None`` when the fold has no validation cognate.  Sims are
    normalized per query.  Transformation scores are bounded from each
    document's count histogram, one interval per distinct histogram and
    (alpha, power), and computed exactly, from one count list per
    (query, document), only where a rank depends on them: at weight 0
    where an interval reaches the target's score, and at weights
    strictly between 0 and 1 where the walk of :mod:`cognatekit.scorer`
    reaches, bounded by the row's largest interval end.  At weight 1 the
    walk reads the sims alone.
    """
    if not queries:
        return None
    sources = [sets[p.source] for p in queries]
    norms = {}
    for mu, k1, b in _sim_keys(combos, lambda weight: weight > 0.0):
        params = RankerParams(function, k1=k1, b=b, mu=mu)
        rows = norms[mu, k1, b] = []
        for source in sources:
            raw = sim_all(source, index, params)
            rows.append(_normalize(raw, min(raw), max(raw)))
    orders = {
        key: [sorted(range(len(row)), key=row.__getitem__, reverse=True) for row in rows]
        for key, rows in norms.items()
    }
    points = dict.fromkeys((c["alpha"], c["power"]) for c in combos if c["sim_weight"] < 1.0)
    zero = {(c["alpha"], c["power"]) for c in combos if c["sim_weight"] == 0.0}
    tables = [replace(model, alpha=alpha, power=power)._table for alpha, power in points]
    nested, docs, words = model._nested, index.docs, index.words
    columns = {count: tuple(table[count] for table in tables) for count in model._table}
    # per query: the exact score, the largest interval end, the rank at weight 0
    trans = {point: [] for point in points}
    intervals: dict[tuple, tuple] = {}  # by histogram: a lower bound per table, then an upper
    histogram_rows = _count_histograms(sources, index, nested) if points else ()
    for p, source, histograms in zip(queries, sources, histogram_rows):
        for histogram in histograms:
            if histogram not in intervals:
                intervals[histogram] = _mean_bounds(*histogram, columns)
        rows = [intervals[histogram] for histogram in histograms]
        # one count list per (query, document), built on first use
        seq = functools.cache(lambda i, source=source: _count_seq(source, docs[i][1], nested))
        for j, (point, table) in enumerate(zip(points, tables)):
            highs = list(map(itemgetter(len(tables) + j), rows))
            exact = functools.cache(lambda i, table=table, seq=seq: _mean_score(seq(i), table))
            rank = None
            if point in zero:
                lows = list(map(itemgetter(j), rows))
                rank = _bounded_rank(words, p.target, lows, highs, exact)
            trans[point].append((exact, max(highs), rank))
    intervals.clear()  # the combos read only exact scores, ceilings and ranks
    scores = []
    for combo in combos:
        weight = combo["sim_weight"]
        trans_key = (combo["alpha"], combo["power"])
        if weight == 0.0:  # the transformation scores decide alone
            ranks = [rank for _, _, rank in trans[trans_key]]
        else:
            sim_key = (combo["mu"], combo["k1"], combo["b"])
            # at weight 1 the walk reads no exact score and no ceiling
            parts = trans[trans_key] if weight < 1.0 else itertools.repeat((None, None, None))
            ranks = [
                _walked_rank(
                    weight, words, p.target, order, norm_row.__getitem__, exact, ceiling
                )
                for p, norm_row, order, (exact, ceiling, _) in zip(
                    queries, norms[sim_key], orders[sim_key], parts
                )
            ]
        scores.append(_mean([1.0 / r for r in ranks]))
    return scores


def _check_folds(folds: int) -> None:
    if folds < 2:
        raise ConfigError(f"cross-validation needs at least 2 folds, got {folds}")


def tune(
    shingled: ShingledPairs,
    ranker_function: str,
    use_error_model: bool = True,
    fixed: Optional[dict] = None,
    grids: Optional[dict] = None,
    folds: int = 5,
    seed: int = 42,
    objective: str = "accuracy",
) -> dict:
    """Cross-validated grid search; returns the winning hyperparameters.

    ``fixed`` pins any of :data:`GRID_KEYS` to one value, which replaces
    that key's grid.  When every grid holds one value nothing is
    searched: the values are returned with ``"objective": "fixed"``, and
    ``folds`` and ``objective`` are not read.

    ``objective`` is ``accuracy`` (classification) or ``mrr`` (ranking
    the training targets).  ``folds`` must be at least 2 and ``shingled``
    hold at least 2 pairs, so that no fold validates on its own training
    pairs.  Ties go to the earliest combination in grid order.  A
    combination whose scores provably equal an earlier one's (the same
    values of every parameter it reads) is not scored: it could only
    tie.  Folds are scored one at a time, each on every combination.
    """
    search = {key: list(values) for key, values in (grids or {}).items()}
    for key, value in (fixed or {}).items():
        if key not in GRID_KEYS:
            raise ConfigError(f"unknown hyperparameter {key!r}")
        search[key] = [value]
    merged = _resolve_grids(search, ranker_function, use_error_model)
    if all(len(values) == 1 for values in merged.values()):
        return {**{key: values[0] for key, values in merged.items()}, "objective": "fixed"}
    if objective not in ("accuracy", "mrr"):
        raise ConfigError(f"unknown tuning objective {objective!r}")
    _check_folds(folds)
    pairs = shingled.pairs
    if len(pairs) < 2:
        raise TrainingError(f"cross-validation needs at least 2 training pairs, got {len(pairs)}")
    first: dict[tuple, dict] = {}
    for values in itertools.product(*(merged[key] for key in GRID_KEYS)):
        combo = dict(zip(GRID_KEYS, values))
        first.setdefault(_effective_key(combo), combo)  # a later equal combo could only tie
    combos = list(first.values())
    fold_groups = stratified_folds(pairs, folds, seed)
    splits = [
        ([p for j, fold in enumerate(fold_groups) if j != i for p in fold], val)
        for i, val in enumerate(fold_groups)
    ]
    if use_error_model and not all(any(p.label for p in train) for train, _ in splits):
        raise TrainingError("a cross-validation fold has no positive training pairs")
    sets = shingled.sets
    if objective == "mrr":
        lexicon = {sets[p.target].source_word: sets[p.target] for p in pairs}
        lexicon_index = LexiconIndex(list(lexicon.values()), shingled.config)

    fold_scores: list[list[float]] = [[] for _ in combos]
    for train, val in splits:
        model = shingled.error_model(train if use_error_model else ())
        if objective == "accuracy":
            scores = _fold_accuracy(sets, model, ranker_function, train, val, combos)
        else:
            queries = [p for p in val if p.label]
            scores = _fold_mrr(sets, model, ranker_function, queries, lexicon_index, combos)
        if scores is not None:
            for kept, score in zip(fold_scores, scores):
                kept.append(score)
    if not fold_scores[0]:
        raise TrainingError("no fold produced a tuning score (no positive pairs?)")
    means = [_mean(kept) for kept in fold_scores]
    best = max(range(len(combos)), key=means.__getitem__)  # the first of equal maxima
    resolved = dict(combos[best])
    resolved["cv_score"] = means[best]
    resolved["objective"] = objective
    resolved["folds"] = len(splits)
    return resolved


@dataclass
class EvalReport:
    """Results of one tuned experiment run."""

    label: str
    accuracy: float
    mrr: float
    per_query_ranks: list[int]
    hyperparameters: dict
    seed: int
    train_size: int
    test_size: int
    lexicon_size: int

    def to_dict(self) -> dict:
        return asdict(self)


def dataset_lexicon(
    pairs: Sequence[LabeledPair], extra: Optional[Sequence[str]] = None
) -> list[str]:
    """Deduplicated target-side words of the dataset, plus optional extras."""
    words = [p.target for p in pairs]
    if extra:
        words.extend(normalize_word(w) for w in extra)
    return list(dict.fromkeys(words))


def fit_pipeline(
    shingled: ShingledPairs,
    ranker_function: str,
    resolved: dict,
    threshold: Optional[float] = None,
) -> CombinedScorer:
    """Train a scorer on ``shingled``'s pairs with resolved hyperparameters.

    ``resolved`` holds sim_weight/power/alpha/mu/k1/b, as returned by
    :func:`tune`, tuned or pinned; the threshold is learned unless given.
    The error model counts the edges of every cognate row, so a repeated
    row counts twice, and the scorer indexes the training targets' sets.
    """
    if not any(p.label for p in shingled.pairs):
        raise TrainingError("training requires at least one positive (cognate) pair")
    sets = shingled.sets
    return train_scorer(
        [(sets[p.source], sets[p.target], p.label) for p in shingled.pairs],
        shingled.error_model(shingled.pairs, resolved["alpha"], resolved["power"]),
        RankerParams(ranker_function, k1=resolved["k1"], b=resolved["b"], mu=resolved["mu"]),
        sim_weight=resolved["sim_weight"],
        threshold=threshold,
    )


def evaluate(
    classifier,
    ranker,
    pairs: Sequence[LabeledPair],
    seed: int,
    label: str,
    hyperparameters: dict,
    extra_lexicon: Optional[Sequence[str]] = None,
) -> EvalReport:
    """Both experiments on the test side of ``pairs``' split by ``seed``.

    ``classifier`` labels the test pairs; ``ranker`` ranks the dataset's
    targets, plus ``extra_lexicon``, for each test cognate.
    """
    train, test = split(pairs, seed)
    accuracy = eval_classification(classifier, test)
    lexicon = dataset_lexicon(pairs, extra_lexicon)
    mrr, ranks = eval_mrr(ranker, test, lexicon)
    return EvalReport(
        label=label,
        accuracy=accuracy,
        mrr=mrr,
        per_query_ranks=ranks,
        hyperparameters=hyperparameters,
        seed=seed,
        train_size=len(train),
        test_size=len(test),
        lexicon_size=len(lexicon),
    )


def run_experiment(
    pairs: Sequence[LabeledPair],
    shingler_config: ShinglerConfig,
    ranker_function: str,
    use_error_model: bool = True,
    seed: int = 42,
    grids: Optional[dict] = None,
    folds: int = 5,
    fixed: Optional[dict] = None,
    extra_lexicon: Optional[Sequence[str]] = None,
) -> EvalReport:
    """Split, tune, fit, and evaluate both experiments.

    Each experiment is tuned on its own metric: accuracy for
    classification, mean reciprocal rank for retrieval (a weight that is
    best for deciding cognate/non-cognate can be useless for ranking).
    ``fixed`` may pin any of sim_weight/power/alpha/mu/k1/b/threshold;
    pinned values become singleton grids, and tuning is skipped entirely
    when nothing is left to search.  Without the error model the grids
    pin sim_weight to 1.
    """
    fixed = dict(fixed or {})
    threshold = fixed.pop("threshold", None)
    if threshold is not None:
        _check_threshold(threshold)
    shingled = ShingledPairs(split(pairs, seed)[0], shingler_config)

    def resolve(objective: str) -> dict:
        return tune(shingled, ranker_function, use_error_model=use_error_model, fixed=fixed,
                    grids=grids, folds=folds, seed=seed, objective=objective)

    resolved_cls = resolve("accuracy")
    classifier = fit_pipeline(shingled, ranker_function, resolved_cls, threshold)
    if resolved_cls.get("objective") == "fixed":
        resolved_rank, ranker = resolved_cls, classifier
    else:
        resolved_rank = resolve("mrr")
        ranker = fit_pipeline(shingled, ranker_function, resolved_rank)

    hyperparameters = {
        "function": ranker_function,
        "mode": shingler_config.mode,
        "gram_sizes": list(shingler_config.gram_sizes),
        "use_error_model": use_error_model,
        "threshold": classifier.config.threshold,
        "classification": resolved_cls,
        "ranking": resolved_rank,
    }
    ends = {"plain": "0-ended", "one_end": "1-ended", "two_end": "2-ended"}
    sizes = "+".join(str(k) for k in shingler_config.gram_sizes)
    label = f"{sizes}-gram {ends[shingler_config.mode]} {ranker_function}"
    if use_error_model:
        label += " + error model"
    systems = PipelineSystem(classifier), PipelineSystem(ranker)
    return evaluate(*systems, pairs, seed, label, hyperparameters, extra_lexicon)


def run_baseline_experiment(
    pairs: Sequence[LabeledPair],
    method: str,
    seed: int = 42,
    extra_lexicon: Optional[Sequence[str]] = None,
) -> EvalReport:
    """Split, learn the baseline threshold on train, and evaluate on test."""
    train, _ = split(pairs, seed)
    system = BaselineSystem(method, train)
    hyperparameters = {"method": method, "threshold": system.threshold}
    return evaluate(system, system, pairs, seed, method, hyperparameters, extra_lexicon)


@dataclass(frozen=True)
class AblationCell:
    """One configuration of the ablation grid."""

    mode: str
    gram_sizes: tuple[int, ...]
    function: str
    use_error_model: bool


DEFAULT_ABLATION_CELLS = (
    AblationCell("plain", (2,), "tfidf", False),
    AblationCell("one_end", (2,), "tfidf", False),
    AblationCell("two_end", (2,), "tfidf", False),
    AblationCell("two_end", (2, 3), "tfidf", False),
    AblationCell("two_end", (2,), "bm25", False),
    AblationCell("two_end", (2,), "dirichlet", False),
    AblationCell("two_end", (2,), "bm25", True),
    AblationCell("two_end", (2,), "dirichlet", True),
)


def ablation(
    pairs: Sequence[LabeledPair],
    cells: Sequence[AblationCell] = DEFAULT_ABLATION_CELLS,
    seed: int = 42,
    grids: Optional[dict] = None,
    folds: int = 5,
    extra_lexicon: Optional[Sequence[str]] = None,
) -> list[EvalReport]:
    """One tuned run per grid cell; when any cell tunes, ``folds`` is checked first."""
    if not cells:
        raise ConfigError("ablation grid is empty")
    if any(
        len(values) > 1
        for cell in cells
        for values in _resolve_grids(grids, cell.function, cell.use_error_model).values()
    ):
        _check_folds(folds)
    return [
        run_experiment(pairs, ShinglerConfig(cell.gram_sizes, cell.mode), cell.function,
                       use_error_model=cell.use_error_model, seed=seed, grids=grids,
                       folds=folds, extra_lexicon=extra_lexicon)
        for cell in cells
    ]


def format_report_table(reports: Sequence[EvalReport]) -> str:
    """Aligned plain-text table of accuracy and MRR per configuration."""
    rows = [("configuration", "acc", "mrr", "train", "test")]
    for report in reports:
        rows.append(
            (
                report.label,
                f"{report.accuracy:.2f}",
                f"{report.mrr:.2f}",
                str(report.train_size),
                str(report.test_size),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
