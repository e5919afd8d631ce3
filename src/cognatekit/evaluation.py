"""Experiment harness: datasets, splits, tuning, and the two experiments.

Experiment 1 (classification): decide cognate / non-cognate for held-out
labeled pairs and report accuracy.  Experiment 2 (retrieval): rank a
target-language lexicon for each held-out cognate's source word and
report the mean reciprocal rank of the true target.

Hyperparameters are chosen by k-fold cross-validated grid search on the
training split; all randomness flows from one seed and splits are keyed
to stable pair identity, so results do not depend on input file order.

MRR cost: only the true target's rank is read.  ``eval_mrr`` asks the
system for ``target_rank``, and the pipeline answers with the
bound-ordered walk of :mod:`cognatekit.scorer`, never sorting.  In
``tune`` the transformation scores of a fold's query x word pairs come
from count sequences, scored once per distinct sequence and (alpha,
power), and a grid combination that reads the same parameter values as
an earlier one (weight 0 ignores mu/k1/b, weight 1 ignores alpha/power)
is skipped, as it could only tie.  For weights strictly between 0 and 1
the MRR tune ranks each target with the same walk, over cached rows.
Every float is computed by the same expressions in the same order as a
full ranking, so results are equal.

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

import itertools
import math
import random
from collections import Counter
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

from .baselines import baseline_similarity
from .errors import ConfigError, DataError, InvalidWordError, TrainingError
from .error_model import _count_seq, _fit, _mean_score, build_graph
from .ranking import (
    LexiconIndex,
    RankerParams,
    _read_lines,
    build_index,
    sim,
    sim_all,
    target_rank,
)
from .scorer import (
    CombinedScorer,
    _blend,
    _normalize,
    _walked_rank,
    learn_threshold,
    train_scorer,
)
from .shingling import ShinglerConfig, ShingleSet, normalize_word, shingle


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


def _label_groups(pairs: Sequence[LabeledPair]) -> list[list[LabeledPair]]:
    """Cognates first, then non-cognates, each sorted by stable identity."""
    groups = []
    for wanted in (True, False):
        group = sorted((p for p in pairs if p.label == wanted), key=lambda p: p.identity)
        if group:
            groups.append(group)
    return groups


def split(
    pairs: Sequence[LabeledPair],
    seed: int = 42,
    test_fraction: float = 0.25,
) -> tuple[list[LabeledPair], list[LabeledPair]]:
    """Deterministic stratified train/test split (3:1 by default).

    The test side gets floor(n * test_fraction) pairs, allocated across
    labels by largest remainder.  Membership depends only on the pairs'
    identities and the seed, never on input order.
    """
    n = len(pairs)
    if n < 4:
        raise DataError(f"need at least 4 labeled pairs to split, got {n}")
    rng = random.Random(seed)
    groups = _label_groups(pairs)
    for group in groups:
        rng.shuffle(group)
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


class _TuneCache:
    """Fold-independent work of one tune call: shingle sets, and positives' graph edges."""

    def __init__(self, config: ShinglerConfig):
        self.config = config
        self._sets: dict[str, ShingleSet] = {}
        self._edges: dict[tuple[str, str], tuple] = {}

    def shingle_set(self, word: str) -> ShingleSet:
        cached = self._sets.get(word)
        if cached is None:
            cached = self._sets[word] = shingle(word, self.config)
        return cached

    def edges(self, source: str, target: str) -> tuple:
        """Graph edges of a positive pair, counted by every fold that trains on it."""
        key = (source, target)
        cached = self._edges.get(key)
        if cached is None:
            cached = build_graph(self.shingle_set(source), self.shingle_set(target)).edges
            self._edges[key] = cached
        return cached


def _distinct_rows(rows) -> tuple[list[list[int]], list[tuple]]:
    """Rows of count sequences as rows of ids into the distinct sequences."""
    ids: dict[tuple, int] = {}
    id_rows = [[ids.setdefault(tuple(seq), len(ids)) for seq in row] for row in rows]
    return id_rows, list(ids)


def _score_rows(grouped: tuple[list[list[int]], list[tuple]], table) -> list[list[float]]:
    """Score each distinct count sequence once and spread the scores over the rows."""
    id_rows, distinct = grouped
    values = [_mean_score(seq, table) for seq in distinct]
    return [[values[i] for i in row] for row in id_rows]


class _FoldCache:
    """Per-fold precomputation shared by every grid combination.

    ``model`` is the error model of the fold's positive training pairs,
    built as :func:`~cognatekit.error_model.train_error_model` builds
    one, and each pair's count sequence is read from its nested counts.
    Equal sequences get one id; every (alpha, power) grid point scores
    each distinct sequence once with that model's table, so tuning and a
    model trained on the fold's positives compute the same value.  The
    ranking rows feed the walk of :mod:`cognatekit.scorer`: ``norm_orders``
    is its order and ``trans_maxima`` its ceilings.
    """

    def __init__(self, shared: _TuneCache, train, val, function, use_error_model, lexicon_index):
        self.shared = shared
        self.train = train
        self.val = val
        self.function = function
        self.queries = [p for p in val if p.label]
        self._index: Optional[LexiconIndex] = None
        self._norm: dict[tuple, tuple[list[float], list[float]]] = {}
        self._trans: dict[tuple, tuple[list[float], list[float]]] = {}
        self._norm_rows: dict[tuple, list[list[float]]] = {}
        self._norm_orders: dict[tuple, list[list[int]]] = {}
        self._trans_rows: dict[tuple, list[list[float]]] = {}
        self._trans_maxima: dict[tuple, list[float]] = {}
        self._pair_ids: Optional[tuple[list[list[int]], list[tuple]]] = None
        self._row_ids: Optional[tuple[list[list[int]], list[tuple]]] = None
        counts: Counter = Counter()
        if use_error_model:
            positives = [p for p in train if p.label]
            if not positives:
                raise TrainingError("a cross-validation fold has no positive training pairs")
            for p in positives:
                counts.update(shared.edges(p.source, p.target))
        self.model = _fit(counts, shared.config)
        self.lexicon_index = lexicon_index

    def _table(self, alpha, power) -> dict[int, float]:
        return replace(self.model, alpha=alpha, power=power)._table

    def _params(self, mu: float, k1: float, b: float) -> RankerParams:
        return RankerParams(self.function, k1=k1, b=b, mu=mu)

    def norm_sims(self, mu, k1, b) -> tuple[list[float], list[float]]:
        """Raw sims normalized with the training side's min/max bounds."""
        key = (mu, k1, b)
        cached = self._norm.get(key)
        if cached is None:
            params = self._params(mu, k1, b)
            sets = self.shared.shingle_set
            if self._index is None:
                self._index = build_index([p.target for p in self.train], self.shared.config)
            tr_raw, val_raw = (
                [sim(sets(p.source), sets(p.target), self._index, params) for p in part]
                for part in (self.train, self.val)
            )
            lo, hi = min(tr_raw), max(tr_raw)
            cached = (_normalize(tr_raw, lo, hi), _normalize(val_raw, lo, hi))
            self._norm[key] = cached
        return cached

    def transformation(self, alpha, power) -> tuple[list[float], list[float]]:
        key = (alpha, power)
        cached = self._trans.get(key)
        if cached is None:
            if self._pair_ids is None:
                sets, nested = self.shared.shingle_set, self.model._nested
                self._pair_ids = _distinct_rows(
                    [_count_seq(sets(p.source), sets(p.target), nested) for p in part]
                    for part in (self.train, self.val)
                )
            cached = tuple(_score_rows(self._pair_ids, self._table(alpha, power)))
            self._trans[key] = cached
        return cached

    # ranking-objective caches: one row per validation query over the lexicon

    def norm_rows(self, mu, k1, b) -> list[list[float]]:
        """Raw sims of each query over the lexicon, min/max-normalized per query."""
        key = (mu, k1, b)
        cached = self._norm_rows.get(key)
        if cached is None:
            params = self._params(mu, k1, b)
            cached = []
            for p in self.queries:
                raw = sim_all(self.shared.shingle_set(p.source), self.lexicon_index, params)
                cached.append(_normalize(raw, min(raw), max(raw)))
            self._norm_rows[key] = cached
        return cached

    def norm_orders(self, mu, k1, b) -> list[list[int]]:
        """Each query's document ids by normalized sim, descending."""
        key = (mu, k1, b)
        cached = self._norm_orders.get(key)
        if cached is None:
            cached = [
                sorted(range(len(row)), key=row.__getitem__, reverse=True)
                for row in self.norm_rows(mu, k1, b)
            ]
            self._norm_orders[key] = cached
        return cached

    def trans_rows(self, alpha, power) -> list[list[float]]:
        key = (alpha, power)
        cached = self._trans_rows.get(key)
        if cached is None:
            if self._row_ids is None:
                docs = [doc for _, doc in self.lexicon_index.docs]
                sources = [self.shared.shingle_set(p.source) for p in self.queries]
                nested = self.model._nested
                self._row_ids = _distinct_rows(
                    [_count_seq(source, doc, nested) for doc in docs] for source in sources
                )
            cached = _score_rows(self._row_ids, self._table(alpha, power))
            self._trans_rows[key] = cached
        return cached

    def trans_maxima(self, alpha, power) -> list[float]:
        """Each query's largest transformation score over the lexicon."""
        key = (alpha, power)
        cached = self._trans_maxima.get(key)
        if cached is None:
            cached = self._trans_maxima[key] = [max(row) for row in self.trans_rows(alpha, power)]
        return cached


def _combo_accuracy(cache: _FoldCache, combo: dict) -> float:
    # _blend reads only the norms at weight 1 and only the trans at weight 0
    weight = combo["sim_weight"]
    tr_norm = val_norm = tr_trans = val_trans = []
    if weight > 0.0:
        tr_norm, val_norm = cache.norm_sims(combo["mu"], combo["k1"], combo["b"])
    if weight < 1.0:
        tr_trans, val_trans = cache.transformation(combo["alpha"], combo["power"])
    tr_scores = _blend(weight, tr_norm, tr_trans)
    val_scores = _blend(weight, val_norm, val_trans)
    threshold = learn_threshold(tr_scores, [p.label for p in cache.train])
    correct = sum(
        (score >= threshold) == pair.label
        for score, pair in zip(val_scores, cache.val)
    )
    return correct / len(cache.val)


def _combo_mrr(cache: _FoldCache, combo: dict, lex_words: list[str]) -> Optional[float]:
    queries = cache.queries
    if not queries:
        return None
    weight = combo["sim_weight"]
    if weight in (0.0, 1.0):  # one side decides alone: no bound to prune with
        rows = (
            cache.norm_rows(combo["mu"], combo["k1"], combo["b"])
            if weight == 1.0
            else cache.trans_rows(combo["alpha"], combo["power"])
        )
        return _mean([
            1.0 / target_rank(lex_words, row, pair.target) for pair, row in zip(queries, rows)
        ])
    return _mean([
        1.0 / _walked_rank(
            weight, lex_words, pair.target, order, norms.__getitem__, trans.__getitem__, ceiling
        )
        for pair, norms, order, trans, ceiling in zip(
            queries,
            cache.norm_rows(combo["mu"], combo["k1"], combo["b"]),
            cache.norm_orders(combo["mu"], combo["k1"], combo["b"]),
            cache.trans_rows(combo["alpha"], combo["power"]),
            cache.trans_maxima(combo["alpha"], combo["power"]),
        )
    ])


def _effective_key(combo: dict) -> tuple:
    """The grid values a combo's scores read: _blend reads one side at weights 0 and 1."""
    weight = combo["sim_weight"]
    if weight == 0.0:
        return (0.0, combo["power"], combo["alpha"])
    if weight == 1.0:
        return (1.0, combo["mu"], combo["k1"], combo["b"])
    return tuple(combo[key] for key in GRID_KEYS)


def _fold_caches(
    pairs: Sequence[LabeledPair],
    shingler_config: ShinglerConfig,
    ranker_function: str,
    use_error_model: bool,
    folds: int,
    seed: int,
    lexicon_index: Optional[LexiconIndex],
) -> list[_FoldCache]:
    """One cache per cross-validation fold, all sharing one :class:`_TuneCache`."""
    fold_groups = stratified_folds(pairs, folds, seed)
    shared = _TuneCache(shingler_config)
    caches = []
    for i, val in enumerate(fold_groups):
        train = [p for j, fold in enumerate(fold_groups) for p in fold if j != i]
        caches.append(
            _FoldCache(shared, train, val, ranker_function, use_error_model, lexicon_index)
        )
    return caches


def _check_folds(folds: int) -> None:
    if folds < 2:
        raise ConfigError(f"cross-validation needs at least 2 folds, got {folds}")


def tune(
    pairs: Sequence[LabeledPair],
    shingler_config: ShinglerConfig,
    ranker_function: str,
    use_error_model: bool = True,
    grids: Optional[dict] = None,
    folds: int = 5,
    seed: int = 42,
    objective: str = "accuracy",
    lexicon: Optional[Sequence[str]] = None,
) -> dict:
    """Cross-validated grid search; returns the winning hyperparameters.

    ``objective`` is ``accuracy`` (classification) or ``mrr`` (ranking).
    ``folds`` must be at least 2 and ``pairs`` hold at least 2 pairs, so
    that no fold validates on its own training pairs.  Ties go to the
    earliest combination in grid order.  A combination whose scores
    provably equal an earlier one's (the same values of every parameter
    it reads) is not scored again: it could only tie.
    """
    if objective not in ("accuracy", "mrr"):
        raise ConfigError(f"unknown tuning objective {objective!r}")
    _check_folds(folds)
    if len(pairs) < 2:
        raise TrainingError(f"cross-validation needs at least 2 training pairs, got {len(pairs)}")
    merged = _resolve_grids(grids, ranker_function, use_error_model)
    lexicon_index = None
    lex_words: list[str] = []
    if objective == "mrr":
        source_words = lexicon if lexicon is not None else [p.target for p in pairs]
        lex_words = list(dict.fromkeys(normalize_word(w) for w in source_words))
        lexicon_index = build_index(lex_words, shingler_config)
    caches = _fold_caches(
        pairs, shingler_config, ranker_function, use_error_model, folds, seed, lexicon_index
    )

    best_combo = None
    best_score = -math.inf
    scored = set()
    for values in itertools.product(*(merged[key] for key in GRID_KEYS)):
        combo = dict(zip(GRID_KEYS, values))
        key = _effective_key(combo)
        if key in scored:  # an earlier combo scored the same; ties go to it
            continue
        scored.add(key)
        fold_scores = []
        for cache in caches:
            if objective == "accuracy":
                fold_scores.append(_combo_accuracy(cache, combo))
            else:
                score = _combo_mrr(cache, combo, lex_words)
                if score is not None:
                    fold_scores.append(score)
        if not fold_scores:
            raise TrainingError("no fold produced a tuning score (no positive pairs?)")
        mean_score = _mean(fold_scores)
        if mean_score > best_score:
            best_score = mean_score
            best_combo = combo
    resolved = dict(best_combo)
    resolved["cv_score"] = best_score
    resolved["objective"] = objective
    resolved["folds"] = len(caches)
    return resolved


def resolve_hyperparameters(
    train_pairs: Sequence[LabeledPair],
    shingler_config: ShinglerConfig,
    ranker_function: str,
    use_error_model: bool = True,
    fixed: Optional[dict] = None,
    grids: Optional[dict] = None,
    folds: int = 5,
    seed: int = 42,
    objective: str = "accuracy",
) -> dict:
    """Pin any explicitly fixed values and tune whatever remains.

    When every grid collapses to a single value the cross-validation is
    skipped and the values are returned as-is.
    """
    search = {key: list(values) for key, values in (grids or {}).items()}
    for key, value in (fixed or {}).items():
        if key not in GRID_KEYS:
            raise ConfigError(f"unknown hyperparameter {key!r}")
        search[key] = [value]
    merged = _resolve_grids(search, ranker_function, use_error_model)
    if all(len(values) == 1 for values in merged.values()):
        resolved = {key: values[0] for key, values in merged.items()}
        resolved["objective"] = "fixed"
        return resolved
    return tune(
        train_pairs,
        shingler_config,
        ranker_function,
        use_error_model=use_error_model,
        grids=search,
        folds=folds,
        seed=seed,
        objective=objective,
    )


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
    train_pairs: Sequence[LabeledPair],
    shingler_config: ShinglerConfig,
    ranker_function: str,
    resolved: dict,
    threshold: Optional[float] = None,
) -> CombinedScorer:
    """Train a scorer on ``train_pairs`` with resolved hyperparameters.

    ``resolved`` holds sim_weight/power/alpha/mu/k1/b, as returned by
    :func:`resolve_hyperparameters`; the threshold is learned unless given.
    """
    return train_scorer(
        [(p.source, p.target, p.label) for p in train_pairs],
        shingler_config,
        RankerParams(ranker_function, k1=resolved["k1"], b=resolved["b"], mu=resolved["mu"]),
        sim_weight=resolved["sim_weight"],
        alpha=resolved["alpha"],
        power=resolved["power"],
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
    label: str = "",
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
    train, _ = split(pairs, seed)
    fixed = dict(fixed or {})
    threshold = fixed.pop("threshold", None)

    def resolve(objective: str) -> dict:
        return resolve_hyperparameters(
            train,
            shingler_config,
            ranker_function,
            use_error_model=use_error_model,
            fixed=fixed,
            grids=grids,
            folds=folds,
            seed=seed,
            objective=objective,
        )

    resolved_cls = resolve("accuracy")
    classifier = fit_pipeline(train, shingler_config, ranker_function, resolved_cls, threshold)
    if resolved_cls.get("objective") == "fixed":
        resolved_rank, ranker = resolved_cls, classifier
    else:
        resolved_rank = resolve("mrr")
        ranker = fit_pipeline(train, shingler_config, ranker_function, resolved_rank)

    def summarize(resolved):
        out = {key: resolved[key] for key in GRID_KEYS}
        for key in ("cv_score", "objective", "folds"):
            if key in resolved:
                out[key] = resolved[key]
        return out

    hyperparameters = {
        "function": ranker_function,
        "mode": shingler_config.mode,
        "gram_sizes": list(shingler_config.gram_sizes),
        "use_error_model": use_error_model,
        "threshold": classifier.config.threshold,
        "classification": summarize(resolved_cls),
        "ranking": summarize(resolved_rank),
    }
    if not label:
        ends = {"plain": "0-ended", "one_end": "1-ended", "two_end": "2-ended"}
        sizes = "+".join(str(k) for k in shingler_config.gram_sizes)
        label = f"{sizes}-gram {ends[shingler_config.mode]} {ranker_function}"
        if use_error_model:
            label += " + error model"
    return evaluate(
        PipelineSystem(classifier),
        PipelineSystem(ranker),
        pairs,
        seed,
        label,
        hyperparameters,
        extra_lexicon,
    )


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
    reports = []
    for cell in cells:
        reports.append(
            run_experiment(
                pairs,
                ShinglerConfig(cell.gram_sizes, cell.mode),
                cell.function,
                use_error_model=cell.use_error_model,
                seed=seed,
                grids=grids,
                folds=folds,
                extra_lexicon=extra_lexicon,
            )
        )
    return reports


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
