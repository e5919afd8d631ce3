"""Shared fixtures: deterministic random words and a synthetic dataset."""

import random

import pytest

from cognatekit import LabeledPair, shingle, train_error_model, train_scorer
from cognatekit.error_model import _power_table

from synthetic import SYLLABLES, make_hard_synthetic_pairs  # noqa: F401  re-exported

ALPHABET = "abcdefghijklmnopqrstuvwxyzàâăçéèêîïôöșțüñ"


def random_word(rng, min_len=1, max_len=10):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(min_len, max_len)))


def edge_prob(model, edge):
    """Smoothed probability of one edge: the model's table formula at power 1."""
    count = model.edge_counts.get(edge, 0)
    table = _power_table([count], model.total_count, model.distinct_edges, model.alpha, 1.0)
    return table[count]


def train_on_words(triples, config, ranker, alpha=1.0, power=1.0, **kwargs):
    """``train_scorer`` on (source, target, label) words; the error model counts the cognates."""
    sets = [(shingle(s, config), shingle(t, config), label) for s, t, label in triples]
    model = train_error_model([(s, t) for s, t, label in triples if label], config, alpha, power)
    return train_scorer(sets, model, ranker, **kwargs)


def make_synthetic_pairs(n_pos, n_neg, seed=7):
    """Labeled pairs whose positives share a few systematic transformations."""
    rng = random.Random(seed)

    def word():
        return "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))

    rules = [
        lambda w: w + "e",
        lambda w: w.replace("o", "ou", 1),
        lambda w: w[:-1] + "ta" if len(w) > 3 else w + "ta",
        lambda w: w.replace("c", "ch", 1),
    ]
    pairs = []
    seen = set()
    while len(pairs) < n_pos:
        w = word()
        if w in seen:
            continue
        seen.add(w)
        t = rules[len(pairs) % len(rules)](w)
        if t == w:
            t = w + "e"
        pairs.append(LabeledPair(w, t, True, "syn"))
    negatives = 0
    while negatives < n_neg:
        a, b = word(), word()
        if a == b or a in seen:
            continue
        seen.add(a)
        pairs.append(LabeledPair(a, b, False, "syn"))
        negatives += 1
    return pairs


@pytest.fixture
def synthetic_pairs():
    return make_synthetic_pairs(60, 60)


@pytest.fixture
def synthetic_dataset_file(tmp_path, synthetic_pairs):
    path = tmp_path / "synthetic.tsv"
    lines = [f"{p.source}\t{p.target}\t{int(p.label)}" for p in synthetic_pairs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
