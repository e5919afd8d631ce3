"""Shared fixtures: deterministic random words and a synthetic dataset."""

import random

import pytest

from cognatekit import LabeledPair
from cognatekit.error_model import _power_table

ALPHABET = "abcdefghijklmnopqrstuvwxyzàâăçéèêîïôöșțüñ"
SYLLABLES = [
    "ba", "ce", "di", "fo", "gu", "la", "me", "ni",
    "po", "ra", "se", "ti", "vo", "zu", "ch", "or",
]


def random_word(rng, min_len=1, max_len=10):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(min_len, max_len)))


def edge_prob(model, edge):
    """Smoothed probability of one edge: the model's table formula at power 1."""
    count = model.edge_counts.get(edge, 0)
    table = _power_table([count], model.total_count, model.distinct_edges, model.alpha, 1.0)
    return table[count]


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


COGNATE_RULES = [
    lambda w: w[:-1] + "e" if w.endswith("a") else w + "e",
    lambda w: w.replace("u", "o", 1) if "u" in w else w + "o",
    lambda w: w.replace("s", "ss", 1) if "s" in w else w + "s",
    lambda w: w.replace("c", "ch", 1) if "c" in w else "ch" + w,
    lambda w: w.replace("ti", "zi", 1) if "ti" in w else w + "zi",
]

NOISE_RULES = [
    lambda w: w[:-1] + "g" if len(w) > 3 else w + "g",
    lambda w: w.replace("a", "y", 1) if "a" in w else w + "y",
    lambda w: "p" + w[1:],
    lambda w: w.replace("r", "ll", 1) if "r" in w else w + "ll",
]


def make_hard_synthetic_pairs(n_pos, n_neg, seed=19):
    """Cognates follow a fixed rule inventory; negatives are either
    near-miss corruptions (different rules) or unrelated words, so raw
    closeness alone cannot separate the classes."""
    rng = random.Random(seed)

    def word():
        return "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))

    pairs = []
    seen = set()
    while len(pairs) < n_pos:
        w = word()
        if w in seen:
            continue
        seen.add(w)
        t = rng.choice(COGNATE_RULES)(w)
        if t == w:
            t = w + "e"
        pairs.append(LabeledPair(w, t, True, "syn"))
    negatives = 0
    while negatives < n_neg:
        a = word()
        if a in seen:
            continue
        seen.add(a)
        if negatives % 2 == 0:
            b = rng.choice(NOISE_RULES)(a)
            if b == a:
                b = a + "g"
        else:
            b = word()
            if b == a:
                continue
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
