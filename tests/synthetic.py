"""Seeded synthetic cognate datasets, importable without pytest."""

import random

from cognatekit import LabeledPair

SYLLABLES = [
    "ba", "ce", "di", "fo", "gu", "la", "me", "ni",
    "po", "ra", "se", "ti", "vo", "zu", "ch", "or",
]

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
