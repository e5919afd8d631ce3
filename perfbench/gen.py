"""Seeded input generators owned by the benchmark.

They follow the "hard" synthetic construction of the test suite (a fixed
cognate rule inventory, near-miss noise rules and unrelated words) but
live here on purpose: editing a test must not change a workload.  Every
generator is a pure function of its arguments.
"""

from __future__ import annotations

import random

SYLLABLES = (
    "ba", "ce", "di", "fo", "gu", "la", "me", "ni",
    "po", "ra", "se", "ti", "vo", "zu", "ch", "or",
)
# Precomposed (NFC) Romance diacritic syllables: real lexicons carry them,
# so a Unicode-normalization step in the program has something to cost.
DIACRITIC_SYLLABLES = ("șa", "ță", "ăr", "é", "ço", "ñu")

COGNATE_RULES = (
    lambda w: w[:-1] + "e" if w.endswith("a") else w + "e",
    lambda w: w.replace("u", "o", 1) if "u" in w else w + "o",
    lambda w: w.replace("s", "ss", 1) if "s" in w else w + "s",
    lambda w: w.replace("c", "ch", 1) if "c" in w else "ch" + w,
    lambda w: w.replace("ti", "zi", 1) if "ti" in w else w + "zi",
)

NOISE_RULES = (
    lambda w: w[:-1] + "g" if len(w) > 3 else w + "g",
    lambda w: w.replace("a", "y", 1) if "a" in w else w + "y",
    lambda w: "p" + w[1:],
    lambda w: w.replace("r", "ll", 1) if "r" in w else w + "ll",
)


def hard_pairs(n_pos: int, n_neg: int, seed: int) -> list[tuple[str, str, bool]]:
    """(source, target, label) triples: rule-made cognates first, then
    negatives alternating near-miss corruptions and unrelated words, so
    raw closeness alone cannot separate the classes."""
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
        pairs.append((w, t, True))
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
        pairs.append((a, b, False))
        negatives += 1
    return pairs


def syllable_lexicon(size: int, keep: list[str], seed: int) -> list[str]:
    """``keep`` (deduplicated, in order) padded to ``size`` distinct words
    made of plain and diacritic syllables."""
    rng = random.Random(seed)
    syllables = SYLLABLES + DIACRITIC_SYLLABLES
    words = dict.fromkeys(keep)
    while len(words) < size:
        words.setdefault("".join(rng.choice(syllables) for _ in range(rng.randint(2, 4))))
    return list(words)


def shuffled(items: list, seed: int) -> list:
    """A copy of ``items`` in a seeded order."""
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


def write_dataset(path, pairs) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(f"{s}\t{t}\t{int(label)}\n" for s, t, label in pairs)


def write_lexicon(path, words) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(f"{w}\n" for w in words)
